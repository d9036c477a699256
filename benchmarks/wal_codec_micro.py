"""Micro-benchmark of an ``apply`` WAL record's bytes: microseconds per op
to encode and to decode one record, and payload bytes per op, for the
ladder's op streams cut into batches of 64 (what the service commits).

Three codecs over the same batches:

* ``pickled ops`` — ``pickle`` of ``("apply", [InsertOp | DeleteOp])``,
  the record format before plain-value records;
* ``plain`` — the log's own path: ``dump_plain(("apply",
  encode_ops(ops)))``, and back through ``load_plain`` + ``decode_ops``;
* ``plain, ctor`` — the plain bytes decoded by calling the op
  dataclasses' constructors instead (``__post_init__`` re-run per op).

Run it from the repository root::

    PYTHONPATH=src python benchmarks/wal_codec_micro.py [--seed 101]

It prints one line per workload and codec: the best of ``--reps`` runs.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers.stream import BY_NAME, materialise  # noqa: E402
from repro.core.stats_api import DeleteOp, InsertOp  # noqa: E402
from repro.persist.runtime import decode_ops, encode_ops  # noqa: E402
from repro.persist.wal import dump_plain, load_plain  # noqa: E402

WORKLOADS = ("qy_ingest", "qy_churn", "qb_window")
BATCH = 64


def by_ctor(plain):
    return [InsertOp(target, value) if kind == "insert"
            else DeleteOp(target, value) for kind, target, value in plain]


CODECS = {
    "pickled ops": (
        lambda ops: pickle.dumps(("apply", ops), pickle.HIGHEST_PROTOCOL),
        lambda data: pickle.loads(data)[1]),
    "plain": (
        lambda ops: dump_plain(("apply", encode_ops(ops))),
        lambda data: decode_ops(load_plain(data)[1])),
    "plain, ctor": (
        lambda ops: dump_plain(("apply", encode_ops(ops))),
        lambda data: by_ctor(load_plain(data)[1])),
}


def best_us_per_op(fn, items, nops, reps):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, time.perf_counter() - started)
    return best / nops * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--batches", type=int, default=300)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"{'workload':<10} {'codec':<12} {'encode us/op':>12} "
          f"{'decode us/op':>12} {'bytes/op':>9}")
    for name in WORKLOADS:
        ops = materialise(BY_NAME[name], args.seed).ops
        batches = [ops[i:i + BATCH]
                   for i in range(0, len(ops), BATCH)][:args.batches]
        nops = sum(map(len, batches))
        for codec, (encode, decode) in CODECS.items():
            payloads = [encode(batch) for batch in batches]
            assert [decode(p) for p in payloads] == batches
            enc = best_us_per_op(encode, batches, nops, args.reps)
            dec = best_us_per_op(decode, payloads, nops, args.reps)
            size = sum(map(len, payloads)) / nops
            print(f"{name:<10} {codec:<12} {enc:>12.3f} {dec:>12.3f} "
                  f"{size:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
