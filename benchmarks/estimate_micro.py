"""Micro-benchmark of one filtered COUNT estimate, stage by stage: the
``qy_churn`` stream applied whole, its end-to-end ``where`` asked of a
``SynopsisService`` view at synopsis sizes m = 200, 500 and 2000.

Four stages of ``RegisteredQuery.estimate("count", where=...)``, each
the median of ``--calls`` timed calls after ``--warmup`` untimed ones:

* ``select`` — the ``where`` terms run over the sample, each keeping
  the samples that satisfy it (the selection);
* ``count`` — the COUNT branch of ``_aggregate`` over that selection;
* ``audit`` — ``AccuracyAuditor.observe`` of the unscored answer, its
  ring already full (the steady state of a filtered-estimate loop);
* ``rest`` — the whole call less those three: the view fetch, the
  request checks and compile, the payload.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/estimate_micro.py [--seed 101]

It prints one line per synopsis size, in microseconds.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers.stream import BY_NAME, QUERY_SEED, materialise  # noqa: E402
from repro import (  # noqa: E402
    MaintainerConfig,
    QueryRegistry,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
)
from repro.aqp.audit import CAPACITY, AccuracyAuditor  # noqa: E402
from repro.aqp.estimation import _aggregate, compile_where  # noqa: E402

SIZES = (200, 500, 2000)


def median_us(fn, calls: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    clock = time.perf_counter_ns
    samples = []
    for _ in range(calls):
        started = clock()
        fn()
        samples.append(clock() - started)
    return statistics.median(samples) / 1e3


def select(rows, terms) -> list:
    """The samples of ``rows`` that every term keeps (a uniform
    synopsis: a kept sample is its heap rows)."""
    for keep, t_idx, c_idx, value in terms:
        rows = keep[False](rows, t_idx, c_idx, value)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--calls", type=int, default=300)
    parser.add_argument("--warmup", type=int, default=50)
    args = parser.parse_args(argv)
    stream = materialise(BY_NAME["qy_churn"], args.seed)
    name, where = stream.spec.query, list(stream.spec.where)
    print(f"{'m':>5} {'J':>8} {'hits':>5} {'select':>7} {'count':>7} "
          f"{'audit':>7} {'rest':>7} {'total':>7}")
    for size in SIZES:
        manager = SynopsisManager(stream.fresh_db(), MaintainerConfig())
        manager.register(name, stream.sql, MaintainerConfig(
            engine="sjoin-opt", seed=QUERY_SEED,
            spec=SynopsisSpec.fixed_size(size)))
        manager.apply_batch(stream.preload + stream.ops)
        with SynopsisService(manager) as service:
            registry = QueryRegistry(service)
            query = registry.get(name)
            snapshot = registry.snapshot_of(name)
            rows, total = snapshot.rows, snapshot.total
            terms = compile_where(query.query, manager.db, where)
            kept = select(rows, terms)
            payload = query.estimate("count", where=where)
            auditor = AccuracyAuditor()
            for _ in range(CAPACITY):
                auditor.observe(name, payload, latency_ns=0)
            gc.collect()
            stages = {
                "select": lambda: select(rows, terms),
                "count": lambda: _aggregate(
                    snapshot.family, total, len(rows), "count", kept),
                "audit": lambda: auditor.observe(name, payload,
                                                 latency_ns=0),
                "total": lambda: query.estimate("count", where=where),
            }
            us = {stage: median_us(fn, args.calls, args.warmup)
                  for stage, fn in stages.items()}
        rest = us["total"] - us["select"] - us["count"] - us["audit"]
        print(f"{len(rows):>5} {total:>8} {len(kept) / len(rows):>5.2f} "
              f"{us['select']:>7.1f} {us['count']:>7.1f} {us['audit']:>7.1f} "
              f"{rest:>7.1f} {us['total']:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
