"""Micro-benchmark of the family reads: one ``qy_churn`` registration
per synopsis family, each asked an unfiltered and a filtered COUNT.

The ``qy_churn`` stream is applied whole to a ``SynopsisManager`` with
one registration — uniform ``fixed_size(2000)``, weighted
``weighted_with_replacement(2000, "ss.ss_quantity")`` or subset
``subset(0.001, "ss.ss_quantity")`` — and the query is asked through a
``SynopsisService`` view.  Per row, each the median of ``--calls`` timed
calls after ``--warmup`` untimed ones, in microseconds:

* ``count`` — ``RegisteredQuery.estimate("count")``, the whole call
  (view fetch, estimate, audit);
* ``filtered`` — the same with the workload's end-to-end ``where``;
* ``audit`` — ``AccuracyAuditor.observe`` of the unfiltered COUNT's
  answer as the registry records it (scored against the exact ``J`` on
  the uniform and subset families, unscored on the weighted one), its
  ring already full of such records: the steady state of an
  unfiltered-COUNT loop.

``n`` is the number of samples the estimate reads.  Run it from the
repository root::

    PYTHONPATH=src python benchmarks/estimate_micro.py [--seed 101]

It uses only names every release since 20.0 has, so the same file can
time a parent checkout: put that checkout's ``src`` on ``PYTHONPATH``.
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

WEIGHT = "ss.ss_quantity"
#: one row per family: (label, spec, does the registry score its COUNT)
FAMILIES = (
    ("uniform m=2000", SynopsisSpec.fixed_size(2000), True),
    ("weighted m=2000", SynopsisSpec.weighted_with_replacement(2000, WEIGHT),
     False),
    ("subset p=0.001", SynopsisSpec.subset(0.001, WEIGHT), True),
)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--calls", type=int, default=300)
    parser.add_argument("--warmup", type=int, default=50)
    args = parser.parse_args(argv)
    stream = materialise(BY_NAME["qy_churn"], args.seed)
    name, where = stream.spec.query, list(stream.spec.where)
    print(f"{'family':<16} {'n':>6} {'J':>8} {'count':>9} "
          f"{'filtered':>9} {'audit':>7}")
    for label, spec, scored in FAMILIES:
        manager = SynopsisManager(stream.fresh_db(), MaintainerConfig())
        manager.register(name, stream.sql, MaintainerConfig(
            engine="sjoin-opt", seed=QUERY_SEED, spec=spec))
        manager.apply_batch(stream.preload + stream.ops)
        with SynopsisService(manager) as service:
            query = QueryRegistry(service).get(name)
            payload = query.estimate("count")
            truth = float(payload["total_results"]) if scored else None
            auditor = AccuracyAuditor()
            for _ in range(CAPACITY):
                auditor.observe(name, payload, latency_ns=0, truth=truth)
            gc.collect()
            stages = {
                "count": lambda: query.estimate("count"),
                "filtered": lambda: query.estimate("count", where=where),
                "audit": lambda: auditor.observe(
                    name, payload, latency_ns=0, truth=truth),
            }
            us = {stage: median_us(fn, args.calls, args.warmup)
                  for stage, fn in stages.items()}
        print(f"{label:<16} {payload['sample_size']:>6} "
              f"{payload['total_results']:>8} {us['count']:>9.1f} "
              f"{us['filtered']:>9.1f} {us['audit']:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
