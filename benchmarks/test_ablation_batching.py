"""Micro-batch ablation (Fig. 11 ingest).

The batch-first hot path coalesces a micro-batch's consecutive inserts
into per-alias runs:
weight deltas propagate once per (vertex, direction), hash-only member
registrations are hoisted so anchor runs stay contiguous, and sampling
consumes merged delta views.  This ablation replays the QY insert
stream through ``apply_batch`` at growing micro-batch sizes and checks
the redesign's two contracts: the synopsis is bit-identical at every
batch size, and batch sizes >= 16 ingest at >= 2x the serial (batch=1)
throughput.  The measured curve exports to ``BENCH_batching.json``
(override with ``$REPRO_BENCH_BATCH_EXPORT``); CI's batching gate
compares it against the committed baseline in ``benchmarks/baselines/``.
"""

import json
import os
import time

from conftest import (
    DEFAULT_SYNOPSIS,
    FIG_SCALE,
    as_benchmark_report,
    results,
)
from repro.bench.reporting import format_table
from repro.core import SynopsisSpec
from repro.core.config import MaintainerConfig
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.stats_api import InsertOp
from repro.datagen.tpcds import setup_query

BATCH_SIZES = (1, 4, 16, 64, 256)
#: paired measurement rounds: each round times *every* batch size, and
#: speedups are computed within a round so machine-speed drift between
#: rounds cancels out of the ratios
BATCH_ROUNDS = 3
#: the tentpole contract: >= 2x serial ingest at micro-batches >= 16
BATCH_SPEEDUP_FLOOR = 2.0
BATCH_SPEEDUP_AT = 16
BATCH_EXPORT = os.environ.get("REPRO_BENCH_BATCH_EXPORT",
                              "BENCH_batching.json")


def _micro_batch_cell(batch_size):
    """One timed QY ingest at one micro-batch size."""
    setup = setup_query("QY", FIG_SCALE, seed=0)
    maintainer = JoinSynopsisMaintainer(
        setup.db, setup.sql,
        MaintainerConfig(
            engine="sjoin-opt", seed=17,
            spec=SynopsisSpec.fixed_size(DEFAULT_SYNOPSIS),
        ),
    )
    # the preload is applied identically in every cell; only the
    # stream's micro-batch size varies between cells
    maintainer.apply_batch(
        [InsertOp(event.alias, event.row) for event in setup.preload]
    )
    ops = [InsertOp(event.alias, event.row) for event in setup.stream]
    started = time.perf_counter()
    for i in range(0, len(ops), batch_size):
        maintainer.apply_batch(ops[i:i + batch_size])
    elapsed = time.perf_counter() - started
    return len(ops) / elapsed, len(ops), maintainer.synopsis()


def test_micro_batch_sweep(benchmark, results):
    def sweep():
        best_tp = {size: 0.0 for size in BATCH_SIZES}
        best_speedup = {size: 0.0 for size in BATCH_SIZES}
        synopses = {}
        operations = 0
        for _ in range(BATCH_ROUNDS):
            round_tp = {}
            for size in BATCH_SIZES:
                tp, operations, synopses[size] = _micro_batch_cell(size)
                round_tp[size] = tp
                best_tp[size] = max(best_tp[size], tp)
            for size in BATCH_SIZES:
                best_speedup[size] = max(
                    best_speedup[size], round_tp[size] / round_tp[1])
        return best_tp, best_speedup, synopses, operations

    cell = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["ops_per_sec"] = cell[0][max(BATCH_SIZES)]
    results["micro"] = cell


def test_micro_batch_report_and_export(benchmark, results):
    def report():
        assert "micro" in results, "run the full module, not a single cell"
        best_tp, best_speedup, synopses, operations = results["micro"]
        rows = []
        for size in BATCH_SIZES:
            rows.append((size, f"{best_tp[size]:.0f}",
                         f"{best_speedup[size]:.2f}x"))
            # the redesign's distribution contract: batching must not
            # change what is sampled, bit for bit
            assert synopses[size] == synopses[1], \
                f"batch size {size} changed the sampled synopsis"
        print()
        print(format_table(
            ("micro-batch", "ops/s", "vs serial"), rows,
            title=f"Fig. 11 QY ingest vs micro-batch size "
                  f"({operations} ops, best of {BATCH_ROUNDS} rounds)",
        ))
        report_json = {
            "workload": "QY",
            "engine": "sjoin-opt",
            "operations": operations,
            "rounds": BATCH_ROUNDS,
            "throughput": {str(size): best_tp[size]
                           for size in BATCH_SIZES},
            "speedup_vs_serial": {str(size): best_speedup[size]
                                  for size in BATCH_SIZES},
            "speedup_floor": BATCH_SPEEDUP_FLOOR,
        }
        with open(BATCH_EXPORT, "w") as fh:
            json.dump(report_json, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for size in BATCH_SIZES:
            if size < BATCH_SPEEDUP_AT:
                continue
            assert best_speedup[size] >= BATCH_SPEEDUP_FLOOR, (
                f"batch={size} ingest is only {best_speedup[size]:.2f}x "
                f"serial; the batch-first path promises >= "
                f"{BATCH_SPEEDUP_FLOOR}x from batch {BATCH_SPEEDUP_AT}"
            )

    as_benchmark_report(benchmark, report)
