"""Shared benchmark machinery.

Each benchmark module reproduces one table or figure of the paper (see
DESIGN.md's experiment index).  A module runs every engine/parameter cell
of its figure once (pytest-benchmark timing with ``rounds=1`` — these are
long throughput runs, not microbenchmarks), caches the
:class:`~repro.bench.harness.BenchRun` results in a module-scoped dict,
and ends with a ``test_..._report`` that prints the paper-style series /
table and asserts the *shape* of the result (who wins, roughly by how
much) rather than absolute numbers.

Slow configurations run under a wall-clock budget standing in for the
paper's 6-hour cap; aborted runs report partial progress exactly like the
incomplete SJ curves in Figures 11 and 13.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.bench.harness import BenchRun, run_stream
from repro.core import JoinSynopsisMaintainer, MaintainerConfig, SynopsisSpec
from repro.datagen.tpcds import QuerySetup, TpcdsScale, setup_query
from repro.datagen.workload import StreamPlayer

#: wall-clock budget per engine run (the paper's 6-hour cap, scaled)
TIME_BUDGET = 20.0
#: default synopsis for throughput figures (paper: fixed-size 10,000)
DEFAULT_SYNOPSIS = 500

#: TPC-DS-like scale for throughput figures — large enough for stable
#: curves, small enough that SJoin-opt finishes well inside the budget
FIG_SCALE = TpcdsScale(
    dates=180, demographics=360, income_bands=15, items=900,
    categories=36, customers=1800, store_sales=9000,
    returns_fraction=0.35, catalog_sales=5500,
)


def build_maintainer(setup: QuerySetup, algorithm: str,
                     spec: Optional[SynopsisSpec] = None, seed: int = 17,
                     obs=None) -> JoinSynopsisMaintainer:
    """A maintainer of the given algorithm over a setup's database."""
    return JoinSynopsisMaintainer(setup.db, setup.sql, MaintainerConfig(
        spec=spec or SynopsisSpec.fixed_size(DEFAULT_SYNOPSIS),
        engine=algorithm, seed=seed, obs=obs))


def run_workload(setup: QuerySetup, algorithm: str,
                 spec: Optional[SynopsisSpec] = None,
                 events=None,
                 time_budget: float = TIME_BUDGET,
                 checkpoint_every: int = 1000,
                 seed: int = 17, obs=None) -> BenchRun:
    """Preload, then stream, one maintainer run with throughput
    checkpoints."""
    maintainer = build_maintainer(setup, algorithm, spec, seed=seed,
                                  obs=obs)
    StreamPlayer(maintainer).run(setup.preload)
    run = run_stream(
        maintainer,
        setup.stream if events is None else events,
        workload=setup.name,
        checkpoint_every=checkpoint_every,
        synopsis_every=5000,
        time_budget=time_budget,
    )
    run.engine = algorithm
    return run


def stable_throughput(run: BenchRun, tail_fraction: float = 0.5) -> float:
    """Throughput after the initial warm-up phase (the paper reads its
    figures once the curve 'stabilizes'): mean instant throughput over the
    last ``tail_fraction`` of recorded checkpoints."""
    if not run.checkpoints:
        return run.average_throughput
    tail = run.checkpoints[int(len(run.checkpoints) * (1 - tail_fraction)):]
    return sum(c.instant_throughput for c in tail) / len(tail)


def effective_throughput(run: BenchRun) -> float:
    """ops/s over the whole run; aborted runs are penalised by their
    unfinished tail (progress / elapsed on the planned operation count),
    mirroring how the paper reports engines that missed the time cap."""
    if run.elapsed <= 0:
        return float("inf")
    return run.operations / run.elapsed


@pytest.fixture(scope="module")
def results() -> Dict[str, BenchRun]:
    """Per-module cache: cells store their BenchRun for the report test."""
    return {}


def as_benchmark_report(benchmark, fn) -> None:
    """Run a report/assertion function under the benchmark fixture so the
    module's report still executes under ``--benchmark-only``."""
    benchmark.pedantic(fn, rounds=1, iterations=1)
