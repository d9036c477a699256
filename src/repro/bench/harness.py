"""Drive a maintainer through an update stream and record throughput.

The unit of measurement is one insert or delete *operation* (the paper's
"insertions or deletions performed per second").  ``run_stream`` plays the
event list, sampling instant throughput every ``checkpoint_every``
operations and simulating a synopsis request every ``synopsis_every``
operations (the paper requests run-time statistics of the synopsis every
50,000 updates).  A wall-clock ``time_budget`` aborts slow configurations,
standing in for the paper's 6-hour cap — aborted runs report how far they
got, exactly like the incomplete SJ curves in Figures 11 and 13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datagen.workload import (
    StreamPlayer,
    UpdateEvent,
    count_operations,
)


@dataclass
class Checkpoint:
    """Instant throughput sample at one point of the stream."""

    operations: int
    progress: float  # fraction of planned operations completed
    instant_throughput: float  # ops/sec over the last checkpoint window
    elapsed: float
    total_results: Optional[int] = None
    synopsis_size: Optional[int] = None


@dataclass
class BenchRun:
    """Outcome of one engine x workload run."""

    engine: str
    workload: str
    checkpoints: List[Checkpoint] = field(default_factory=list)
    operations: int = 0
    planned_operations: int = 0
    elapsed: float = 0.0
    aborted: bool = False
    #: observability snapshot taken after the run; empty unless the engine
    #: was built with a metrics registry (see :mod:`repro.obs`)
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def average_throughput(self) -> float:
        if self.elapsed <= 0:
            return float("inf")
        return self.operations / self.elapsed

    @property
    def progress(self) -> float:
        if not self.planned_operations:
            return 1.0
        return self.operations / self.planned_operations

    def summary(self) -> str:
        status = "ABORTED" if self.aborted else "done"
        return (
            f"{self.engine:>10} | {self.workload:<14} | "
            f"{self.operations:>8} ops in {self.elapsed:7.2f}s | "
            f"{self.average_throughput:>9.1f} ops/s | "
            f"{100 * self.progress:5.1f}% | {status}"
        )


def run_stream(
    maintainer,
    events: Sequence[UpdateEvent],
    workload: str = "",
    checkpoint_every: int = 1000,
    synopsis_every: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> BenchRun:
    """Play ``events`` through ``maintainer.apply_batch`` (a
    :class:`~repro.core.maintainer.JoinSynopsisMaintainer`) and measure
    throughput; checkpoints record ``J`` and the engine's sample count,
    and the run ends with the engine's metrics snapshot."""
    player = StreamPlayer(maintainer)
    engine = maintainer.engine
    run = BenchRun(
        engine=maintainer.algorithm,
        workload=workload,
        planned_operations=count_operations(events),
    )
    started = time.perf_counter()
    window_started = started
    window_ops = 0
    next_synopsis = synopsis_every
    for event in events:
        done = player.apply(event)
        run.operations += done
        window_ops += done
        if next_synopsis is not None and run.operations >= next_synopsis:
            next_synopsis += synopsis_every
            maintainer.synopsis()
        if window_ops >= checkpoint_every:
            now = time.perf_counter()
            span = max(now - window_started, 1e-9)
            run.checkpoints.append(Checkpoint(
                operations=run.operations,
                progress=run.operations / max(run.planned_operations, 1),
                instant_throughput=window_ops / span,
                elapsed=now - started,
                total_results=maintainer.total_results(),
                synopsis_size=len(engine.raw_samples()),
            ))
            window_started = now
            window_ops = 0
            if time_budget is not None and now - started > time_budget:
                run.aborted = True
                break
    run.elapsed = time.perf_counter() - started
    run.metrics = engine.metrics_snapshot()
    return run
