"""The ladder's rungs: build each layer's stack and replay the stream.

Every rung is measured from outside, by timing calls into the layer's
public entry point (``apply_batch`` at each level, ``checkpoint`` /
``recover``, ``RegisteredQuery.estimate``, ``ship_once`` /
``catch_up``).  A rung always starts from a fresh database and a fresh
stack, replays the identical pre-sliced batches, and hands back what
the gate needs: the TIDs the stack returned, its synopsis and its
exact ``total_results``.

Timings come back speed-normalised (see :mod:`benchmarks.layers.speed`);
the raw clock instants stay on the rung for ``spans.jsonl``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import time
from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.aqp import QueryRegistry
from repro.core.config import MaintainerConfig
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager
from repro.core.synopsis import SynopsisSpec
from repro.persist import PersistentManager
from repro.persist.runtime import SNAPSHOT_SUBDIR
from repro.persist.snapshot import SnapshotStore
from repro.persist.state import restore_database, restore_manager
from repro.replicate import FollowerService, WalShipper
from repro.service import ServiceConfig, SynopsisService

from benchmarks.layers.speed import MARGIN, PROBE_EVERY_NS, SpeedProbe
from benchmarks.layers.stream import QUERY_SEED, Stream

#: estimates timed after each service pass (end-to-end), calls per
#: read probe of a traced run, and both at smoke-test scale
ESTIMATE_CALLS = 300
READ_CALLS = 100
TINY_CALLS = 20

#: recoveries timed per pass
RECOVERS = 2

Interval = Tuple[int, int]      # perf_counter_ns at start and at end


@dataclasses.dataclass
class Rung:
    """One replay of the stream through one layer.

    ``marks`` are the one-off intervals timed around calls into the
    layer (``setup``, ``checkpoint``, ``recover``, ...); ``calls`` are
    the per-call intervals of each closed loop (``apply_batch``,
    ``estimate``, the read probes).  Both are raw clock instants — a
    traced run turns them into spans — and :meth:`seconds` /
    :meth:`call_ms` read them through the rung's speed probe.
    """

    name: str
    ops: int = 0
    marks: List[Tuple[str, int, int]] = dataclasses.field(
        default_factory=list)
    calls: Dict[str, List[Interval]] = dataclasses.field(
        default_factory=dict)
    probe: SpeedProbe = dataclasses.field(default_factory=SpeedProbe)
    mismatches: int = 0
    #: what the gate compares, keyed by who holds it: the rung's own
    #: stack (``"live"``), the ``"recovered"`` manager, the ``"follower"``
    states: dict = dataclasses.field(default_factory=dict)
    estimate_failures: int = 0
    extra: dict = dataclasses.field(default_factory=dict)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time a one-off block, with speed probes on either side."""
        t0 = self.probe.sample(MARGIN)
        try:
            yield
        finally:
            self.marks.append((name, t0, time.perf_counter_ns()))
            self.probe.sample(MARGIN)

    def drive(self, label: str, thunks: Iterable[Callable[[], object]]
              ) -> list:
        """Closed loop: call a thunk, wait for its result, call the next.

        Each call's interval is kept under ``label``; between calls, at
        most every ``PROBE_EVERY_NS``, the speed probe runs.
        """
        clock = time.perf_counter_ns
        intervals = self.calls.setdefault(label, [])
        results = []
        probe = self.probe
        probed = probe.sample(MARGIN)
        for thunk in thunks:
            t0 = clock()
            if t0 - probed >= PROBE_EVERY_NS:
                probed = t0 = probe.sample()
            results.append(thunk())
            intervals.append((t0, clock()))
        probe.sample(MARGIN)
        return results

    def each_seconds(self, name: str) -> List[float]:
        """Speed-normalised duration of every mark called ``name``."""
        return [(end - start) / 1e9 * self.probe.factor(start, end)
                for mark, start, end in self.marks if mark == name]

    def seconds(self, name: str) -> float:
        """Their total."""
        return sum(self.each_seconds(name))

    def call_ms(self, label: str = "apply_batch") -> List[float]:
        """Speed-normalised per-call durations of one loop, in ms."""
        return [(end - start) / 1e6 * self.probe.factor(start, end)
                for start, end in self.calls.get(label, ())]

    def elapsed_s(self) -> float:
        """Speed-normalised time inside the front-door calls."""
        return sum(self.call_ms()) / 1e3

    def ops_s(self) -> float:
        return self.ops / self.elapsed_s()

    def raw_ops_s(self) -> float:
        """Throughput on the raw clock (a sample printed beside the
        normalised metric, not a metric)."""
        return self.ops * 1e9 / sum(
            end - start for start, end in self.calls["apply_batch"])


def _config(stream: Stream, obs=None) -> MaintainerConfig:
    # a tiny stream keeps its J/m ratio: m shrinks with the data
    size = stream.spec.synopsis // (10 if stream.tiny else 1)
    return MaintainerConfig(
        engine="sjoin-opt", seed=QUERY_SEED, obs=obs,
        spec=SynopsisSpec.fixed_size(size))


def replay(rung: Rung, apply: Callable, batches: Sequence[list],
           expected: Sequence[Optional[int]],
           midpoint: Optional[Callable[[], object]] = None) -> None:
    """Drive the batches through ``apply``; with ``midpoint``, call it
    between the two halves under the ``checkpoint`` mark.  Returned
    TIDs are compared with the predicted ones after the clock stops.
    """
    def thunks(part):
        return (lambda batch=batch: apply(batch) for batch in part)

    gc.collect()
    if midpoint is None:
        results = rung.drive("apply_batch", thunks(batches))
    else:
        half = len(batches) // 2
        results = rung.drive("apply_batch", thunks(batches[:half]))
        with rung.timed("checkpoint"):
            midpoint()
        results += rung.drive("apply_batch", thunks(batches[half:]))
    rung.ops = sum(len(batch) for batch in batches)
    returned = [tid for result in results for tid in result.tids]
    rung.mismatches = (sum(a != b for a, b in zip(returned, expected))
                       + abs(len(returned) - len(expected)))


# ----------------------------------------------------------------------
# engine and manager rungs
# ----------------------------------------------------------------------
def engine_rung(stream: Stream, obs=None,
                ops: Optional[list] = None) -> Rung:
    """Bare ``JoinSynopsisMaintainer.apply_batch`` (the §7.1 number).

    ``ops`` replays a prefix of the stream instead of all of it (the
    HTTP stage's reference for exactly the acknowledged ops).
    """
    rung = Rung("engine")
    with rung.timed("setup"):
        maintainer = JoinSynopsisMaintainer(
            stream.fresh_db(), stream.sql, _config(stream, obs))
        maintainer.apply_batch(stream.by_alias(stream.preload))
    ops = stream.ops if ops is None else ops
    replay(rung, maintainer.apply_batch,
           stream.batches(stream.by_alias(ops)),
           stream.expected_tids[:len(ops)])
    rung.states["live"] = (maintainer.synopsis(), maintainer.total_results())
    if obs is not None:
        rung.extra["metrics"] = dict(maintainer.stats().metrics)
    return rung


def build_manager(stream: Stream, obs=None, warm: int = 0) -> SynopsisManager:
    """A manager over a fresh database: query registered, preload (and
    the first ``warm`` stream ops) applied."""
    manager = SynopsisManager(stream.fresh_db(), MaintainerConfig(obs=obs))
    manager.register(stream.spec.query, stream.sql, _config(stream))
    manager.apply_batch(stream.preload + stream.ops[:warm])
    return manager


def manager_rung(stream: Stream, obs=None) -> Rung:
    """``SynopsisManager.apply_batch``: heap store + fan-out to one query."""
    rung = Rung("manager")
    with rung.timed("setup"):
        manager = build_manager(stream, obs)
    replay(rung, manager.apply_batch, stream.batches(),
           stream.expected_tids)
    name = stream.spec.query
    rung.states["live"] = (manager.synopsis(name),
                           manager.total_results(name))
    return rung


# ----------------------------------------------------------------------
# persist rung: WAL + checkpoint + recovery (+ ship and follower)
# ----------------------------------------------------------------------
def _recover(rung: Rung, stream: Stream, directory: str) -> None:
    """``recover`` after ``abandon()``; the recovered state joins the gate.

    One opaque call of a second or so cannot be probed from inside, so
    it is made ``RECOVERS`` times per pass: closing a recovered manager
    leaves the directory as the crash left it (same snapshot, same WAL
    tail), and callers report the median over all of them.
    """
    name = stream.spec.query
    for _ in range(RECOVERS):
        gc.collect()
        with rung.timed("recover"):
            recovered = PersistentManager.recover(directory, sync="batch")
        rung.states["recovered"] = (recovered.synopsis(name),
                                    recovered.total_results(name))
        rung.extra["replayed_ops"] = recovered.replayed_ops
        recovered.close()
        del recovered       # two live managers would inflate peak RSS


def persist_rung(stream: Stream, directory: str, sync: str, obs=None,
                 checkpoint: bool = False, replicate: bool = False) -> Rung:
    """``PersistentManager.apply_batch`` under one sync policy.

    With ``checkpoint`` one snapshot is taken at 50% and the rung ends
    with abandon + recover (snapshot → live manager timed on its own
    first).  With ``replicate`` a follower bootstraps from the initial
    snapshot, the finished log is shipped in one round and replayed by
    one ``catch_up``.
    """
    rung = Rung(f"persist.{sync}")
    with rung.timed("setup"):
        persistent = PersistentManager(build_manager(stream, obs),
                                       directory, sync=sync, obs=obs)
    name = stream.spec.query
    ship_dir = directory + ".ship"
    follower = None
    try:
        if replicate:
            shipper = WalShipper(directory, ship_dir)
            shipper.ship_once()
            with rung.timed("follower_bootstrap"):
                follower = FollowerService(ship_dir)
        replay(rung, persistent.apply_batch, stream.batches(),
               stream.expected_tids,
               midpoint=persistent.checkpoint if checkpoint else None)
        rung.states["live"] = (persistent.synopsis(name),
                               persistent.total_results(name))
        rung.extra["persist"] = persistent.persist_metrics()
        if replicate:
            shipped = shipper.bytes_shipped
            with rung.timed("ship"):
                manifest = shipper.ship_once()
            rung.extra["ship_bytes"] = shipper.bytes_shipped - shipped
            with rung.timed("follower_apply"):
                follower.catch_up()
            view = follower.view()
            rung.states["follower"] = (list(view.synopses[name]),
                                       view.total_results[name])
            rung.extra["follower_ops"] = follower.replayed_ops
            rung.extra["follower_epoch"] = follower.epoch
            rung.extra["acked_lsn"] = manifest["acked_lsn"]
    finally:
        if follower is not None:
            follower.close()
        persistent.abandon()
        shutil.rmtree(ship_dir, ignore_errors=True)
    if checkpoint:
        store = SnapshotStore(os.path.join(directory, SNAPSHOT_SUBDIR))
        rung.extra["snapshot_bytes"] = os.path.getsize(store.newest().path)
        with rung.timed("snapshot_load"):
            payload, _ = store.load_latest()
            restore_manager(restore_database(payload["database"]),
                            payload["manager"])
        del payload
        _recover(rung, stream, directory)
    return rung


# ----------------------------------------------------------------------
# service rung: queue hand-off + ReadView publish over the durable stack
# ----------------------------------------------------------------------
def estimate_ok(payload: dict) -> bool:
    """A filtered COUNT answer is a finite value inside [0, J] with a CI."""
    value = payload.get("value")
    total = payload.get("total_results")
    return (isinstance(value, float) and isinstance(total, int)
            and 0.0 <= value <= total and payload.get("ci") is not None)


def service_rung(stream: Stream, directory: str, obs=None,
                 name: str = "service", estimates: bool = True,
                 reads: bool = False, recover: bool = True) -> Rung:
    """``SynopsisService.apply_batch(wait=True)`` over
    ``PersistentManager(sync="batch")`` — the outermost in-process
    durable front door, one checkpoint taken at 50% of the stream —
    then three optional phases: the end-to-end ``estimates`` in process,
    the traced run's ``reads`` probes, and abandon + ``recover``.
    """
    spec = stream.spec
    rung = Rung(name)
    with rung.timed("setup"):
        persistent = PersistentManager(build_manager(stream, obs),
                                       directory, sync="batch", obs=obs)
        service = SynopsisService(persistent, ServiceConfig(obs=obs))
    try:
        replay(rung, service.apply_batch, stream.batches(),
               stream.expected_tids, midpoint=service.checkpoint)
        view = service.view()
        total = view.total_results[spec.query]
        rung.states["live"] = (list(view.synopses[spec.query]), total)
        query = QueryRegistry(service).get(spec.query)
        where = list(spec.where)

        def filtered_count():
            return query.estimate("count", where=where)

        if estimates:
            gc.collect()
            calls = TINY_CALLS if stream.tiny else ESTIMATE_CALLS
            answers = rung.drive("estimate", [filtered_count] * calls)
            rung.estimate_failures = sum(
                not (estimate_ok(answer)
                     and answer["total_results"] == total)
                for answer in answers)
        if reads:
            column, group_by = spec.groupby
            calls = TINY_CALLS if stream.tiny else READ_CALLS
            for label, read in (
                ("aqp.count", lambda: query.estimate("count")),
                ("aqp.filter", filtered_count),
                ("aqp.groupby", lambda: query.estimate(
                    "sum", column=column, group_by=group_by)),
                ("service.view_fetch", service.view),
                ("service.synopsis_payload",
                 lambda: service.synopsis_payload(spec.query)),
            ):
                rung.drive(label, [read] * calls)
        if obs is not None:
            rung.extra["metrics"] = service.metrics_snapshot()
    finally:
        service.close()
        persistent.abandon()
    if recover:
        _recover(rung, stream, directory)
    return rung
