"""The concurrent serving layer: single-writer ingest, lock-free reads.

The paper's setting (§2, Fig. 1) is a data warehouse that answers
approximate queries *while* a high-rate update stream is applied.  The
library facades are single-threaded; :class:`SynopsisService` makes a
:class:`~repro.core.manager.SynopsisTarget` — a manager, or a manager
behind its persistent wrapper — servable:

* **Single-writer ingest loop** — writers enqueue
  :class:`~repro.core.stats_api.InsertOp`/``DeleteOp`` batches into a
  bounded queue; one daemon thread drains it in micro-batches, coalescing
  consecutive submissions into a single ``apply_batch`` call (so the
  engine propagates deltas once per coalesced run and, for a persistent
  target, the WAL group-commits once per micro-batch).
* **Multi-reader snapshot views** — after every micro-batch the ingest
  thread builds an immutable, epoch-stamped :class:`ReadView` (synopsis
  copy + typed stats) and publishes it by swapping a single reference.
  Readers only ever dereference the published view, so they never block
  the writer and never observe a half-applied batch.
* **Backpressure** — the queue is bounded in *ops*;
  :class:`ServiceConfig.overflow_policy` picks between blocking the
  writer until space frees up and rejecting immediately with
  :class:`~repro.errors.ServiceOverloadedError`.
* **Graceful shutdown** — :meth:`SynopsisService.close` drains the queue
  (or discards it), stops the ingest thread, and makes every further
  write raise :class:`~repro.errors.ServiceClosedError`.  Reads keep
  answering from the last published view.

The published view is protected by the simplest correct scheme in
CPython: views are immutable and publication is one attribute store
(atomic under the interpreter lock), i.e. the degenerate seqlock whose
read side is a single reference load.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from types import MappingProxyType
from typing import (
    Callable,
    Deque,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.manager import SynopsisTarget
from repro.core.stats_api import (
    BatchResult,
    DeleteOp,
    InsertOp,
    ManagerStats,
    UpdateOp,
)
from repro.errors import (
    InvalidArgumentError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs import names as metric_names
from repro.obs.events import as_event_log
from repro.obs.expo import render_exposition
from repro.obs.metrics import as_registry
from repro.obs.quality import monitor_for

#: accepted :class:`ServiceConfig.overflow_policy` values
OVERFLOW_POLICIES = ("block", "reject")


@dataclasses.dataclass(frozen=True, init=False)
class ServiceConfig:
    """Frozen, keyword-only tuning knobs for a :class:`SynopsisService`.

    Fields
    ------
    max_queue_ops:
        Bound on the number of enqueued-but-unapplied ops; the
        backpressure threshold.  A single submission larger than the
        bound is still admitted when the queue is empty (otherwise it
        could never run).
    max_batch_ops:
        Coalescing cap: the ingest loop drains whole submissions until
        the micro-batch reaches this many ops.
    overflow_policy:
        ``"block"`` (wait for queue space, up to ``block_timeout``) or
        ``"reject"`` (raise
        :class:`~repro.errors.ServiceOverloadedError` immediately).
    block_timeout:
        Seconds a blocked writer waits before
        :class:`~repro.errors.ServiceOverloadedError`; ``None`` waits
        forever.
    drain_timeout:
        Seconds :meth:`SynopsisService.close` waits for the ingest
        thread to drain the queue before giving up.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry` receiving the
        ``service.*`` catalogue of :mod:`repro.obs.names`; every
        micro-batch is one reported stage (``service.ingest_batch_ns``
        up to the publish, ``service.publish_ns`` for it).
    events:
        Optional :class:`~repro.obs.EventLog`, served by ``GET
        /events`` and ``repro events``: the quality monitor's flag
        transitions land here and the serving layer's AQP registry
        inherits it for audit anomalies.  Build ``obs`` over the same
        log (``MetricsRegistry(events=log, slow_op_threshold_ns=...)``)
        to see slow stages in it too.
    quality:
        Enables the online sample-quality monitor over the sole
        registered query's engine
        (:func:`~repro.obs.quality.monitor_for`): a
        :class:`~repro.obs.quality.QualityConfig`, or ``True`` for the
        default config.  ``None``/``False`` (default) disables it.
    """

    max_queue_ops: int = 4096
    max_batch_ops: int = 256
    overflow_policy: str = "block"
    block_timeout: Optional[float] = None
    drain_timeout: float = 30.0
    obs: Optional[object] = None
    events: Optional[object] = None
    quality: Optional[object] = None

    def __init__(self, *, max_queue_ops: int = 4096,
                 max_batch_ops: int = 256,
                 overflow_policy: str = "block",
                 block_timeout: Optional[float] = None,
                 drain_timeout: float = 30.0,
                 obs: Optional[object] = None,
                 events: Optional[object] = None,
                 quality: Optional[object] = None):
        # hand-written so the fields are keyword-only on every supported
        # interpreter (dataclass kw_only= needs 3.10; we support 3.9)
        if overflow_policy not in OVERFLOW_POLICIES:
            raise InvalidArgumentError(
                f"unknown overflow_policy {overflow_policy!r}; pick one "
                f"of {OVERFLOW_POLICIES}"
            )
        if max_queue_ops < 1:
            raise InvalidArgumentError("max_queue_ops must be positive")
        if max_batch_ops < 1:
            raise InvalidArgumentError("max_batch_ops must be positive")
        object.__setattr__(self, "max_queue_ops", max_queue_ops)
        object.__setattr__(self, "max_batch_ops", max_batch_ops)
        object.__setattr__(self, "overflow_policy", overflow_policy)
        object.__setattr__(self, "block_timeout", block_timeout)
        object.__setattr__(self, "drain_timeout", drain_timeout)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "quality", quality)


@dataclasses.dataclass(frozen=True)
class ReadView:
    """One immutable, epoch-stamped snapshot served to readers.

    ``synopses``/``total_results``/``families``/``sample_meta``/
    ``sample_rows`` are keyed by registered query name.  ``stats`` is
    the target's typed :class:`~repro.core.stats_api.ManagerStats`
    taken at the same point, so every field of a view is mutually
    consistent: a view is built only *between* micro-batches.
    """

    epoch: int
    synopses: Mapping[str, Tuple[Tuple[int, ...], ...]]
    total_results: Mapping[str, int]
    stats: ManagerStats
    published_ns: int
    #: synopsis family per query (``"uniform"``/``"weighted"``/
    #: ``"subset"``)
    families: Mapping[str, str]
    #: per-sample read-only metadata mappings, aligned index-for-index
    #: with ``synopses`` (``weight``, and ``inclusion_probability`` on
    #: subset synopses); shared between consecutive views
    sample_meta: Mapping[str, Tuple[Mapping, ...]]
    #: per sample, the heap row tuples its TIDs name, aligned with
    #: ``synopses`` and shared between consecutive views like it: rows
    #: are immutable and TIDs never reused, so these are references to
    #: the tables' own tuples and stay valid after the rows are deleted.
    #: What an estimate reads — a view answers without the database
    sample_rows: Mapping[str, Tuple[Tuple[tuple, ...], ...]]

    def __post_init__(self):
        for field in ("synopses", "total_results", "families",
                      "sample_meta", "sample_rows"):
            object.__setattr__(
                self, field, MappingProxyType(dict(getattr(self, field))))

    # ------------------------------------------------------------------
    # name resolution: the one rule for unnamed reads
    # ------------------------------------------------------------------
    def sole_name(self) -> Optional[str]:
        """The registered query's name when the view holds exactly
        one, else ``None``: what "the" query means on a read."""
        if len(self.synopses) == 1:
            return next(iter(self.synopses))
        return None

    def resolve(self, name: Optional[str]) -> str:
        """``name`` checked against the view; ``None`` resolves to the
        sole registered query.  Anything else is a typed
        :class:`~repro.errors.ServiceError` listing the known names."""
        if name is None:
            name = self.sole_name()
        if name is None or name not in self.synopses:
            asked = ("an unnamed read needs exactly one registered query"
                     if name is None else f"no query {name!r}")
            raise ServiceError(
                f"{asked} in the published view (epoch {self.epoch}); "
                f"known: {sorted(self.synopses)}"
            )
        return name

    # ------------------------------------------------------------------
    # reads (shared by the leader service and follower replicas)
    # ------------------------------------------------------------------
    def synopsis(self, name: Optional[str] = None,
                 limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        if limit is not None and limit < 0:
            raise InvalidArgumentError(
                f"limit must be >= 0, got {limit}")
        results = self.synopses[self.resolve(name)]
        if limit is not None and len(results) > limit:
            results = results[:limit]
        return list(results)

    def payload(self, name: Optional[str] = None,
                limit: Optional[int] = None) -> dict:
        """The full ``/synopsis`` reply: epoch, total, and sample all
        from this one snapshot."""
        name = self.resolve(name)
        rows = self.synopsis(name, limit)
        return {
            "epoch": self.epoch,
            "name": name,
            "total_results": self.total_results[name],
            "family": self.families[name],
            # views share rows and metas with their successors: the
            # reply gets its own mutable copies
            "synopsis": [list(row) for row in rows],
            "meta": [dict(m) for m in self.sample_meta[name][:len(rows)]],
        }

    def metrics(self) -> dict:
        """The target's metrics captured with this view — what an
        unnamed ``GET /metrics`` scrape means: the manager's registry
        snapshot plus the sole query's engine counters and registry
        (several queries: theirs stay under ``stats.queries``)."""
        merged = dict(self.stats.metrics)
        name = self.sole_name()
        if name is not None:
            merged.update(self.stats.queries[name].metrics)
        return merged

    def family_summary(self):
        """One family string when every query agrees (the common case),
        else the per-query mapping."""
        distinct = set(self.families.values())
        if not distinct:
            return "uniform"
        if len(distinct) == 1:
            return distinct.pop()
        return dict(self.families)


def build_view(target: SynopsisTarget, epoch: int) -> ReadView:
    """Capture one :class:`ReadView` of ``target`` — the only view
    builder: the service's ingest thread and follower replicas both
    publish through it, so their views cannot drift.

    The per-query row, meta and heap-row tuples are the ones the
    engine's entry store holds (:mod:`repro.core.entries`): building a
    view costs the samples that changed since the previous one, and a
    query whose synopsis did not change shares its tuples with the
    previous view.
    """
    synopses: dict = {}
    totals: dict = {}
    families: dict = {}
    sample_meta: dict = {}
    sample_rows: dict = {}
    for name in target.names():
        entries = target.synopsis_entries(name)
        synopses[name] = entries.rows
        sample_meta[name] = entries.metas
        sample_rows[name] = entries.resolved
        totals[name] = target.total_results(name)
        families[name] = target.family_of(name)
    return ReadView(
        epoch=epoch,
        synopses=synopses,
        total_results=totals,
        stats=target.stats(),
        published_ns=time.perf_counter_ns(),
        families=families,
        sample_meta=sample_meta,
        sample_rows=sample_rows,
    )


class _Submission:
    """One enqueued unit: an op batch, or a control callable."""

    __slots__ = ("ops", "fn", "wait", "done", "result", "error")

    def __init__(self, ops: Optional[List[UpdateOp]],
                 fn: Optional[Callable[[], object]], wait: bool):
        self.ops = ops
        self.fn = fn
        self.wait = wait
        self.done = threading.Event() if wait else None
        self.result: object = None
        self.error: Optional[BaseException] = None

    @property
    def op_count(self) -> int:
        return len(self.ops) if self.ops is not None else 1


class SynopsisService:
    """Thread-safe serving facade over a manager.

    Usage::

        from repro import SynopsisManager, SynopsisService

        manager = SynopsisManager(db)
        manager.register("q1", sql, MaintainerConfig(...))
        with SynopsisService(manager) as service:
            service.insert("r", (1, 10))        # enqueued + applied
            service.synopsis("q1")              # lock-free snapshot read
            service.stats()                     # typed, epoch-consistent

    The wrapped ``target`` is a
    :class:`~repro.core.manager.SynopsisTarget`: a
    :class:`~repro.core.manager.SynopsisManager` or its
    :class:`~repro.persist.PersistentManager` wrapper; after
    construction *only the ingest thread touches it* — callers must not
    mutate the target directly.  Writes address base tables, reads
    address a registration name; a read without a name means the sole
    registered query (:meth:`ReadView.resolve`).
    """

    def __init__(self, target: SynopsisTarget,
                 config: Optional[ServiceConfig] = None):
        self.target = target
        self.config = config if config is not None else ServiceConfig()
        self.obs = as_registry(self.config.obs)
        self.events = as_event_log(self.config.events)
        #: the sample-quality monitor (``None``: off, or no sole query);
        #: only the ingest thread advances it
        self.quality = self._pick_quality()
        self._started_monotonic = time.monotonic()
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._not_full = threading.Condition(self._mutex)
        self._queue: Deque[_Submission] = deque()
        self._queued_ops = 0
        self._closing = False
        self._closed = False
        self._failed = False
        self._fatal_error: Optional[BaseException] = None
        self._drain_timed_out = False
        self._epoch = 0
        self._applied_ops = 0
        self._applied_batches = 0
        self._ingest_errors = 0
        self._last_error: Optional[BaseException] = None
        self._view = build_view(target, epoch=0)
        # seed the serving gauges so /metrics covers them before the
        # first write publishes (scrapes can land on a fresh service)
        if self.obs.enabled:
            self.obs.gauge(metric_names.SERVICE_EPOCH).set(0)
            self.obs.gauge(metric_names.SERVICE_QUEUE_DEPTH).set(0)
        self._thread = threading.Thread(
            target=self._ingest_loop, name="repro-service-ingest",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # writes (any thread)
    # ------------------------------------------------------------------
    def apply_batch(self, ops: Iterable[UpdateOp], *,
                    wait: bool = True) -> Optional[BatchResult]:
        """Enqueue a micro-batch of ops as one atomic unit.

        The batch is applied in submission order by the single ingest
        thread and becomes visible to readers in one epoch — no view
        ever exposes a strict prefix of it.  With ``wait=True`` (the
        default) the call blocks until the batch is applied *and* the
        covering view is published, then returns its
        :class:`~repro.core.stats_api.BatchResult` (read-your-writes);
        errors raised by the batch re-raise here.  With ``wait=False``
        it returns ``None`` right after enqueueing; failures are only
        counted in :meth:`service_metrics`.
        """
        ops = list(ops)
        if not ops:
            return BatchResult(ops, []) if wait else None
        submission = _Submission(ops, None, wait)
        self._enqueue(submission)
        if not wait:
            return None
        submission.done.wait()
        if submission.error is not None:
            raise submission.error
        return submission.result

    def insert(self, target_name: str, row: Sequence[object]) -> int:
        """Enqueue one insert; blocks until applied, returns the TID."""
        return self.apply_batch(
            [InsertOp(target_name, tuple(row))]).tids[0]

    def delete(self, target_name: str, tid: int) -> None:
        """Enqueue one delete; blocks until applied."""
        self.apply_batch([DeleteOp(target_name, tid)])

    def checkpoint(self) -> str:
        """Checkpoint a persistent target *between* micro-batches.

        The call is serialized through the ingest queue, so the snapshot
        never observes a half-applied batch and serving continues from
        the published views while it is written.  Raises
        :class:`~repro.errors.ServiceError` for non-durable targets.
        """
        checkpoint = getattr(self.target, "checkpoint", None)
        if checkpoint is None:
            raise ServiceError(
                "target has no checkpoint(); wrap it in a "
                "PersistentManager first"
            )
        return self._submit_control(checkpoint)

    def register(self, name: str, query, config=None):
        """Register a query (serialized through the ingest queue like
        any other state change)."""
        def control():
            maintainer = self.target.register(name, query, config)
            self.quality = self._pick_quality()   # the set changed
            return maintainer

        return self._submit_control(control)

    def _pick_quality(self):
        return monitor_for(self.target, self.config.quality,
                           obs=self.obs, events=self.events)

    def _submit_control(self, fn: Callable[[], object]) -> object:
        submission = _Submission(None, fn, wait=True)
        self._enqueue(submission)
        submission.done.wait()
        if submission.error is not None:
            raise submission.error
        return submission.result

    def _enqueue(self, submission: _Submission) -> None:
        config = self.config
        deadline = (
            time.monotonic() + config.block_timeout
            if config.block_timeout is not None else None
        )
        with self._mutex:
            self._raise_if_unwritable()
            while (self._queued_ops > 0 and
                   self._queued_ops + submission.op_count
                   > config.max_queue_ops):
                if config.overflow_policy == "reject":
                    self._count_rejected(submission.op_count)
                    raise ServiceOverloadedError(
                        f"ingest queue is full "
                        f"({self._queued_ops} ops >= "
                        f"{config.max_queue_ops}); retry later"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._count_rejected(submission.op_count)
                        raise ServiceOverloadedError(
                            f"timed out after {config.block_timeout}s "
                            "waiting for ingest queue space"
                        )
                self._not_full.wait(timeout=remaining)
                self._raise_if_unwritable()
            self._queue.append(submission)
            self._queued_ops += submission.op_count
            if self.obs.enabled:
                self.obs.gauge(metric_names.SERVICE_QUEUE_DEPTH).set(
                    self._queued_ops)
            self._not_empty.notify()

    def _raise_if_unwritable(self) -> None:
        """Holding the mutex: reject writes to a closed/failed service."""
        if self._failed:
            raise ServiceError(
                "ingest loop died on an unrecoverable error: "
                f"{self._fatal_error!r}"
            )
        if self._closing:
            raise ServiceClosedError("service is closed")

    def _count_rejected(self, nops: int) -> None:
        if self.obs.enabled:
            self.obs.counter(metric_names.SERVICE_OPS_REJECTED).inc(nops)

    # ------------------------------------------------------------------
    # reads (any thread; never touch the target, never block ingest)
    # ------------------------------------------------------------------
    def view(self) -> ReadView:
        """The latest published :class:`ReadView` (one reference load)."""
        return self._view

    def synopsis(self, name: Optional[str] = None,
                 limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """The published synopsis — a snapshot, not a live engine read.

        ``name`` addresses a registered query; ``None`` means the sole
        registered one (:meth:`ReadView.resolve`).
        """
        if self.obs.enabled:
            with self.obs.timer(metric_names.SERVICE_READ_NS):
                return self._view.synopsis(name, limit)
        return self._view.synopsis(name, limit)

    def total_results(self, name: Optional[str] = None) -> int:
        """Exact J from the published view (epoch-consistent)."""
        view = self._view
        return view.total_results[view.resolve(name)]

    def synopsis_payload(self, name: Optional[str] = None,
                         limit: Optional[int] = None) -> dict:
        """The full ``/synopsis`` reply, built from ONE captured view.

        Epoch, total, and sample all come from the same snapshot, so the
        reply can never mix epoch N's total with epoch N+1's rows even
        if the ingest thread publishes between field reads.
        """
        return self._view.payload(name, limit)

    def stats(self):
        """The published view's typed stats snapshot."""
        return self._view.stats

    @property
    def epoch(self) -> int:
        """Epoch of the latest published view."""
        return self._view.epoch

    @property
    def queue_depth(self) -> int:
        """Enqueued-but-unapplied ops (the backpressure measure)."""
        return self._queued_ops

    @property
    def closed(self) -> bool:
        return self._closed

    def healthz(self) -> dict:
        """Liveness summary: status, epoch, queue depth, error count,
        uptime/version, staleness, sample quality.

        ``status`` is ``"ok"``, ``"failed"`` (the ingest thread died on
        an unrecoverable error and writes are rejected), ``"draining"``
        (close() gave up waiting but the ingest thread is still
        applying), or ``"closed"``.  ``staleness_seconds`` is the age of
        the published view; together with ``epoch_lag_ops`` it is the
        serving-side freshness signal.  When the service runs a
        :class:`~repro.obs.quality.QualityMonitor`
        (``ServiceConfig(quality=...)``, one registered query), its
        :meth:`status <repro.obs.quality.QualityMonitor.status>` dict
        appears under ``"quality"``.
        """
        from repro import __version__  # deferred: repro imports service

        view = self._view
        if self._failed:
            status = "failed"
        elif self._closing and self._thread.is_alive():
            status = "draining"
        elif self._closing:
            status = "closed"
        else:
            status = "ok"
        body = {
            "status": status,
            "epoch": view.epoch,
            "epoch_lag_ops": self._queued_ops,
            "queue_depth": self._queued_ops,
            "applied_ops": self._applied_ops,
            "applied_batches": self._applied_batches,
            "ingest_errors": self._ingest_errors,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "version": __version__,
            "staleness_seconds": self._staleness(view),
            "synopsis_family": view.family_summary(),
        }
        quality = self.quality
        if quality is not None:
            body["quality"] = quality.status()
        if self._failed:
            body["last_error"] = repr(self._fatal_error)
        return body

    @staticmethod
    def _staleness(view: ReadView) -> float:
        """Age of ``view`` in seconds."""
        return max(0.0, (time.perf_counter_ns() - view.published_ns) / 1e9)

    def service_metrics(self) -> dict:
        """Plain-dict serving counters (always available, obs or not)."""
        return {
            "epoch": self._view.epoch,
            "queue_depth": self._queued_ops,
            "applied_ops": self._applied_ops,
            "applied_batches": self._applied_batches,
            "ingest_errors": self._ingest_errors,
        }

    def metrics_snapshot(self) -> dict:
        """Every instrument visible to this service, as one flat dict.

        Merges the published view's :meth:`ReadView.metrics` (the
        target's registry snapshot plus engine work counters, captured
        between micro-batches) with the service's own registry snapshot;
        on name collisions the service registry — which is live, not
        captured — wins.  The read-time gauges (view staleness, quality
        monitor, event log) are set first, so a scrape is never stale
        by construction.  The result is what :meth:`exposition` renders.
        """
        view, obs = self._view, self.obs
        merged = view.metrics()
        if obs.enabled:
            obs.gauge(metric_names.QUALITY_STALENESS_SECONDS).set(
                self._staleness(view))
            if self.quality is not None:
                self.quality.publish(obs)
            self.events.publish(obs)
            merged.update(obs.snapshot())
        return merged

    def exposition(self) -> str:
        """The ``GET /metrics`` payload: Prometheus text format 0.0.4
        over :meth:`metrics_snapshot` (see :mod:`repro.obs.expo`)."""
        return render_exposition(self.metrics_snapshot())

    def events_payload(self, kind: Optional[str] = None) -> dict:
        """The ``GET /events`` body from this service's event log."""
        return self.events.payload(kind)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop ingest; with ``drain`` (default) apply the queue first.

        Idempotent.  After the call every write raises
        :class:`~repro.errors.ServiceClosedError`; reads keep serving
        the final published view.

        If the ingest thread is still applying when ``drain_timeout``
        elapses, the remaining queued submissions are failed (so no
        ``wait=True`` writer hangs), :meth:`healthz` reports
        ``"draining"`` until the thread actually exits, and the call
        returns without marking the service closed — a later ``close``
        retries the join.
        """
        with self._mutex:
            if self._closed:
                return
            self._closing = True
            if not drain:
                self._fail_queued_locked(ServiceClosedError(
                    "service closed before this batch was applied"
                ))
            self._not_empty.notify_all()
            self._not_full.notify_all()
        self._thread.join(timeout=self.config.drain_timeout)
        if self._thread.is_alive():
            # Drain timed out: the ingest thread is stuck applying a
            # batch.  Unblock every queued waiter and surface the
            # degraded state through healthz() instead of lying that
            # the service closed cleanly.
            with self._mutex:
                self._drain_timed_out = True
                self._fail_queued_locked(ServiceClosedError(
                    "drain timed out before this batch was applied"
                ))
            return
        self._closed = True

    def _fail_queued_locked(self, error: ReproError) -> None:
        """Holding the mutex: fail every queued submission with *error*."""
        while self._queue:
            submission = self._queue.popleft()
            submission.error = error
            if submission.done is not None:
                submission.done.set()
        self._queued_ops = 0

    def __enter__(self) -> "SynopsisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # the single-writer ingest loop (the only toucher of self.target)
    # ------------------------------------------------------------------
    def _ingest_loop(self) -> None:
        config = self.config
        while True:
            with self._mutex:
                while not self._queue and not self._closing:
                    self._not_empty.wait()
                if not self._queue and self._closing:
                    return
                batch = [self._queue.popleft()]
                if batch[0].fn is None:
                    # coalesce consecutive op submissions into one
                    # apply_batch() — deltas propagate and (for persistent
                    # targets) the WAL group-commits once per micro-batch
                    nops = batch[0].op_count
                    while (self._queue and self._queue[0].fn is None
                           and nops < config.max_batch_ops):
                        nops += self._queue[0].op_count
                        batch.append(self._queue.popleft())
                # every submission was counted by _enqueue — control
                # ones too (op_count 1), so they must be subtracted here
                # or queue_depth drifts up until admission blocks on an
                # empty queue
                self._queued_ops -= sum(s.op_count for s in batch)
                if self.obs.enabled:
                    self.obs.gauge(metric_names.SERVICE_QUEUE_DEPTH).set(
                        self._queued_ops)
                self._not_full.notify_all()
            try:
                self._process(batch)
            except BaseException as exc:
                # _process handles apply/control errors itself; an
                # escape means publishing the post-batch view failed
                # (target left unreadable).  Dying silently would hang
                # every wait=True submitter forever, so fail fast.
                self._fail_fatally(exc, batch)
                return

    def _process(self, batch: List[_Submission]) -> None:
        obs = self.obs
        started = obs.clock()
        if batch[0].fn is not None:
            submission = batch[0]
            try:
                submission.result = submission.fn()
            except BaseException as exc:  # control errors go to caller
                submission.error = exc
                self._record_failure(exc)
            self._publish()
            submission.done.set()
            return
        all_ops: List[UpdateOp] = []
        for submission in batch:
            all_ops.extend(submission.ops)
        try:
            result = self.target.apply_batch(all_ops)
        except BaseException as exc:
            # the batch may have partially applied before raising; the
            # per-submission contract is "no acknowledged op is lost",
            # so every waiter in the coalesced batch sees the failure
            self._record_failure(exc)
            self._publish()
            for submission in batch:
                submission.error = exc
                if submission.done is not None:
                    submission.done.set()
            return
        applied = obs.clock()
        self._applied_ops += len(all_ops)
        self._applied_batches += 1
        if obs.enabled:
            obs.counter(metric_names.SERVICE_OPS_APPLIED).inc(len(all_ops))
            obs.histogram(metric_names.SERVICE_BATCH_OPS).observe(
                len(all_ops))
        offset = 0
        for submission in batch:
            stop = offset + len(submission.ops)
            if submission.done is not None:   # someone waits to read it
                submission.result = result.slice(offset, stop)
            offset = stop
        # publish before acknowledging: a writer that regains control is
        # guaranteed to find its own write in the current view
        self._publish()
        published = obs.clock()
        if self.quality is not None:
            self.quality.note_ops(len(all_ops))   # probes as they come due
        # one stage, two phases: up to the publish, and the publish
        obs.report(
            metric_names.SERVICE_INGEST_BATCH_NS, obs.clock() - started,
            {metric_names.SERVICE_INGEST_BATCH_NS: applied - started,
             metric_names.SERVICE_PUBLISH_NS: published - applied},
            batch=len(all_ops))
        for submission in batch:
            if submission.done is not None:
                submission.done.set()

    def _fail_fatally(self, exc: BaseException,
                      batch: List[_Submission]) -> None:
        """Terminal ingest failure: unblock every waiter, reject writes.

        Readers keep serving the last good published view; healthz()
        flips to ``"failed"`` and every subsequent or queued write sees
        a :class:`~repro.errors.ServiceError` naming the cause.
        """
        self._record_failure(exc)
        for submission in batch:
            if submission.error is None:
                submission.error = exc
            if submission.done is not None:
                submission.done.set()
        with self._mutex:
            self._failed = True
            self._fatal_error = exc
            self._fail_queued_locked(ServiceError(
                f"ingest loop died before this batch was applied: {exc!r}"
            ))
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def _record_failure(self, exc: BaseException) -> None:
        self._ingest_errors += 1
        self._last_error = exc
        if self.obs.enabled:
            self.obs.counter(metric_names.SERVICE_INGEST_ERRORS).inc()

    def _publish(self) -> None:
        self._epoch += 1
        view = build_view(self.target, self._epoch)
        # immutable view + single reference store: the degenerate
        # seqlock — readers can never observe a torn or stale-epoch mix
        self._view = view
        if self.obs.enabled:
            self.obs.gauge(metric_names.SERVICE_EPOCH).set(view.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SynopsisService(queries={sorted(self._view.synopses)}, "
                f"epoch={self.epoch}, queue_depth={self.queue_depth}, "
                f"closed={self._closed})")
