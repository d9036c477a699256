"""An open run of insertions: the engine surface every caller that
holds many tuples feeds (``maintainer.apply_batch``, the manager's
fan-out and backfill, and — as runs of one — ``engine.insert`` /
``engine.notify_insert``).

The contract is failure parity with per-op application.  Everything
about an entry that can refuse it — an unknown alias, the schema check,
the pre-filter, the heap insert, a member hash's duplicate key, an
anchor's FK lookup, a tuple weight — happens when the entry is handed
over, in that order and in op order; what an engine
defers is work that cannot fail, and leaving the ``with`` block performs
it, also on the way out of an exception.  So a run that fails at entry
``k`` leaves heap, engine state, synopsis and RNG where applying its
entries one ``apply_batch`` at a time leaves them, and raises the same
error.

A run is cut into *segments*; each is one stage of the timing channel
(:meth:`~repro.obs.metrics.MetricsRegistry.report`): one
``engine.insert_ns`` observation with ``batch`` = entries registered in
it, its phases summed in ``phases`` by whoever does the timed work.
Which entries share a segment is the engine's business
(:meth:`InsertRun._register`).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.errors import QueryError
from repro.obs import names as metric_names


class RouteTable(dict):
    """Everything an entry needs that depends only on the plan, resolved
    once per engine: ``alias -> (heap table, route kind, node idx,
    combined runtime, passes, weigh)`` — ``runtime`` the alias's
    :class:`~repro.core.fk_runtime.CombinedNodeRuntime` if any,
    ``passes`` its compiled pre-filter (None when nothing can reject a
    row), ``weigh`` the graph's tuple-weight check if any.  The one
    place an unknown alias becomes a typed error, before anything is
    stored."""

    __slots__ = ()

    def __init__(self, engine, runtimes: Mapping[int, object],
                 weigh: Optional[Callable]):
        query, db = engine.query, engine.db
        super().__init__(
            (alias, (db.table(query.range_table(alias).table_name),
                     route.kind, route.node_idx,
                     runtimes.get(route.node_idx),
                     route.passes if route.prefilter else None, weigh))
            for alias, route in engine.plan.routes.items())

    def __missing__(self, alias: str):
        raise QueryError(f"unknown alias {alias}")


class InsertRun:
    """Base of both engines' runs: the two ways an entry arrives and the
    segment bookkeeping.  Subclasses place an entry (:meth:`_register`,
    which opens segments through :meth:`_cut` and counts the entry in
    ``size`` *before* anything can refuse it) and perform whatever they
    deferred when a segment ends (:meth:`_flush`)."""

    __slots__ = ("engine", "alias", "size", "clock", "started", "phases",
                 "_routes")

    def __init__(self, engine):
        self.engine = engine
        self.alias: Optional[str] = None    # the open segment's target
        self.size = 0
        # None while nobody listens: no clock reads, no phases
        self.clock = engine._phase_clock
        self.started = 0
        # the open segment's phases, histogram name -> ns
        self.phases: Optional[Dict[str, int]] = None
        self._routes: RouteTable = engine._routes

    def __enter__(self) -> "InsertRun":
        return self

    def insert(self, alias: str, row: Sequence[object]) -> int:
        """Store ``row`` in range table ``alias`` and register it;
        returns its TID, -1 when a pre-filter rejected the row (it never
        enters the range table, §5.1)."""
        row = tuple(row)
        record = self._routes[alias]
        table, passes = record[0], record[4]
        if passes is not None:
            # a hostile row must meet the schema before a filter reads it
            table.schema.validate_row(row)
            if not passes(row):
                self.engine.stats.filtered_inserts += 1
                return -1
        tid = table.insert(row)
        self._register(record, alias, tid, row)
        return tid

    def notify(self, alias: str, tid: int, row: Sequence[object]) -> bool:
        """Register a tuple somebody else stored (the
        :class:`~repro.core.manager.SynopsisManager` owns the heap);
        False when a pre-filter rejected the row."""
        row = tuple(row)
        record = self._routes[alias]
        passes = record[4]
        if passes is not None and not passes(row):
            self.engine.stats.filtered_inserts += 1
            return False
        self._register(record, alias, tid, row)
        return True

    def _register(self, record: tuple, alias: str, tid: int,
                  row: tuple) -> None:
        """Place one entry; ``record`` is its :class:`RouteTable` row."""
        raise NotImplementedError

    def _flush(self) -> None:
        """Perform the open segment's deferred work (must not fail)."""

    def _cut(self, alias: str) -> None:
        """End the open segment, if any, and open one on ``alias``."""
        if self.alias is not None:
            self._close()
        self.alias = alias
        clock = self.clock
        if clock is not None:
            self.phases = {}
            self.started = clock()

    def _close(self) -> None:
        engine = self.engine
        # counted when handed over, refused or not — as per op
        engine.stats.inserts += self.size
        try:
            self._flush()
        finally:
            clock = self.clock
            if clock is not None:
                engine.obs.report(
                    metric_names.INSERT_NS, clock() - self.started,
                    self.phases, target=self.alias, batch=self.size)
            self.alias = None
            self.size = 0

    def __exit__(self, *exc_info) -> None:
        if self.alias is not None:
            self._close()
