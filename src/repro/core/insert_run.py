"""An open run of insertions: the engine surface every caller that
holds many tuples feeds (``maintainer.apply_batch``, the manager's
fan-out and backfill, and — as runs of one — ``engine.insert`` /
``engine.notify_insert``).

The contract is failure parity with per-op application.  Everything
about an entry that can refuse it — the pre-filter, the heap insert, a
member hash's duplicate key, an anchor's FK lookup, a tuple weight —
happens when the entry is handed over, in op order; what an engine
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

from typing import Dict, Optional, Sequence

from repro.catalog.table import Table
from repro.obs import names as metric_names


class InsertRun:
    """Base of both engines' runs: the two ways an entry arrives and the
    segment bookkeeping.  Subclasses place an entry (:meth:`_register`,
    which opens segments through :meth:`_cut` and counts the entry in
    ``size`` *before* anything can refuse it) and perform whatever they
    deferred when a segment ends (:meth:`_flush`)."""

    __slots__ = ("engine", "alias", "size", "clock", "started", "phases",
                 "_tables", "_filtered")

    def __init__(self, engine):
        self.engine = engine
        self.alias: Optional[str] = None    # the open segment's target
        self.size = 0
        # None while nobody listens: no clock reads, no phases
        self.clock = engine._phase_clock
        self.started = 0
        # the open segment's phases, histogram name -> ns
        self.phases: Optional[Dict[str, int]] = None
        self._tables: Dict[str, Table] = {}
        self._filtered = engine._filtered_aliases

    def __enter__(self) -> "InsertRun":
        return self

    def insert(self, alias: str, row: Sequence[object]) -> int:
        """Store ``row`` in range table ``alias`` and register it;
        returns its TID, -1 when a pre-filter rejected the row (it never
        enters the range table, §5.1)."""
        row = tuple(row)
        if alias in self._filtered and self._rejects(alias, row):
            return -1
        table = self._tables.get(alias)
        if table is None:
            engine = self.engine
            table = self._tables[alias] = engine.db.table(
                engine.query.range_table(alias).table_name)
        tid = table.insert(row)
        self._register(alias, tid, row)
        return tid

    def notify(self, alias: str, tid: int, row: Sequence[object]) -> bool:
        """Register a tuple somebody else stored (the
        :class:`~repro.core.manager.SynopsisManager` owns the heap);
        False when a pre-filter rejected the row."""
        row = tuple(row)
        if alias in self._filtered and self._rejects(alias, row):
            return False
        self._register(alias, tid, row)
        return True

    def _rejects(self, alias: str, row: tuple) -> bool:
        engine = self.engine
        if engine._passes_filters(alias, row):
            return False
        engine.stats.filtered_inserts += 1
        return True

    def _register(self, alias: str, tid: int, row: tuple) -> None:
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
