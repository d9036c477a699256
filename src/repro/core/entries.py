"""What readers see of a synopsis, kept per sample instead of re-derived.

A plan-level sample becomes a reader-visible *entry* by expansion to
original-range-table TIDs (§6 combined nodes embed their members'
TIDs), the residual multi-table filters of §5.1, its sampling metadata
(weight, subset inclusion probability) and the heap rows its TIDs name.
TIDs are never reused and heap rows never change, so an entry is a pure
function of its sample: :class:`EntryStore` computes it once, when the
sample enters the synopsis, and forgets it when the sample leaves.  A
read then costs the samples that changed since the previous read, not
the synopsis size — the same shape as the maintenance cost the paper
argues for — and an estimate over the entries never goes back to the
heap (:mod:`repro.aqp.estimation`).

The store mirrors the synopsis's positional storage
(:meth:`~repro.core.synopsis.SynopsisBase.slots`) and re-derives only
the positions the synopsis reports as written, so it never holds more
than one entry per slot.  It is derived state: nothing of it is
snapshotted, and a restored synopsis reports every position as changed.
A read may therefore write the store: like the engine that owns it, it
is single-threaded (the service's ingest thread, or the lock of
:class:`~repro.core.serialize.SerializedManager`).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Tuple

PlanResult = Tuple[int, ...]
Row = Tuple[int, ...]
#: the heap rows one entry's TIDs name, in range-table order
HeapRows = Tuple[Tuple[object, ...], ...]

#: the metadata of every uniform-family sample
UNIT_META: Mapping[str, object] = MappingProxyType({"weight": 1})


@dataclass(frozen=True)
class SynopsisEntries(SequenceABC):
    """An immutable sequence of ``(row, meta)`` pairs held as aligned
    columns, so a view builder takes ``rows`` and ``metas`` as they
    are.  Each ``meta`` is a read-only mapping; consecutive reads of an
    unchanged synopsis return the same object.

    ``resolved`` is a third aligned column: per entry, the heap row
    tuples its TIDs name — references to the rows the tables hold, not
    copies.  It is what an estimate reads instead of the tables."""

    __slots__ = ("rows", "metas", "resolved")

    rows: Tuple[Row, ...]
    metas: Tuple[Mapping[str, object], ...]
    resolved: Tuple[HeapRows, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows, self.metas)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SynopsisEntries(self.rows[index], self.metas[index],
                                   self.resolved[index])
        return self.rows[index], self.metas[index]


class EntryStore:
    """One engine's entries, aligned with its synopsis's slots.

    ``meta_of(plan_result)`` supplies a non-uniform family's read-only
    metadata mapping; without it every entry carries :data:`UNIT_META`.
    """

    def __init__(self, plan, query,
                 meta_of: Optional[Callable[[PlanResult], Mapping]] = None):
        self._plan = plan
        self._residuals = tuple(plan.demoted) + tuple(query.multi_filters)
        self._meta_of = meta_of
        self._tables = tuple(plan.db.table(rt.table_name)
                             for rt in query.range_tables)
        # per slot: the expanded row, its meta and its heap rows, or
        # None for an empty slot and for a sample a residual filter
        # rejects
        self._rows: List[Optional[Row]] = []
        self._metas: List[Optional[Mapping]] = []
        self._resolved: List[Optional[HeapRows]] = []
        self._holes = 0     # how many of them are None
        self._entries = SynopsisEntries((), (), ())

    def entries(self, synopsis) -> SynopsisEntries:
        """The synopsis's current entries, in ``samples()`` order."""
        changed = synopsis.changed_positions()
        if changed is not None and not changed:
            return self._entries
        slots = synopsis.slots()
        rows, metas, resolved = self._rows, self._metas, self._resolved
        columns = (rows, metas, resolved)
        size = len(slots)
        if changed is None:
            for column in columns:
                column.clear()
            self._holes = 0
            changed = range(size)
        else:
            self._holes -= rows[size:].count(None)
            for column in columns:
                del column[size:]
        grow = size - len(rows)
        for column in columns:
            column.extend([None] * grow)
        self._holes += grow
        for pos in changed:
            if pos < size:
                row, meta, heap_rows = self._entry(slots[pos])
                self._holes += (row is None) - (rows[pos] is None)
                rows[pos], metas[pos], resolved[pos] = row, meta, heap_rows
        if self._holes:
            self._entries = SynopsisEntries(*[
                tuple([value for value in column if value is not None])
                for column in columns])
        else:
            self._entries = SynopsisEntries(*map(tuple, columns))
        # only now: a failed expansion above must fail the next read too
        synopsis.changes_read()
        return self._entries

    def _entry(self, plan_result: Optional[PlanResult]):
        if plan_result is None:
            return None, None, None
        plan = self._plan
        row = plan.expand_result(plan_result)
        for mflt in self._residuals:
            values = [plan.original_value(row, alias, attr)
                      for alias, attr in mflt.inputs]
            if not mflt.matches(values):
                return None, None, None
        meta = (UNIT_META if self._meta_of is None
                else self._meta_of(plan_result))
        return row, meta, tuple(
            [table.peek(tid) for table, tid in zip(self._tables, row)])
