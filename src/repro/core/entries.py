"""What readers see of a synopsis, kept per sample instead of re-derived.

A plan-level sample becomes a reader-visible *entry* by expansion to
original-range-table TIDs and the heap rows they name (each plan node's
heap read once, §6 members by hash lookup), the residual multi-table
filters of §5.1 and its sampling metadata (weight, inclusion probability).
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
is single-threaded (behind a :class:`~repro.service.SynopsisService`,
the ingest thread is the only one that touches the target).
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


@dataclass(frozen=True)
class Snapshot:
    """One registered query's read record, taken at one point.

    ``total`` is what the weighted join graph reports for the family:
    the exact join cardinality ``J`` for uniform/subset synopses and
    the exact weighted-unit total ``W`` for weighted ones.  ``results``
    are original-range-table TID tuples; ``meta`` (``weight``, plus
    ``inclusion_probability`` on the subset family) and ``rows`` (the
    heap row tuples those TIDs name) are aligned with it index for
    index — the three columns of the engine's
    :class:`SynopsisEntries`, shared, not copied.  ``sql`` and
    ``engine`` are the registration's.  ``epoch`` is the published
    view's, or None when read off a bare manager.
    """

    family: str
    total: int
    results: Tuple[Row, ...]
    meta: Tuple[Mapping[str, object], ...]
    rows: Tuple[HeapRows, ...]
    sql: str
    engine: str
    epoch: Optional[int] = None


def read_query(target, name: str, epoch: Optional[int] = None) -> Snapshot:
    """The one per-query reader: ``name``'s :class:`Snapshot` off
    ``target`` (a :class:`~repro.core.manager.SynopsisTarget`), for a
    published view and for a bare manager's AQP registry alike; costs
    the samples that changed since the previous read."""
    maintainer = target.maintainer(name)
    entries = maintainer.synopsis_entries()
    return Snapshot(maintainer.family, maintainer.total_results(),
                    entries.rows, entries.metas, entries.resolved,
                    maintainer.sql, maintainer.algorithm, epoch)


class EntryStore:
    """One engine's entries, aligned with its synopsis's slots.

    ``runtimes`` are the engine's combined-node runtimes by node idx;
    ``meta_of(plan_result)`` supplies a non-uniform family's read-only
    metadata mapping; without it every entry carries :data:`UNIT_META`.
    """

    def __init__(self, plan, query, runtimes: Optional[Mapping] = None,
                 meta_of: Optional[Callable[[PlanResult], Mapping]] = None):
        self._plan = plan
        self._runtimes = runtimes
        schema = [plan.db.table(rt.table_name).schema
                  for rt in query.range_tables]
        # each residual filter with its inputs' (range table, column)
        self._residuals = tuple((mflt, tuple(
            (query.index_of(a), schema[query.index_of(a)].index_of(attr))
            for a, attr in mflt.inputs))
            for mflt in tuple(plan.demoted) + tuple(query.multi_filters))
        self._meta_of = meta_of
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
        row, heap_rows = self._plan.resolve_result(plan_result, self._runtimes)
        for mflt, inputs in self._residuals:
            if not mflt.matches([heap_rows[table][column]
                                 for table, column in inputs]):
                return None, None, None
        meta = (UNIT_META if self._meta_of is None
                else self._meta_of(plan_result))
        return row, meta, heap_rows
