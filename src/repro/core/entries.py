"""What readers see of a synopsis, kept per sample instead of re-derived.

A plan-level sample becomes a reader-visible *entry* by expansion to
original-range-table TIDs and the heap rows they name (each plan node's
heap read once, §6 members by hash lookup), its sampling metadata
(weight, inclusion probability) and its *pass bit*: whether it satisfies
every residual multi-table filter of §5.1.  TIDs are never reused and
heap rows never change, so an entry is a pure function of its sample:
:class:`EntryStore` computes it once, when the sample enters the
synopsis, and forgets it when the sample leaves.

§5.1 lives in that bit: a read shows the passing samples with
``drawn``, the plan-level sample count, which every estimator divides
by (a failing sample is a zero of the sample).  A
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
from itertools import compress
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
    are: the plan-level samples that pass every residual filter, in
    slot order.  Each ``meta`` is a read-only mapping; consecutive reads
    of an unchanged synopsis return the same object.

    ``resolved`` is a third aligned column: per entry, the heap row
    tuples its TIDs name — references to the rows the tables hold, not
    copies.  It is what an estimate reads instead of the tables.
    ``drawn`` is the plan-level sample count (``len(self)`` without a
    residual filter): the ``n`` an estimate divides by."""

    __slots__ = ("rows", "metas", "resolved", "drawn")

    rows: Tuple[Row, ...]
    metas: Tuple[Mapping[str, object], ...]
    resolved: Tuple[HeapRows, ...]
    drawn: int

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows, self.metas)

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            # a prefix of the entries has no plan-level count
            raise TypeError("slice the rows / metas / resolved columns")
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
    :class:`SynopsisEntries`, shared, not copied, beside its ``drawn``.
    ``sql`` and ``engine`` are the registration's.  ``epoch`` is the published
    view's, or None when read off a bare manager.
    """

    family: str
    total: int
    results: Tuple[Row, ...]
    meta: Tuple[Mapping[str, object], ...]
    rows: Tuple[HeapRows, ...]
    drawn: int
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
                    entries.drawn, maintainer.sql, maintainer.algorithm,
                    epoch)


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
        # per slot: the expanded row, its meta, its heap rows and its
        # pass bit — all None for an empty slot
        self._rows: List[Optional[Row]] = []
        self._metas: List[Optional[Mapping]] = []
        self._resolved: List[Optional[HeapRows]] = []
        self._passes: List[Optional[bool]] = []
        self._empty = 0     # slots holding no sample
        self._failing = 0   # samples whose pass bit is False
        self._entries = SynopsisEntries((), (), (), 0)

    def entries(self, synopsis) -> SynopsisEntries:
        """The synopsis's current passing entries, in ``samples()``
        order, with the plan-level sample count."""
        changed = synopsis.changed_positions()
        if changed is not None and not changed:
            return self._entries
        slots = synopsis.slots()
        rows, metas, resolved, passes = columns = (
            self._rows, self._metas, self._resolved, self._passes)
        size = len(slots)
        if changed is None:
            for column in columns:
                column.clear()
            self._empty = self._failing = 0
            changed = range(size)
        else:
            self._empty -= passes[size:].count(None)
            self._failing -= passes[size:].count(False)
            for column in columns:
                del column[size:]
        grow = size - len(rows)
        for column in columns:
            column.extend([None] * grow)
        self._empty += grow
        for pos in changed:
            if pos < size:
                row, meta, heap_rows, ok = self._entry(slots[pos])
                was = passes[pos]
                self._empty += (ok is None) - (was is None)
                self._failing += (ok is False) - (was is False)
                rows[pos], metas[pos], resolved[pos], passes[pos] = \
                    row, meta, heap_rows, ok
        drawn = size - self._empty
        if drawn < size or self._failing:
            self._entries = SynopsisEntries(*[
                tuple(compress(column, passes))
                for column in columns[:3]], drawn)
        else:
            self._entries = SynopsisEntries(
                tuple(rows), tuple(metas), tuple(resolved), drawn)
        # only now: a failed expansion above must fail the next read too
        synopsis.changes_read()
        return self._entries

    def _entry(self, plan_result: Optional[PlanResult]):
        if plan_result is None:
            return None, None, None, None
        row, heap_rows = self._plan.resolve_result(plan_result, self._runtimes)
        meta = (UNIT_META if self._meta_of is None
                else self._meta_of(plan_result))
        for mflt, inputs in self._residuals:
            if not mflt.matches([heap_rows[table][column]
                                 for table, column in inputs]):
                return row, meta, heap_rows, False
        return row, meta, heap_rows, True
