"""What readers see of a synopsis, kept per sample instead of re-derived.

A plan-level sample becomes a reader-visible *entry* by expansion to
original-range-table TIDs and the heap rows they name (each plan node's
heap read once, §6 members by hash lookup), its *pass bit*: whether it
satisfies every residual multi-table filter of §5.1, and off the
uniform family its weight and *scale*, the number an estimator divides
by.  TIDs are never reused and heap rows never change, so an entry is
a pure function of its sample: :class:`EntryStore` computes it once,
when the sample enters the synopsis, and forgets it when it leaves.

§5.1 lives in that bit: a read shows the passing samples with
``drawn``, the plan-level sample count, which every estimator divides
by (a failing sample is a zero of the sample).  A read then costs the
samples that changed since the previous read, not the synopsis size —
the same shape as the maintenance cost the paper argues for — and an
estimate over the entries never goes back to the heap
(:mod:`repro.aqp.estimation`).

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
from typing import List, Optional, Tuple

from repro.errors import SynopsisError

PlanResult = Tuple[int, ...]
Row = Tuple[int, ...]
#: the heap rows one entry's TIDs name, in range-table order
HeapRows = Tuple[Tuple[object, ...], ...]


def entry_meta(weights, scales, index: int) -> dict:
    """Entry ``index``'s sampling metadata, built from the columns as it
    is shown (a weighted entry's scale *is* its weight)."""
    meta = {"weight": 1 if weights is None else weights[index]}
    if scales is not weights:
        meta["inclusion_probability"] = scales[index]
    return meta


@dataclass(frozen=True)
class SynopsisEntries(SequenceABC):
    """An immutable sequence of ``(row, meta)`` pairs (each ``meta`` a
    fresh dict, :func:`entry_meta`) held as aligned columns: the
    plan-level samples that pass every residual filter, in slot order.

    ``weights`` / ``scales``: each entry's weight and the number an
    estimator divides by (the weight, or ``1 - (1-p)^w`` on the subset
    family); None on the uniform family.  ``resolved``: per entry, the
    heap row tuples its TIDs name, what an estimate reads instead of
    the tables.  ``drawn``: the plan-level sample count, the ``n`` an
    estimate divides by."""

    __slots__ = ("rows", "weights", "scales", "resolved", "drawn")

    rows: Tuple[Row, ...]
    weights: Optional[Tuple[int, ...]]
    scales: Optional[tuple]
    resolved: Tuple[HeapRows, ...]
    drawn: int

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            # a prefix of the entries has no plan-level count
            raise TypeError("slice the entries' columns")
        return self.rows[index], entry_meta(self.weights, self.scales,
                                             index)


@dataclass(frozen=True)
class Snapshot:
    """One registered query's read record, taken at one point.

    ``total`` is what the weighted join graph reports: the exact join
    cardinality ``J`` on the uniform family, the exact weighted-unit
    total ``W`` on the others (``J`` when every weight is 1).
    ``results`` (original-range-table TID tuples), ``weights``,
    ``scales`` and ``rows`` are the engine's :class:`SynopsisEntries`
    columns, shared, not copied, beside its ``drawn``.  ``sql`` and
    ``engine`` are the registration's; ``epoch`` is the published
    view's, or None when read off a bare manager."""

    family: str
    total: int
    results: Tuple[Row, ...]
    weights: Optional[Tuple[int, ...]]
    scales: Optional[tuple]
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
                    entries.rows, entries.weights, entries.scales,
                    entries.resolved, entries.drawn, maintainer.sql,
                    maintainer.algorithm, epoch)


class EntryStore:
    """One engine's entries, aligned with its synopsis's slots.

    ``runtimes`` are the engine's combined-node runtimes by node idx;
    ``spec`` (None: uniform) names the family and its weight column,
    ``synopsis`` supplies the subset family's inclusion law.
    """

    def __init__(self, plan, query, runtimes=None, spec=None,
                 synopsis=None):
        self._plan = plan
        self._runtimes = runtimes
        schema = [plan.db.table(rt.table_name).schema
                  for rt in query.range_tables]

        def locate(alias: str, attr: str) -> Tuple[int, int]:
            return (query.index_of(alias),
                    schema[query.index_of(alias)].index_of(attr))

        # each residual filter with its inputs' (range table, column)
        self._residuals = tuple(
            (mflt, tuple(locate(a, attr) for a, attr in mflt.inputs))
            for mflt in tuple(plan.demoted) + tuple(query.multi_filters))
        family = "uniform" if spec is None else spec.family
        # where a weight sits in the heap rows (None: 1), the subset law
        self._weighted = family != "uniform"
        self._weight_at = (locate(*spec.weight_column.split(".", 1))
                           if self._weighted and spec.weight_column
                           else None)
        self._law = (synopsis.inclusion_probability
                     if family == "subset" else None)
        # per slot, aligned: the expanded row, its heap rows, weight and
        # subset scale, and its pass bit — all None for an empty slot
        width = 2 + self._weighted + (self._law is not None)
        self._columns = tuple([] for _ in range(width))
        self._passes: List[Optional[bool]] = []
        self._empty = 0     # slots holding no sample
        self._failing = 0   # samples whose pass bit is False
        self._entries = self._assemble([()] * width, 0)

    def entries(self, synopsis) -> SynopsisEntries:
        """The synopsis's current passing entries, in ``samples()``
        order, with the plan-level sample count."""
        changed = synopsis.changed_positions()
        if changed is not None and not changed:
            return self._entries
        slots = synopsis.slots()
        columns, passes = self._columns, self._passes
        every = (*columns, passes)
        size = len(slots)
        # cut the positions past the slots (all of them on a restore,
        # which reports every position as changed), then pad to size
        cut = 0 if changed is None else size
        self._empty -= passes[cut:].count(None)
        self._failing -= passes[cut:].count(False)
        grow = size - min(len(passes), cut)
        for column in every:
            del column[cut:]
            column.extend([None] * grow)
        self._empty += grow
        for pos in range(size) if changed is None else changed:
            if pos < size:
                entry, ok = self._entry(slots[pos])
                was = passes[pos]
                self._empty += (ok is None) - (was is None)
                self._failing += (ok is False) - (was is False)
                passes[pos] = ok
                for column, value in zip(columns, entry):
                    column[pos] = value
        drawn = size - self._empty
        if drawn < size or self._failing:
            columns = [compress(column, passes) for column in columns]
        self._entries = self._assemble(columns, drawn)
        # only now: a failed expansion above must fail the next read too
        synopsis.changes_read()
        return self._entries

    @staticmethod
    def _assemble(columns, drawn: int) -> SynopsisEntries:
        rows, resolved, *scaled = map(tuple, columns)
        weights, scales = (scaled[0], scaled[-1]) if scaled else (None, None)
        return SynopsisEntries(rows, weights, scales, resolved, drawn)

    def _entry(self, plan_result: Optional[PlanResult]):
        if plan_result is None:
            return (None,) * len(self._columns), None
        row, heap_rows = self._plan.resolve_result(plan_result, self._runtimes)
        entry = (row, heap_rows)
        if self._weighted:
            # the weight and scale, checked here, once per entry
            at = self._weight_at
            weight = heap_rows[at[0]][at[1]] if at else 1
            if not weight > 0:
                raise SynopsisError(
                    f"sample weight must be positive, got {weight!r}")
            entry += (weight,)
            if self._law is not None:
                entry += (self._law(weight),)
                if not 0.0 < entry[-1] <= 1.0:
                    raise SynopsisError("inclusion probability must be "
                                        f"in (0, 1], got {entry[-1]!r}")
        for mflt, inputs in self._residuals:
            if not mflt.matches([heap_rows[table][column]
                                 for table, column in inputs]):
                return entry, False
        return entry, True
