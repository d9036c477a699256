"""Heap tables with stable, monotonically increasing TIDs.

The paper (§5.1) requires only one thing from the storage layer: a unique
tuple identifier per tuple that is stable across insertions and deletions.
We realise that with an append-only list of row slots; a deleted slot is
tombstoned rather than reused, so a TID never identifies two different
tuples over the lifetime of the table.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import TupleNotFoundError

Row = Tuple[object, ...]


class Table:
    """An in-memory heap table.

    Rows are immutable tuples in schema column order.  ``insert`` returns a
    TID (the row's index in the heap); ``delete`` tombstones the slot.
    """

    def __init__(self, schema: TableSchema, validate: bool = True):
        self.schema = schema
        self._rows: list = []
        self._live: list = []  # parallel bools; tombstone = False
        self._live_count = 0
        self._validate = validate

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[object]) -> int:
        """Append ``row`` and return its TID."""
        row = tuple(row)
        if self._validate:
            self.schema.validate_row(row)
        tid = len(self._rows)
        self._rows.append(row)
        self._live.append(True)
        self._live_count += 1
        return tid

    def delete(self, tid: int) -> Row:
        """Tombstone the tuple at ``tid`` and return it."""
        row = self.get(tid)
        self._live[tid] = False
        self._live_count -= 1
        return row

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, tid: int) -> Row:
        """Return the live tuple at ``tid``.

        Raises :class:`TupleNotFoundError` for out-of-range or deleted TIDs.
        """
        if not self.is_live(tid):
            raise TupleNotFoundError(
                f"{self.schema.name}: no live tuple with tid {tid}"
            )
        return self._rows[tid]

    def peek(self, tid: int) -> Optional[Row]:
        """Return the tuple at ``tid`` even when tombstoned, else None."""
        if 0 <= tid < len(self._rows):
            return self._rows[tid]
        return None

    def live_rows(self, tids: Sequence[int]) -> List[Optional[Row]]:
        """The live tuple at each TID of ``tids``, in order; None for an
        out-of-range or deleted TID."""
        rows, live, end = self._rows, self._live, len(self._rows)
        return [rows[tid] if 0 <= tid < end and live[tid] else None
                for tid in tids]

    def is_live(self, tid: int) -> bool:
        return 0 <= tid < len(self._rows) and self._live[tid]

    def value(self, tid: int, column: str) -> object:
        return self.get(tid)[self.schema.index_of(column)]

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(tid, row)`` for every live tuple in TID order."""
        for tid, (row, live) in enumerate(zip(self._rows, self._live)):
            if live:
                yield tid, row

    def live_tids(self) -> Iterator[int]:
        for tid, live in enumerate(self._live):
            if live:
                yield tid

    def __len__(self) -> int:
        """Number of live tuples."""
        return self._live_count

    @property
    def high_water_mark(self) -> int:
        """One past the largest TID ever allocated."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # persistence (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Heap state for snapshots: every slot (tombstones included), so
        restored TIDs are identical to the originals."""
        return {"rows": list(self._rows), "live": list(self._live)}

    def load_state(self, state: dict) -> None:
        """Replace the heap with a previously captured :meth:`state_dict`."""
        rows = [tuple(row) for row in state["rows"]]
        live = [bool(flag) for flag in state["live"]]
        if len(rows) != len(live):
            raise TupleNotFoundError(
                f"{self.schema.name}: heap state rows/live length mismatch"
            )
        self._rows = rows
        self._live = live
        self._live_count = sum(live)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.schema.name}, live={self._live_count})"
