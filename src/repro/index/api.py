"""Key ranges of the aggregate index.

Every hot path of the reproduction — Algorithm 1 delta propagation,
Algorithm 2 join-number ``select``, deletion re-draws — bottoms out in
the paper's aggregate AVL tree (§4.3,
:class:`repro.index.avl.AggregateTree`): an ordered container of
``(key, tie) -> item`` entries that maintains, per *slot*, the sum of a
per-item value over any contiguous key range.  This module holds the
vocabulary its callers share with it: :class:`IndexRange`, a contiguous
range of composite keys, and :data:`EVERYTHING`, the unbounded one.
"""

from __future__ import annotations

from typing import Optional

from repro.query.intervals import Interval


class IndexRange:
    """A contiguous range of composite keys.

    ``prefix`` pins the leading key components to exact values; ``last``
    optionally constrains the next component to an :class:`Interval`.  Keys
    longer than the constrained components are unconstrained beyond them,
    which makes the range contiguous in lexicographic order.
    """

    __slots__ = ("prefix", "last", "_plen")

    def __init__(self, prefix: tuple = (), last: Optional[Interval] = None):
        self.prefix = tuple(prefix)
        self.last = last
        self._plen = len(self.prefix)

    @staticmethod
    def everything() -> "IndexRange":
        return IndexRange((), None)

    def side(self, key: tuple) -> int:
        """-1 when ``key`` sorts entirely below the range, +1 above, 0 in."""
        head = key[: self._plen]
        if head < self.prefix:
            return -1
        if head > self.prefix:
            return 1
        if self.last is None:
            return 0
        value = key[self._plen]
        lo, hi = self.last.lo, self.last.hi
        if lo is not None and (value < lo or (self.last.lo_open and value == lo)):
            return -1
        if hi is not None and (value > hi or (self.last.hi_open and value == hi)):
            return 1
        return 0

    def contains(self, key: tuple) -> bool:
        return self.side(key) == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IndexRange(prefix={self.prefix!r}, last={self.last!r})"


EVERYTHING = IndexRange.everything()


def default_backend() -> str:
    """Name of the one aggregate index, for run metadata.

    Called by ``benchmarks/layers/run.py`` for the ``meta`` block of
    its result files, which keeps the committed trajectory comparable;
    nothing in ``src/`` selects an index by name.
    """
    return "avl"
