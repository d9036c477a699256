"""Key ranges of the aggregate index.

Every hot path of the reproduction — Algorithm 1 delta propagation,
Algorithm 2 join-number ``select``, deletion re-draws — bottoms out in
the paper's aggregate order index (§4.3,
:class:`repro.index.aggregate.AggregateTree`): an ordered container of
``(key, tie) -> item`` entries that maintains, per *slot*, the sum of a
per-item value over any contiguous key range.  This module holds the
vocabulary its callers share with it: :class:`IndexRange`, a contiguous
range of composite keys — the one range type between a join predicate's
constants and the tree (:meth:`repro.query.query_tree.TreeEdge.range_fn`
compiles a ``source key -> IndexRange`` function per edge direction).
"""

from __future__ import annotations


class IndexRange:
    """A contiguous range of composite keys.

    ``prefix`` pins the leading key components to exact values; the next
    component is optionally bounded below by ``lo`` and above by ``hi``
    (``None``: unbounded on that side; ``lo_open`` / ``hi_open`` exclude
    the bound itself).  Keys longer than the constrained components are
    unconstrained beyond them, which makes the range contiguous in
    lexicographic order.

    The two ends are also kept as comparable key heads, which is what the
    tree compares node keys against: a key sorts *below* the range when
    ``key[:len(lo_key)] < lo_key`` (``<=`` when ``lo_open``) and *above*
    it when ``key[:len(hi_key)] > hi_key`` (``>=`` when ``hi_open``).
    """

    __slots__ = ("prefix", "lo", "hi", "lo_open", "hi_open",
                 "lo_key", "hi_key")

    def __init__(self, prefix: tuple = (), lo: object = None,
                 hi: object = None, lo_open: bool = False,
                 hi_open: bool = False):
        prefix = tuple(prefix)
        self.prefix = prefix
        self.lo = lo
        self.hi = hi
        # an absent bound excludes nothing
        self.lo_open = lo_open and lo is not None
        self.hi_open = hi_open and hi is not None
        self.lo_key = prefix if lo is None else prefix + (lo,)
        self.hi_key = prefix if hi is None else prefix + (hi,)

    def contains(self, key: tuple) -> bool:
        lo_key, hi_key = self.lo_key, self.hi_key
        head = key[:len(lo_key)]
        if head < lo_key or (self.lo_open and head == lo_key):
            return False
        head = key[:len(hi_key)]
        return head < hi_key or (head == hi_key and not self.hi_open)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return (f"IndexRange(prefix={self.prefix!r}, "
                f"{left}{self.lo!r}, {self.hi!r}{right})")


def default_backend() -> str:
    """Name of the one aggregate index, for run metadata.

    Called by ``benchmarks/layers/run.py`` for the ``meta`` block of
    its result files, which keeps the committed trajectory comparable;
    nothing in ``src/`` selects an index by name.
    """
    return "blocked"
