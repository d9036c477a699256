"""Key ranges of the aggregate index.

Every hot path of the reproduction — Algorithm 1 delta propagation,
Algorithm 2 join-number ``select``, deletion re-draws — bottoms out in
the paper's aggregate order index (§4.3,
:class:`repro.index.aggregate.AggregateTree`): an ordered container of
``(key, tie) -> item`` entries that maintains, per *slot*, the sum of a
per-item value over any contiguous key range.  This module holds the
vocabulary its callers share with it.  A range reaches the tree as a
:data:`Cut`, its two cut points in the tree's sort order — the join
graph and the SJ baseline compile one ``key -> Cut`` function per edge
direction (:meth:`repro.query.query_tree.TreeEdge.cut_fn`), and a
ranged tree call takes a cut or None, nothing else.
"""

from __future__ import annotations

from typing import Tuple


class _Top:
    """Sorts above every key component: ``bound + (_TOP,)`` sorts after
    every key whose leading components are ``bound``."""

    __slots__ = ()

    def __gt__(self, other: object) -> bool:   # reflected ``other < _TOP``
        return True


_TOP = _Top()

#: ``(lo, hi)``: a range as its two cut points in a tree's sort order —
#: an entry lies in the range exactly when ``lo <= sort_key < hi``
#: (``sort_key = key + (tie,)``); a cut just past a bound (an open lower
#: end, a closed upper one) is the bound followed by a sentinel that sorts
#: above every value
Cut = Tuple[tuple, tuple]


def cut_points(prefix: tuple, lo: object = None, hi: object = None,
               lo_open: bool = False, hi_open: bool = False) -> Cut:
    """The :data:`Cut` of the keys that start with ``prefix`` and whose
    next component lies between ``lo`` and ``hi`` (``lo_open`` /
    ``hi_open`` exclude the bound itself; an absent bound, None,
    excludes nothing).  Components past that one are unconstrained, so
    the range is contiguous in lexicographic order."""
    return (prefix if lo is None
            else prefix + ((lo, _TOP) if lo_open else (lo,)),
            prefix + (_TOP,) if hi is None
            else prefix + ((hi,) if hi_open else (hi, _TOP)))


def default_backend() -> str:
    """Name of the one aggregate index, for run metadata.

    Called by ``benchmarks/layers/run.py`` for the ``meta`` block of
    its result files, which keeps the committed trajectory comparable;
    nothing in ``src/`` selects an index by name.
    """
    return "blocked"
