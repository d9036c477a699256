"""One-dimensional interval algebra over ordered attribute values.

Join predicates of the paper's two forms (§2) can always be rewritten as
"the other side's attribute lies in this interval", which is what lets the
weighted join graph use ordered tree indexes for both lookups and aggregate
range queries.  :class:`Interval` is the common currency between predicates
(:mod:`repro.query.predicates`) and indexes (:mod:`repro.index.aggregate`).

Bounds may be ``None`` meaning unbounded on that side.  Bound values may be
ints, floats or :class:`fractions.Fraction` (predicates use exact rational
arithmetic so that integer attributes are never mis-bucketed by floating
point rounding); all of these compare correctly with one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Interval:
    """A (possibly open / unbounded) interval of attribute values."""

    lo: Optional[object] = None
    hi: Optional[object] = None
    lo_open: bool = False
    hi_open: bool = False

    @staticmethod
    def point(value: object) -> "Interval":
        """The degenerate closed interval ``[value, value]``."""
        return Interval(value, value, False, False)

    @staticmethod
    def everything() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def at_most(value: object, strict: bool = False) -> "Interval":
        return Interval(None, value, False, strict)

    @staticmethod
    def at_least(value: object, strict: bool = False) -> "Interval":
        return Interval(value, None, strict, False)

    # ------------------------------------------------------------------
    @property
    def is_point(self) -> bool:
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_open
            and not self.hi_open
        )

    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy the interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            return True
        return False

    def contains(self, value: object) -> bool:
        """Return True when ``value`` lies in the interval."""
        if self.lo is not None:
            if value < self.lo or (self.lo_open and value == self.lo):
                return False
        if self.hi is not None:
            if value > self.hi or (self.hi_open and value == self.hi):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        """The intersection of two intervals."""
        lo, lo_open = self.lo, self.lo_open
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is not None and other.lo == lo:
            lo_open = lo_open or other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is not None and other.hi == hi:
            hi_open = hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def __repr__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{left}{lo}, {hi}{right}"
