"""Predicate model for the paper's SPJ query class (§2).

Two kinds of *join* predicates are supported, exactly the forms the paper
admits because they can be expressed as an open or closed range of one
attribute in terms of the other:

* :class:`JoinPredicate` — ``left.attr op coeff * right.attr + offset`` with
  ``op`` one of ``<, <=, >, >=, =``;
* :class:`BandPredicate` — ``|left.attr - coeff * right.attr| lt width`` with
  ``lt`` one of ``<, <=``.

Both expose the same interface: test a pair of values, and — crucially for
the weighted join graph — map a value on one side to the :class:`Interval`
of matching values on the other side.  Interval endpoints are computed with
exact rational arithmetic (:class:`fractions.Fraction`) so integer attributes
are never mis-classified by floating-point division.

*Filter* predicates come in two flavours: single-table
(:class:`FilterPredicate`, applied as a pre-filter before tuples enter the
range tables, §5.1) and multi-table (:class:`MultiTableFilter`, applied on
top of the synopsis; these arise from cyclic queries whose cycle-closing
join predicates are demoted, and from user-defined predicates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.query.intervals import Interval


class ComparisonOp(enum.Enum):
    """Comparison operators admissible in predicates."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="

    def test(self, left: object, right: object) -> bool:
        if self is ComparisonOp.LT:
            return left < right
        if self is ComparisonOp.LE:
            return left <= right
        if self is ComparisonOp.GT:
            return left > right
        if self is ComparisonOp.GE:
            return left >= right
        return left == right

    def flipped(self) -> "ComparisonOp":
        """The operator with its operands swapped (e.g. ``<`` -> ``>``)."""
        return _FLIP[self]


_FLIP = {
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
    ComparisonOp.EQ: ComparisonOp.EQ,
}


def _exact(value: object) -> object:
    """Return ``value`` as an exact rational when it is an int/Fraction."""
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return value


def _simplify(value: object) -> object:
    """Collapse integral Fractions back to ints for cheap comparisons."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _is_negative(value: object) -> bool:
    try:
        return value < 0  # type: ignore[operator]
    except TypeError:
        return False


class ThetaPredicate:
    """Common interface of the two join-predicate forms.

    A theta predicate relates one attribute of range table ``left`` (referred
    to by alias) to one attribute of range table ``right``.
    """

    left: str
    left_attr: str
    right: str
    right_attr: str

    def matches(self, left_value: object, right_value: object) -> bool:
        """True when the pair of values satisfies the predicate."""
        raise NotImplementedError

    def interval_for_right(self, left_value: object) -> Interval:
        """Values of ``right.right_attr`` matching a given left value."""
        raise NotImplementedError

    def interval_for_left(self, right_value: object) -> Interval:
        """Values of ``left.left_attr`` matching a given right value."""
        raise NotImplementedError

    # convenience -------------------------------------------------------
    @property
    def is_equality(self) -> bool:
        return False

    def sides(self) -> Tuple[str, str]:
        return (self.left, self.right)

    def attr_of(self, alias: str) -> str:
        if alias == self.left:
            return self.left_attr
        if alias == self.right:
            return self.right_attr
        raise QueryError(f"{alias} is not a side of {self}")

    def other(self, alias: str) -> str:
        if alias == self.left:
            return self.right
        if alias == self.right:
            return self.left
        raise QueryError(f"{alias} is not a side of {self}")

    def interval_for(self, target_alias: str, source_value: object) -> Interval:
        """Matching values on ``target_alias``'s side given the other side."""
        if target_alias == self.right:
            return self.interval_for_right(source_value)
        if target_alias == self.left:
            return self.interval_for_left(source_value)
        raise QueryError(f"{target_alias} is not a side of {self}")

    def matches_side(
        self, alias: str, value: object, other_value: object
    ) -> bool:
        """Test with ``value`` on ``alias``'s side."""
        if alias == self.left:
            return self.matches(value, other_value)
        return self.matches(other_value, value)


@dataclass(frozen=True)
class JoinPredicate(ThetaPredicate):
    """``left.left_attr op coeff * right.right_attr + offset``.

    ``coeff`` must be non-zero (otherwise this is a single-table filter, not
    a join predicate).  With ``op = EQ, coeff = 1, offset = 0`` this is the
    ordinary equi-join predicate, in which case non-numeric attribute values
    are also admissible.
    """

    left: str
    left_attr: str
    op: ComparisonOp
    right: str
    right_attr: str
    coeff: object = 1
    offset: object = 0

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise QueryError("join predicate must relate two range tables")
        coeff = _exact(self.coeff)
        if coeff == 0:
            raise QueryError("join predicate coefficient must be non-zero")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "offset", _exact(self.offset))

    @property
    def is_equality(self) -> bool:
        return self.op is ComparisonOp.EQ

    @property
    def is_plain_equality(self) -> bool:
        """Equality with no arithmetic (usable on non-numeric columns)."""
        return self.is_equality and self.coeff == 1 and self.offset == 0

    def matches(self, left_value: object, right_value: object) -> bool:
        if self.is_plain_equality:
            return left_value == right_value
        return self.op.test(left_value, self.coeff * right_value + self.offset)

    def interval_for_left(self, right_value: object) -> Interval:
        if self.is_plain_equality:
            return Interval.point(right_value)
        bound = _simplify(self.coeff * _exact(right_value) + self.offset)
        return _interval_from_op(self.op, bound)

    def interval_for_right(self, left_value: object) -> Interval:
        if self.is_plain_equality:
            return Interval.point(left_value)
        # left op coeff*right + offset  <=>  right op' (left - offset)/coeff
        bound = _simplify((_exact(left_value) - self.offset) / self.coeff)
        op = self.op.flipped()
        if self.coeff < 0 and op is not ComparisonOp.EQ:
            op = op.flipped()
        return _interval_from_op(op, bound)

    def __str__(self) -> str:
        rhs = f"{self.right}.{self.right_attr}"
        if self.coeff != 1:
            rhs = f"{self.coeff}*{rhs}"
        if self.offset != 0:
            # negative offsets render as "- d" so the SQL re-parses
            # (the grammar has no unary minus after "+")
            sign = "+" if not _is_negative(self.offset) else "-"
            rhs = f"{rhs} {sign} {abs(self.offset)}"
        return f"{self.left}.{self.left_attr} {self.op.value} {rhs}"


def _interval_from_op(op: ComparisonOp, bound: object) -> Interval:
    if op is ComparisonOp.EQ:
        return Interval.point(bound)
    if op is ComparisonOp.LT:
        return Interval.at_most(bound, strict=True)
    if op is ComparisonOp.LE:
        return Interval.at_most(bound)
    if op is ComparisonOp.GT:
        return Interval.at_least(bound, strict=True)
    return Interval.at_least(bound)


@dataclass(frozen=True)
class BandPredicate(ThetaPredicate):
    """``|left.left_attr - coeff * right.right_attr| lt width``.

    ``lt`` is ``<=`` when ``inclusive`` is True, ``<`` otherwise.  This is
    the band-join form; the Linear Road query QB of the paper uses it with
    ``coeff = 1``.
    """

    left: str
    left_attr: str
    right: str
    right_attr: str
    width: object
    coeff: object = 1
    inclusive: bool = True

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise QueryError("band predicate must relate two range tables")
        coeff = _exact(self.coeff)
        if coeff == 0:
            raise QueryError("band predicate coefficient must be non-zero")
        width = _exact(self.width)
        if width < 0:
            raise QueryError("band width must be non-negative")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "width", width)

    def matches(self, left_value: object, right_value: object) -> bool:
        diff = left_value - self.coeff * right_value
        if diff < 0:
            diff = -diff
        if self.inclusive:
            return diff <= self.width
        return diff < self.width

    def interval_for_left(self, right_value: object) -> Interval:
        center = self.coeff * _exact(right_value)
        strict = not self.inclusive
        return Interval(
            _simplify(center - self.width),
            _simplify(center + self.width),
            strict,
            strict,
        )

    def interval_for_right(self, left_value: object) -> Interval:
        # |l - c r| lt w  <=>  (l-w)/c <= r <= (l+w)/c   (for c > 0)
        left_value = _exact(left_value)
        lo = (left_value - self.width) / self.coeff
        hi = (left_value + self.width) / self.coeff
        if self.coeff < 0:
            lo, hi = hi, lo
        strict = not self.inclusive
        return Interval(_simplify(lo), _simplify(hi), strict, strict)

    def __str__(self) -> str:
        rhs = f"{self.right}.{self.right_attr}"
        if self.coeff != 1:
            rhs = f"{self.coeff}*{rhs}"
        lt = "<=" if self.inclusive else "<"
        return f"|{self.left}.{self.left_attr} - {rhs}| {lt} {self.width}"


@dataclass(frozen=True)
class FilterPredicate:
    """A single-table filter ``alias.attr op constant``.

    Applied as a pre-filter: rows failing the filter never enter the range
    table, so they can never contribute join results (§5.1).
    """

    alias: str
    attr: str
    op: ComparisonOp
    constant: object

    def matches(self, value: object) -> bool:
        return self.op.test(value, self.constant)

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr} {self.op.value} {self.constant!r}"


@dataclass(frozen=True)
class MultiTableFilter:
    """A residual predicate over two or more range tables.

    These cannot be folded into the (tree-shaped) weighted join graph; the
    paper applies them on top of the synopsis at read time, over-allocating
    the synopsis by ``O(1/f)`` where ``f`` is the estimated selectivity.

    ``predicate`` receives the attribute values it declared in ``inputs``
    (``(alias, attr)`` pairs) in order.  ``selectivity_hint`` sizes the
    over-allocation; a filter that wraps a theta predicate (``theta`` is
    set, e.g. a demoted cycle edge) and leaves the hint at 1.0 is sized
    by the maintainer from column statistics of the loaded data instead
    (§5.1) — pin ``MaintainerConfig(effective_spec=...)`` to bypass both.
    """

    inputs: Tuple[Tuple[str, str], ...]
    predicate: Callable[..., bool]
    description: str = ""
    selectivity_hint: float = 1.0
    theta: Optional[ThetaPredicate] = None

    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(alias for alias, _ in self.inputs)

    def matches(self, values: Sequence[object]) -> bool:
        return bool(self.predicate(*values))

    @staticmethod
    def from_theta(pred: ThetaPredicate, selectivity_hint: float = 1.0
                   ) -> "MultiTableFilter":
        """Wrap a theta predicate (e.g. a demoted cycle edge) as a filter."""
        return MultiTableFilter(
            inputs=((pred.left, pred.left_attr), (pred.right, pred.right_attr)),
            predicate=pred.matches,
            description=str(pred),
            selectivity_hint=selectivity_hint,
            theta=pred,
        )

    def __str__(self) -> str:
        return self.description or f"multi-table filter over {self.aliases}"
