"""Predicate model for the paper's SPJ query class (§2).

Two kinds of *join* predicates are supported, exactly the forms the paper
admits because they can be expressed as an open or closed range of one
attribute in terms of the other:

* :class:`JoinPredicate` — ``left.attr op coeff * right.attr + offset`` with
  ``op`` one of ``<, <=, >, >=, =``;
* :class:`BandPredicate` — ``|left.attr - coeff * right.attr| lt width`` with
  ``lt`` one of ``<, <=``.

Both expose the same interface: test a pair of values, and — crucially for
the weighted join graph — map a value on one side to the interval of
matching values on the other side.  Per direction that map is linear in the
value with constants taken from the predicate, so it is compiled once
(:meth:`ThetaPredicate.bounds_for`) and the endpoints are computed in exact
arithmetic — integers stay integers when the coefficient is ±1,
:class:`fractions.Fraction` otherwise, never an ``int / int`` division — so
integer attributes of any magnitude are never mis-classified by
floating-point rounding.

*Filter* predicates come in two flavours: single-table
(:class:`FilterPredicate`, applied as a pre-filter before tuples enter the
range tables, §5.1) and multi-table (:class:`MultiTableFilter`, applied on
top of the synopsis; these arise from cyclic queries whose cycle-closing
join predicates are demoted, and from user-defined predicates).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.errors import QueryError


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
    """A SQL constant as an exact rational: a float read as the decimal
    it was written as (``0.1`` is 1/10); an int or Fraction as it is."""
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return value


def _rational(value: object) -> object:
    """A row value as an exact rational: a finite float as its exact
    binary value, ``Fraction(value)``, so that range bounds computed from
    it and the keys stored beside it compare alike; anything else —
    NaN and ±inf included — as it is."""
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    return value


def rangeable(value: object) -> bool:
    """Whether ``value`` can take part in a predicate other than plain
    equality: not NULL, and not a float NaN or infinity — neither is an
    exact rational, so no range bound can be computed from it."""
    return value is not None and (
        not isinstance(value, float) or math.isfinite(value))


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


def _ratio(num: object, den: object) -> object:
    """``num / den`` over exact numbers, exactly."""
    return _simplify(Fraction(num) / den)


#: ``source value -> (lo, hi)`` of the matching values on the other side
Bounds = Callable[[object], Tuple[object, object]]


def _linear_bounds(mul: Union[int, Fraction], lo_add: object,
                   hi_add: object) -> Bounds:
    """Compile ``value -> (mul * value + lo_add, mul * value + hi_add)``
    (an add of ``None`` leaves that side unbounded) over exact constants.

    Integer constants on an integer value are plain integer arithmetic;
    a fractional constant or a float value (read through
    :func:`_rational`) goes through :class:`Fraction`, collapsed back to
    an int when whole.
    """
    if lo_add is None:
        def line(value):
            return None, mul * value + hi_add
    elif hi_add is None:
        def line(value):
            return mul * value + lo_add, None
    else:
        def line(value):
            scaled = mul * value
            return scaled + lo_add, scaled + hi_add

    def exact(value):
        lo, hi = line(_rational(value))
        return _simplify(lo), _simplify(hi)

    if not all(isinstance(c, int) for c in (mul, lo_add, hi_add)
               if c is not None):
        return exact

    def bounds(value):
        if isinstance(value, float):
            return exact(value)
        return line(value)

    return bounds


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

    def bounds_for(self, target_alias: str) -> Tuple[Bounds, bool, bool]:
        """Compile the map from a value on the other side to the matching
        values on ``target_alias``'s side: ``(bounds, lo_open, hi_open)``
        with ``bounds(source_value) -> (lo, hi)``, ``None`` for an
        unbounded side.  Which sides are bounded or open depends only on
        the predicate and the direction, not on the value."""
        raise NotImplementedError

    # convenience -------------------------------------------------------
    @property
    def is_equality(self) -> bool:
        return False

    @property
    def is_plain_equality(self) -> bool:
        """Equality with no arithmetic (usable on non-numeric columns)."""
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

    def matches_side(
        self, alias: str, value: object, other_value: object
    ) -> bool:
        """Test with ``value`` on ``alias``'s side; a NULL on either side
        satisfies nothing (SQL), and neither does a float NaN or infinity
        unless the predicate is plain equality (:func:`rangeable`)."""
        if value is None or other_value is None:
            return False
        if not self.is_plain_equality and not (
                rangeable(value) and rangeable(other_value)):
            return False
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
        return self.op.test(_rational(left_value),
                            self.coeff * _rational(right_value) + self.offset)

    def bounds_for(self, target_alias: str) -> Tuple[Bounds, bool, bool]:
        self.other(target_alias)  # a QueryError unless it is a side
        if self.is_plain_equality:
            # no arithmetic: the values need not be numbers
            return (lambda value: (value, value)), False, False
        if target_alias == self.left:
            mul, add, op = self.coeff, self.offset, self.op
        else:
            # l op coeff*r + offset  <=>  r op' (l - offset)/coeff
            mul = _ratio(1, self.coeff)
            add = _ratio(-self.offset, self.coeff)
            op = self.op.flipped()
            if self.coeff < 0:
                op = op.flipped()
        if op is ComparisonOp.EQ:
            return _linear_bounds(mul, add, add), False, False
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            return (_linear_bounds(mul, None, add),
                    False, op is ComparisonOp.LT)
        return _linear_bounds(mul, add, None), op is ComparisonOp.GT, False

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
        diff = _rational(left_value) - self.coeff * _rational(right_value)
        if diff < 0:
            diff = -diff
        if self.inclusive:
            return diff <= self.width
        return diff < self.width

    def bounds_for(self, target_alias: str) -> Tuple[Bounds, bool, bool]:
        self.other(target_alias)  # a QueryError unless it is a side
        if target_alias == self.left:
            mul, half = self.coeff, self.width
        else:
            # |l - c r| lt w  <=>  l/c - w/|c| <= r <= l/c + w/|c|
            mul = _ratio(1, self.coeff)
            half = _ratio(self.width, abs(self.coeff))
        strict = not self.inclusive
        return _linear_bounds(mul, -half, half), strict, strict

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
        """A NULL satisfies no predicate (SQL)."""
        return value is not None and self.op.test(value, self.constant)

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
        """A NULL among the inputs satisfies nothing (SQL)."""
        return None not in values and bool(self.predicate(*values))

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
