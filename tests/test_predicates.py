"""Predicate model tests.

The central property (which the whole weighted join graph relies on):
``matches(l, r)`` holds iff ``r`` lies in the range
``bounds_for(right)`` maps ``l`` to, iff ``l`` lies in the range
``bounds_for(left)`` maps ``r`` to — verified exhaustively for random
predicate parameterisations via hypothesis.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import BandPredicate, ComparisonOp, JoinPredicate, QueryError
from repro.query.predicates import FilterPredicate, MultiTableFilter

from conftest import contains


def within(pred, target, source_value, value):
    """``value`` on ``target``'s side lies in the range that
    ``pred.bounds_for(target)`` maps the other side's value to."""
    bounds, lo_open, hi_open = pred.bounds_for(target)
    lo, hi = bounds(source_value)
    return contains(lo, hi, lo_open, hi_open, value)


class TestComparisonOp:
    def test_tests(self):
        assert ComparisonOp.LT.test(1, 2)
        assert ComparisonOp.LE.test(2, 2)
        assert ComparisonOp.GT.test(3, 2)
        assert ComparisonOp.GE.test(2, 2)
        assert ComparisonOp.EQ.test(2, 2)
        assert not ComparisonOp.EQ.test(2, 3)

    def test_flipped_is_involution(self):
        for op in ComparisonOp:
            assert op.flipped().flipped() is op

    def test_flip_swaps_operands(self):
        for op in ComparisonOp:
            for a in range(-2, 3):
                for b in range(-2, 3):
                    assert op.test(a, b) == op.flipped().test(b, a)


class TestJoinPredicate:
    def test_plain_equality(self):
        p = JoinPredicate("r", "a", ComparisonOp.EQ, "s", "b")
        assert p.is_plain_equality
        assert p.matches(3, 3)
        assert not p.matches(3, 4)
        assert p.bounds_for("s")[0](3) == (3, 3)
        assert p.bounds_for("s")[1:] == (False, False)
        assert within(p, "r", 4, 4)

    def test_plain_equality_works_on_strings(self):
        p = JoinPredicate("r", "a", ComparisonOp.EQ, "s", "b")
        assert p.matches("x", "x")
        assert within(p, "s", "x", "x")

    def test_arithmetic_equality(self):
        # r.a = 2*s.b + 1
        p = JoinPredicate("r", "a", ComparisonOp.EQ, "s", "b",
                          coeff=2, offset=1)
        assert p.matches(7, 3)
        assert not p.matches(7, 4)
        assert within(p, "r", 3, 7)
        # inverse: s.b = (r.a - 1)/2, fractional bounds stay exact
        assert not within(p, "s", 8, 3)
        # (8-1)/2 = 3.5: no integer matches
        assert not within(p, "s", 8, 4)

    def test_inequality_direction(self):
        # r.a < s.b
        p = JoinPredicate("r", "a", ComparisonOp.LT, "s", "b")
        assert within(p, "s", 5, 6)
        assert not within(p, "s", 5, 5)
        assert within(p, "r", 5, 4)
        assert not within(p, "r", 5, 5)

    def test_negative_coefficient_flips_direction(self):
        # r.a <= -1*s.b  <=>  s.b <= -r.a
        p = JoinPredicate("r", "a", ComparisonOp.LE, "s", "b", coeff=-1)
        assert p.matches(-5, 5)
        assert within(p, "s", -5, 5)
        assert not within(p, "s", -5, 6)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(QueryError):
            JoinPredicate("r", "a", ComparisonOp.EQ, "s", "b", coeff=0)

    def test_self_join_predicate_rejected(self):
        with pytest.raises(QueryError):
            JoinPredicate("r", "a", ComparisonOp.EQ, "r", "b")

    def test_sides_and_attrs(self):
        p = JoinPredicate("r", "a", ComparisonOp.EQ, "s", "b")
        assert p.sides() == ("r", "s")
        assert p.attr_of("r") == "a"
        assert p.attr_of("s") == "b"
        assert p.other("r") == "s"
        with pytest.raises(QueryError):
            p.attr_of("zzz")

    def test_matches_side(self):
        p = JoinPredicate("r", "a", ComparisonOp.LT, "s", "b")
        assert p.matches_side("r", 1, 2)  # 1 < 2
        assert p.matches_side("s", 2, 1)  # 1 < 2, value on s side
        assert not p.matches_side("s", 1, 2)

    def test_str(self):
        p = JoinPredicate("r", "a", ComparisonOp.LE, "s", "b",
                          coeff=2, offset=3)
        assert str(p) == "r.a <= 2*s.b + 3"


class TestBandPredicate:
    def test_basic_band(self):
        p = BandPredicate("r", "a", "s", "b", width=2)
        assert p.matches(5, 3)
        assert p.matches(5, 7)
        assert not p.matches(5, 8)
        assert within(p, "s", 5, 3) and within(p, "s", 5, 7)
        assert not within(p, "s", 5, 8)

    def test_strict_band(self):
        p = BandPredicate("r", "a", "s", "b", width=2, inclusive=False)
        assert not p.matches(5, 3)
        assert p.matches(5, 4)
        assert not within(p, "r", 3, 5)

    def test_band_with_coefficient(self):
        # |r.a - 2*s.b| <= 1
        p = BandPredicate("r", "a", "s", "b", width=1, coeff=2)
        assert p.matches(7, 3)
        assert p.matches(7, 4)
        assert not p.matches(7, 5)
        assert within(p, "s", 7, 3) and within(p, "s", 7, 4)
        assert not within(p, "s", 7, 5)

    def test_negative_width_rejected(self):
        with pytest.raises(QueryError):
            BandPredicate("r", "a", "s", "b", width=-1)

    def test_zero_width_is_equality(self):
        p = BandPredicate("r", "a", "s", "b", width=0)
        assert p.matches(3, 3)
        assert not p.matches(3, 4)

    def test_str(self):
        p = BandPredicate("r", "a", "s", "b", width=3, inclusive=False)
        assert str(p) == "|r.a - s.b| < 3"


class TestFilterPredicate:
    def test_matches(self):
        f = FilterPredicate("r", "a", ComparisonOp.GE, 10)
        assert f.matches(10)
        assert not f.matches(9)

    def test_str(self):
        assert str(FilterPredicate("r", "a", ComparisonOp.LT, 5)) == \
            "r.a < 5"


class TestMultiTableFilter:
    def test_from_theta(self):
        p = JoinPredicate("r", "a", ComparisonOp.LE, "s", "b")
        f = MultiTableFilter.from_theta(p)
        assert f.aliases == ("r", "s")
        assert f.matches((1, 2))
        assert not f.matches((2, 1))
        assert "r.a <= s.b" in str(f)

    def test_custom_predicate(self):
        f = MultiTableFilter(
            inputs=(("r", "a"), ("s", "b"), ("t", "c")),
            predicate=lambda a, b, c: a + b == c,
            description="a+b=c",
        )
        assert f.matches((1, 2, 3))
        assert not f.matches((1, 2, 4))


# ----------------------------------------------------------------------
# the load-bearing property: predicate <-> range consistency
# ----------------------------------------------------------------------
values = st.integers(min_value=-8, max_value=8)
ops = st.sampled_from(list(ComparisonOp))
coeffs = st.sampled_from([1, 2, 3, -1, -2])
offsets = st.integers(min_value=-3, max_value=3)
# the same neighbourhoods shifted past 2**53, where a float bound rounds
magnitudes = st.sampled_from([0, 2 ** 60])


@given(ops, coeffs, offsets, values, values, magnitudes)
def test_join_predicate_interval_consistency(op, coeff, offset, l, r, far):
    p = JoinPredicate("r", "a", op, "s", "b", coeff=coeff, offset=offset)
    l, r = l + coeff * far, r + far
    expected = p.matches(l, r)
    assert within(p, "s", l, r) == expected
    assert within(p, "r", r, l) == expected


@given(coeffs, st.integers(min_value=0, max_value=4), st.booleans(),
       values, values, magnitudes)
def test_band_predicate_interval_consistency(coeff, width, inclusive, l, r,
                                             far):
    p = BandPredicate("r", "a", "s", "b", width=width, coeff=coeff,
                      inclusive=inclusive)
    l, r = l + coeff * far, r + far
    expected = p.matches(l, r)
    assert within(p, "s", l, r) == expected
    assert within(p, "r", r, l) == expected
