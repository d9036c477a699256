"""Selectivity estimation from column statistics.

Drives the §5.1 residual-filter over-allocation: a fixed-size synopsis is
enlarged by ``O(1/f)`` where ``f`` is the estimated selectivity of the
multi-table filters applied on top of it.  The estimators here follow the
standard System-R playbook:

* equality between two columns: ``1 / max(d_left, d_right)`` per pair,
  times the join blow-up cancellation (we only need the *fraction* of
  surviving pairs, which is exactly that);
* inequality between two columns: estimated by integrating one column's
  histogram against the other's (fraction of pairs with ``l op c*r + d``);
* band: fraction of pairs within the band, via the same integration.

Estimates are clamped to ``[floor, 1]`` so a mis-estimate can never
produce an unbounded enlargement.
"""

from __future__ import annotations

from repro.query.predicates import (
    BandPredicate,
    JoinPredicate,
    ThetaPredicate,
)
from repro.stats.column_stats import ColumnStats

#: never report selectivity below this (bounds the 1/f enlargement)
SELECTIVITY_FLOOR = 0.01


def estimate_theta_selectivity(pred: ThetaPredicate,
                               left_stats: ColumnStats,
                               right_stats: ColumnStats,
                               samples: int = 64) -> float:
    """Fraction of (left, right) value pairs satisfying ``pred``.

    Integrates over the right column's histogram: for each right quantile
    point, the matching left-value interval's mass is read off the left
    histogram; the average over quantile points estimates the pair
    fraction.  Falls back to textbook constants when histograms are
    missing.
    """
    if isinstance(pred, JoinPredicate) and pred.is_equality:
        d = max(left_stats.distinct_estimate,
                right_stats.distinct_estimate, 1)
        return _clamp(1.0 / d)
    points = _quantile_points(right_stats, samples)
    if not points or not left_stats.boundaries:
        return _fallback(pred)
    total = 0.0
    for value in points:
        interval = pred.interval_for_left(value)
        total += left_stats.fraction_between(
            interval.lo, interval.hi, interval.lo_open, interval.hi_open
        )
    return _clamp(total / len(points))


def _quantile_points(stats: ColumnStats, samples: int):
    if not stats.boundaries:
        return []
    boundaries = stats.boundaries
    if len(boundaries) <= samples:
        return list(boundaries)
    step = len(boundaries) / samples
    return [boundaries[int(i * step)] for i in range(samples)]


def _fallback(pred: ThetaPredicate) -> float:
    if isinstance(pred, BandPredicate):
        return 0.1
    return 1.0 / 3.0  # the System-R default for range predicates


def _clamp(est: float, floor: float = SELECTIVITY_FLOOR) -> float:
    if est < floor:
        return floor
    if est > 1.0:
        return 1.0
    return est
