"""Aggregate estimation over a join synopsis.

Because the synopsis is a random sample of the join result and the
weighted join graph maintains the exact join cardinality ``J``, classic
survey-sampling estimators apply directly.  For the paper's *uniform*
family:

* ``COUNT(filter)``  ~  ``J * (matching sample fraction)``
* ``SUM(expr)``      ~  ``J * mean(expr over sample)``
* ``AVG(expr)``      ~  ``mean(expr over sample)``

The *weighted* family samples results proportionally to a per-result
weight, so :func:`hansen_hurwitz` reweights each draw by
``total_weight / weight``; the *subset* family includes each result
independently with a known probability, so :func:`horvitz_thompson`
scales by ``1 / inclusion_probability``.

Each estimate is returned with a normal-approximation standard error so
callers can form confidence intervals.  Degenerate inputs are
well-defined rather than exceptional:

* an exactly-empty population (``total == 0``) yields
  ``Estimate(0.0, 0.0)`` — the answer is known exactly;
* an empty sample over a non-empty population yields an infinite
  standard error (the sample carries no information);
* :meth:`Estimate.ci` returns ``None`` whenever no finite interval
  exists, instead of a ``(nan, nan)``/``(-inf, inf)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError


def zscore(confidence: float) -> float:
    """The two-sided normal critical value for ``confidence`` in (0,1)."""
    if not 0.0 < confidence < 1.0:
        raise InvalidArgumentError(
            f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its standard error."""

    value: float
    stderr: float

    def interval(self, z: float = 1.96):
        return (self.value - z * self.stderr, self.value + z * self.stderr)

    def ci(self, confidence: float = 0.95
           ) -> Optional[Tuple[float, float]]:
        """The two-sided normal CI, or ``None`` when undefined.

        ``None`` means the estimate carries no finite interval: the
        sample was empty over a non-empty population (infinite standard
        error) or the point estimate itself is undefined (NaN, e.g. the
        average of an empty group).
        """
        if math.isnan(self.value) or not math.isfinite(self.stderr):
            return None
        z = zscore(confidence)
        return (self.value - z * self.stderr,
                self.value + z * self.stderr)


def estimate_count(samples: Sequence[object], total: int,
                   predicate: Optional[Callable[[object], bool]] = None
                   ) -> Estimate:
    """Estimate ``COUNT(*) WHERE predicate`` over ``total`` join results.

    Without a ``predicate`` a sample counts when it is truthy (a
    precomputed hit mask).  ``total == 0`` (an exactly-empty join)
    returns ``Estimate(0, 0)``; an empty sample of a non-empty join
    returns ``Estimate(0, inf)``.
    """
    if total == 0:
        return Estimate(0.0, 0.0)
    n = len(samples)
    if n == 0:
        return Estimate(0.0, float("inf"))
    hits = len(list(filter(predicate, samples)))
    p = hits / n
    stderr = total * math.sqrt(max(p * (1 - p), 0.0) / n)
    return Estimate(total * p, stderr)


def estimate_sum(samples: Sequence[object], total: int,
                 value_of: Callable[[object], float]) -> Estimate:
    """Estimate ``SUM(value_of)`` over ``total`` join results.

    Degenerate inputs follow :func:`estimate_count`'s conventions.
    """
    if total == 0:
        return Estimate(0.0, 0.0)
    n = len(samples)
    if n == 0:
        return Estimate(0.0, float("inf"))
    values = [value_of(s) for s in samples]
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Estimate(total * mean, total * math.sqrt(var / n))


def estimate_avg(samples: Sequence[object],
                 value_of: Callable[[object], float],
                 predicate: Optional[Callable[[object], bool]] = None
                 ) -> Estimate:
    """Estimate ``AVG(value_of)`` (optionally over a filtered subset).

    An empty (or fully filtered-out) sample returns ``Estimate(nan,
    inf)`` — the average of nothing is undefined, and
    :meth:`Estimate.ci` maps it to ``None``.
    """
    kept = [s for s in samples if predicate is None or predicate(s)]
    n = len(kept)
    if n == 0:
        return Estimate(float("nan"), float("inf"))
    values = [value_of(s) for s in kept]
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / n))


def hansen_hurwitz(samples: Sequence[object],
                   weights: Sequence[float],
                   total_weight: float,
                   value_of: Callable[[object], float]) -> Estimate:
    """Hansen-Hurwitz estimator of ``SUM(value_of)`` for the weighted
    family.

    Each draw selected result ``i`` with probability ``w_i / W`` (the
    weighted reservoir kinds run uniform skips over ``W`` weighted
    units), so each draw contributes ``W * value_of(s_i) / w_i`` and
    the estimator is their mean.  ``value_of = 1`` estimates the result
    *count*; the exact weighted-unit total ``W`` is what
    ``total_results()`` reports on a weighted graph.
    """
    if len(samples) != len(weights):
        raise InvalidArgumentError(
            f"{len(samples)} samples but {len(weights)} weights")
    if total_weight == 0:
        return Estimate(0.0, 0.0)
    n = len(samples)
    if n == 0:
        return Estimate(0.0, float("inf"))
    contributions = []
    for sample, weight in zip(samples, weights):
        if weight <= 0:
            raise InvalidArgumentError(
                f"sample weight must be positive, got {weight!r}")
        contributions.append(total_weight * value_of(sample) / weight)
    mean = sum(contributions) / n
    if n > 1:
        var = sum((c - mean) ** 2 for c in contributions) / (n - 1)
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / n))


def horvitz_thompson(samples: Sequence[object],
                     inclusion_probs: Sequence[float],
                     value_of: Callable[[object], float]) -> Estimate:
    """Horvitz-Thompson estimator of ``SUM(value_of)`` for the subset
    family.

    Subset (Poisson) synopses include each result independently with a
    known probability ``pi_i = 1 - (1-p)^w`` which the engine exposes
    per sampled row; the estimator is ``sum(v_i / pi_i)`` with the
    Poisson-sampling variance estimate ``sum(v_i^2 (1-pi_i)/pi_i^2)``.

    An empty sample returns ``Estimate(0, inf)`` — under Poisson
    sampling it cannot be distinguished from an empty population here;
    callers that know the exact ``J == 0`` should short-circuit.
    """
    if len(samples) != len(inclusion_probs):
        raise InvalidArgumentError(
            f"{len(samples)} samples but {len(inclusion_probs)} "
            "inclusion probabilities")
    if not samples:
        return Estimate(0.0, float("inf"))
    estimate = 0.0
    variance = 0.0
    for sample, pi in zip(samples, inclusion_probs):
        if not 0.0 < pi <= 1.0:
            raise InvalidArgumentError(
                f"inclusion probability must be in (0, 1], got {pi!r}")
        v = value_of(sample)
        estimate += v / pi
        variance += v * v * (1.0 - pi) / (pi * pi)
    return Estimate(estimate, math.sqrt(max(variance, 0.0)))


def ratio_estimate(numerator: Estimate, denominator: Estimate
                   ) -> Estimate:
    """``numerator / denominator`` with a delta-method standard error.

    Used for AVG on the weighted/subset families (AVG = SUM / COUNT,
    both estimated).  The propagated variance ignores the covariance
    between the two estimates, which overstates the error when they are
    positively correlated — acceptable for a confidence bound.  A zero
    or undefined denominator yields ``Estimate(nan, inf)``.
    """
    if (denominator.value == 0 or math.isnan(denominator.value)
            or math.isnan(numerator.value)):
        return Estimate(float("nan"), float("inf"))
    r = numerator.value / denominator.value
    if not (math.isfinite(numerator.stderr)
            and math.isfinite(denominator.stderr)):
        return Estimate(r, float("inf"))
    variance = ((numerator.stderr / denominator.value) ** 2
                + (r * denominator.stderr / denominator.value) ** 2)
    return Estimate(r, math.sqrt(variance))
