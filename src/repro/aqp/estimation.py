"""Turning a synopsis snapshot into an error-bounded answer.

The registry hands this module one
:class:`~repro.core.entries.Snapshot` — the sampled result tuples, the
heap rows they name, their per-row sampling metadata, the synopsis
family and the exact population total, the record a published view
holds for the query — plus the parsed
:class:`~repro.query.query.JoinQuery` and the database (for its
schemas).  From those it answers ``COUNT``/``SUM``/``AVG`` (optionally
grouped and filtered) with the matching survey estimator:

* ``uniform``  — classic scaled-sample estimators (``J * p``, ...);
* ``weighted`` — Hansen-Hurwitz over the weighted-unit total ``W``;
* ``subset``   — Horvitz-Thompson over per-row inclusion
  probabilities.

An estimate is a function of the snapshot and the request alone.  The
snapshot carries each sample's heap rows, resolved once when the sample
entered the synopsis (:mod:`repro.core.entries`; TIDs are never reused
and row payloads are immutable, so a possibly-stale view still answers
from the rows it was published with, even if they were deleted since).
The request is checked against the schemas and compiled once into
``(evaluate, table index, column index, value)`` terms, then evaluated
a column at a time: one mask, one value column and one key column per
request.  Each term is one list comprehension that indexes a sample's
row and compares it in the same pass, picked by comparison from a
fixed table (a NULL-able column adds the SQL ``is not None`` test), and
a hit count is one builtin — no Python call runs per sample.

The survey estimators at the bottom of the module take those
precomputed lists.  Each returns an :class:`Estimate` with a
normal-approximation standard error, and degenerate inputs are defined
rather than exceptional: an exactly-empty population (``total == 0``)
is ``Estimate(0.0, 0.0)``, an empty sample of a non-empty one has an
infinite standard error, and :meth:`Estimate.ci` is ``None`` whenever
no finite interval exists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, DataType
from repro.core.entries import HeapRows, Snapshot
from repro.errors import InvalidArgumentError
from repro.query.query import JoinQuery

AGGREGATES = ("count", "sum", "avg")

_OPS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: one pass per comparison over a NOT NULL column: index each sample's
#: row and compare it in one comprehension, with no call per sample
_FUSED: Dict[Callable[[object, object], bool], Callable] = {
    operator.eq: lambda rows, t, c, v: [s[t][c] == v for s in rows],
    operator.ne: lambda rows, t, c, v: [s[t][c] != v for s in rows],
    operator.lt: lambda rows, t, c, v: [s[t][c] < v for s in rows],
    operator.le: lambda rows, t, c, v: [s[t][c] <= v for s in rows],
    operator.gt: lambda rows, t, c, v: [s[t][c] > v for s in rows],
    operator.ge: lambda rows, t, c, v: [s[t][c] >= v for s in rows],
}

#: a compiled ``where`` condition: its evaluator (rows, table index,
#: column index, literal -> one bool per sample), then those three
Term = Tuple[Callable[[Sequence[HeapRows], int, int, object], List[bool]],
             int, int, object]


def _zscore(confidence: float) -> float:
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
        z = _zscore(confidence)
        return (self.value - z * self.stderr,
                self.value + z * self.stderr)


# ----------------------------------------------------------------------
# compiling a request: every check happens here, against the schemas,
# so a malformed request fails the same way on any synopsis content
# ----------------------------------------------------------------------
def locate_column(query: JoinQuery, db, ref) -> Tuple[int, int, Column]:
    """Where ``alias.attr`` sits in a sample's heap rows — (range-table
    index, column index) — and its schema :class:`Column`."""
    alias, _, attr = (ref if isinstance(ref, str) else "").partition(".")
    if not alias or not attr:
        raise InvalidArgumentError(
            f"column reference {ref!r} must look like alias.attr")
    t_idx = query.index_of(alias)
    schema = db.table(query.range_tables[t_idx].table_name).schema
    c_idx = schema.index_of(attr)
    return t_idx, c_idx, schema.columns[c_idx]


def compile_where(query: JoinQuery, db, where) -> List[Term]:
    """Compile a conjunctive ``where`` list into comparison terms.

    ``where`` is a JSON-shaped list of ``{"column": "alias.attr",
    "op": "<=", "value": 42}`` conditions; ``None``/empty accepts
    every row.  A value that cannot be compared with its column's
    :class:`~repro.catalog.schema.DataType` is refused here.
    """
    if where is None:
        return []
    if not isinstance(where, (list, tuple)):
        raise InvalidArgumentError(
            f"where must be a list of conditions, got {where!r}")
    terms: List[Term] = []
    for cond in where:
        if not isinstance(cond, dict):
            raise InvalidArgumentError(
                f"where condition must be an object, got {cond!r}")
        missing = {"column", "op", "value"} - set(cond)
        if missing:
            raise InvalidArgumentError(
                f"where condition is missing {sorted(missing)}")
        op, ref, value = cond["op"], cond["column"], cond["value"]
        if not isinstance(op, str) or op not in _OPS:
            raise InvalidArgumentError(
                f"unknown comparison operator {op!r}; expected one of "
                f"{sorted(set(_OPS))}")
        t_idx, c_idx, column = locate_column(query, db, ref)
        # any number compares with a numeric column (``qty <= 2.5``);
        # otherwise the literal must be of the column's own type
        literal = (DataType.FLOAT if column.dtype.is_numeric
                   else column.dtype)
        if value is None or not literal.validate(value):
            raise InvalidArgumentError(
                f"cannot compare {ref} ({column.dtype.value}) with "
                f"{value!r}")
        if isinstance(value, float) and math.isnan(value):
            # every comparison with NaN is False (!= is True): the
            # answer would be 0 or J with a zero-width interval
            raise InvalidArgumentError(
                f"cannot compare {ref} with NaN")
        compare = _OPS[op]
        evaluate = (_nullable(compare) if column.nullable
                    else _FUSED[compare])
        terms.append((evaluate, t_idx, c_idx, value))
    return terms


# ----------------------------------------------------------------------
# evaluating it, a column at a time
# ----------------------------------------------------------------------
def _column(rows: Sequence[HeapRows], t_idx: int, c_idx: int) -> list:
    return [sample[t_idx][c_idx] for sample in rows]


def _nullable(compare: Callable[[object, object], bool]) -> Callable:
    """The evaluator of ``compare`` over a NULL-able column (SQL: a NULL
    satisfies no condition)."""
    def evaluate(rows, t_idx, c_idx, value):
        return [held is not None and compare(held, value)
                for held in _column(rows, t_idx, c_idx)]
    return evaluate


def _mask(rows: Sequence[HeapRows], terms: Sequence[Term]) -> List[bool]:
    """Per sample, whether it satisfies every term."""
    if not terms:
        return [True] * len(rows)
    (evaluate, t_idx, c_idx, value), *rest = terms
    mask = evaluate(rows, t_idx, c_idx, value)
    for evaluate, t_idx, c_idx, value in rest:
        mask = list(map(operator.and_, mask,
                        evaluate(rows, t_idx, c_idx, value)))
    return mask


def _family_sum(family: str, total: int, values: list,
                scale: Optional[List[float]]) -> Estimate:
    """Family-dispatched estimator of the join-wide SUM of per-sample
    ``values`` (``scale``: the weights / inclusion probabilities)."""
    if family == "weighted":
        return _hansen_hurwitz(values, scale, total)
    if family == "subset":
        if total == 0:
            # the graph maintains the exact total: an empty join is an
            # exact zero, not an uninformative empty Poisson sample
            return Estimate(0.0, 0.0)
        return _horvitz_thompson(values, scale)
    return _sum(values, total)


def _aggregate(family: str, total: int, agg: str, hits: List[bool],
               values: Optional[list],
               scale: Optional[List[float]]) -> Estimate:
    """``agg`` over the samples ``hits`` selects; ``values`` holds the
    aggregated column where it does and 0.0 elsewhere."""
    if agg == "count":
        if family == "uniform":
            return _count(hits, total)
        return _family_sum(family, total, hits, scale)
    if agg == "avg" and family == "uniform":
        return _mean(list(compress(values, hits)))
    total_est = _family_sum(family, total, values, scale)
    if agg == "sum":
        return total_est
    return _ratio(total_est, _family_sum(family, total, hits, scale))


def _scatter(blank: list, positions: Sequence[int], source: list) -> list:
    """``blank`` with ``source``'s entries copied in at ``positions``."""
    out = blank.copy()
    for position in positions:
        out[position] = source[position]
    return out


def _estimate_fields(est: Estimate, confidence: float) -> dict:
    """JSON-safe value/stderr/ci triple (NaN/inf become null)."""
    ci = est.ci(confidence)
    return {
        "value": None if math.isnan(est.value) else est.value,
        "stderr": est.stderr if math.isfinite(est.stderr) else None,
        "ci": list(ci) if ci is not None else None,
    }


def estimate_from_snapshot(
    query: JoinQuery,
    db,
    snapshot: Snapshot,
    agg: str = "count",
    *,
    column: Optional[str] = None,
    where=None,
    group_by: Optional[str] = None,
    confidence: float = 0.95,
) -> dict:
    """Answer one aggregate query from a synopsis snapshot.

    Returns a JSON-able payload: the point estimate, its standard
    error, the two-sided normal CI at ``confidence`` (``null`` when no
    finite interval exists), and — with ``group_by`` — one such triple
    per observed group, heaviest first.

    A malformed request is an
    :class:`~repro.errors.InvalidArgumentError` whatever the synopsis
    holds: an unknown aggregate, ``SUM``/``AVG`` without a numeric
    column, a ``where`` value of the wrong type for its column, a
    ``confidence`` that is not a number in (0, 1).  NULLs follow SQL: a
    NULL satisfies no condition and is left out of ``SUM``/``AVG``.
    """
    agg = str(agg).lower()
    if agg not in AGGREGATES:
        raise InvalidArgumentError(
            f"unknown aggregate {agg!r}; expected one of {AGGREGATES}")
    if agg in ("sum", "avg") and column is None:
        raise InvalidArgumentError(f"{agg} needs a column (alias.attr)")
    if (not isinstance(confidence, (int, float))
            or not 0.0 < confidence < 1.0):
        raise InvalidArgumentError(
            f"confidence must be a number in (0, 1), got {confidence!r}")
    terms = compile_where(query, db, where)
    value_at = key_at = None
    if column is not None:
        value_at = locate_column(query, db, column)
        if agg != "count" and not value_at[2].dtype.is_numeric:
            raise InvalidArgumentError(
                f"{agg} needs a numeric column; {column} is "
                f"{value_at[2].dtype.value}")
    if group_by is not None:
        key_at = locate_column(query, db, group_by)

    family, total, rows = snapshot.family, snapshot.total, snapshot.rows
    mask = _mask(rows, terms)
    values = None
    if agg != "count":
        values = _column(rows, value_at[0], value_at[1])
        if value_at[2].nullable:
            mask = [hit and value is not None
                    for hit, value in zip(mask, values)]
    scale = None
    if family == "weighted":
        scale = [float(m.get("weight", 1)) for m in snapshot.meta]
    elif family == "subset":
        scale = [float(m.get("inclusion_probability", 1.0))
                 for m in snapshot.meta]
    payload: dict = {
        "agg": agg,
        "family": family,
        "total_results": total,
        "sample_size": len(rows),
        "confidence": confidence,
    }
    if snapshot.epoch is not None:
        payload["epoch"] = snapshot.epoch
    if column is not None:
        payload["column"] = column
    if key_at is None:
        if values is not None:
            values = [value if hit else 0.0
                      for value, hit in zip(values, mask)]
        est = _aggregate(family, total, agg, mask, values, scale)
        payload.update(_estimate_fields(est, confidence))
        return payload
    # GROUP BY: one family-dispatched estimate per observed key, each
    # over the whole sample with that group's members switched on (for
    # uniform synopses this reduces to binomial per-group math)
    keys = _column(rows, key_at[0], key_at[1])
    members: Dict[object, List[int]] = {}
    for position in compress(range(len(rows)), mask):
        members.setdefault(keys[position], []).append(position)
    nobody, zeros = [False] * len(rows), [0.0] * len(rows)
    groups = []
    for key, positions in members.items():
        est = _aggregate(
            family, total, agg, _scatter(nobody, positions, mask),
            None if values is None
            else _scatter(zeros, positions, values), scale)
        entry = {"key": key}
        entry.update(_estimate_fields(est, confidence))
        groups.append(entry)
    groups.sort(key=lambda g: (-(g["value"] if g["value"] is not None
                                 else float("-inf")), repr(g["key"])))
    payload["group_by"] = group_by
    payload["groups"] = groups
    return payload


# ----------------------------------------------------------------------
# the survey estimators, over per-sample value lists.  Uniform: COUNT ~
# J * (hit fraction), SUM ~ J * mean, AVG ~ mean.  Weighted: each draw
# picked result i with probability w_i / W, so Hansen-Hurwitz averages
# W * v_i / w_i.  Subset: each result is in independently with a known
# probability pi_i = 1 - (1-p)^w, so Horvitz-Thompson sums v_i / pi_i.
# ----------------------------------------------------------------------
def _count(hits: Sequence[bool], total: int) -> Estimate:
    """``COUNT`` over ``total`` join results from a per-sample hit
    mask."""
    if total == 0:
        return Estimate(0.0, 0.0)
    n = len(hits)
    if n == 0:
        return Estimate(0.0, float("inf"))
    p = len(list(filter(None, hits))) / n
    stderr = total * math.sqrt(max(p * (1 - p), 0.0) / n)
    return Estimate(total * p, stderr)


def _mean(values: Sequence[float]) -> Estimate:
    """The sample mean (``AVG``; ``Estimate(nan, inf)`` over nothing,
    which :meth:`Estimate.ci` maps to ``None``)."""
    n = len(values)
    if n == 0:
        return Estimate(float("nan"), float("inf"))
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / n))


def _sum(values: Sequence[float], total: int) -> Estimate:
    """``SUM`` over ``total`` join results: ``total`` times the mean."""
    if total == 0:
        return Estimate(0.0, 0.0)
    if not values:
        return Estimate(0.0, float("inf"))
    mean = _mean([float(v) for v in values])
    return Estimate(total * mean.value, total * mean.stderr)


def _hansen_hurwitz(values: Sequence[float], weights: Sequence[float],
                    total_weight: float) -> Estimate:
    """Hansen-Hurwitz ``SUM`` for the weighted family; ``total_weight``
    is the exact weighted-unit total ``W`` the graph reports, and
    summing hits (``1.0`` each) estimates the result count."""
    if len(values) != len(weights):
        raise InvalidArgumentError(
            f"{len(values)} samples but {len(weights)} weights")
    if total_weight == 0:
        return Estimate(0.0, 0.0)
    if not values:
        return Estimate(0.0, float("inf"))
    contributions = []
    for value, weight in zip(values, weights):
        if weight <= 0:
            raise InvalidArgumentError(
                f"sample weight must be positive, got {weight!r}")
        contributions.append(total_weight * float(value) / weight)
    return _mean(contributions)


def _horvitz_thompson(values: Sequence[float],
                      inclusion_probs: Sequence[float]) -> Estimate:
    """Horvitz-Thompson ``SUM`` for the subset family, with the
    Poisson-sampling variance ``sum(v_i^2 (1-pi_i)/pi_i^2)``.  An empty
    sample is ``Estimate(0, inf)``: callers that know ``J == 0``
    short-circuit."""
    if len(values) != len(inclusion_probs):
        raise InvalidArgumentError(
            f"{len(values)} samples but {len(inclusion_probs)} "
            "inclusion probabilities")
    if not values:
        return Estimate(0.0, float("inf"))
    estimate = 0.0
    variance = 0.0
    for value, pi in zip(values, inclusion_probs):
        if not 0.0 < pi <= 1.0:
            raise InvalidArgumentError(
                f"inclusion probability must be in (0, 1], got {pi!r}")
        v = float(value)
        estimate += v / pi
        variance += v * v * (1.0 - pi) / (pi * pi)
    return Estimate(estimate, math.sqrt(max(variance, 0.0)))


def _ratio(numerator: Estimate, denominator: Estimate) -> Estimate:
    """``numerator / denominator`` (AVG = SUM / COUNT on the weighted
    and subset families) with a delta-method standard error that
    ignores their covariance; a zero or undefined denominator is
    ``Estimate(nan, inf)``."""
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
