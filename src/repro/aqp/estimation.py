"""Turning a synopsis snapshot into an error-bounded answer.

The registry hands this module one
:class:`~repro.core.entries.Snapshot` — the sampled result tuples, the
heap rows they name, their per-row scales, the synopsis
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
The snapshot's samples are the first selection: those that pass the
query's residual filters (§5.1), out of ``n`` = its ``drawn``.  The
request is checked against the schemas and compiled once into
``(select, table index, column index, value)`` terms.  The terms then
narrow it: each is one list comprehension over what the terms before
it kept, indexing a sample's row, comparing it and keeping the sample
in the same pass.  A kept sample is its heap rows, paired with its
scale column entry as ``(heap rows, scale)`` on the weighted and subset
families wherever a term, a group or a NULL could drop it.  The
comprehensions are generated from one template over comparison ×
NULL-able column (which adds the SQL ``is not None`` test) × that
shape, so no Python call runs per sample.

Every aggregate reads that one selection of ``k`` out of the ``n``
samples: a uniform ``COUNT`` is ``J * k / n``; ``SUM`` and ``AVG`` read
their column off the kept samples only, dropping NULLs in the same
comprehension.  ``GROUP BY`` buckets the selection once and answers
each group from its own members; the samples outside a group enter its
variance in closed form (as the ``n - k`` zeros of a padded mean), so
a grouped answer costs O(n + groups), not a pass per group.

The survey estimators at the bottom of the module take the kept values,
their scales and ``n``.  Each returns an :class:`Estimate` with a
normal-approximation standard error, and degenerate inputs are defined
rather than exceptional: an exactly-empty population (``total == 0``)
is ``Estimate(0.0, 0.0)``, an empty sample of a non-empty one has an
infinite standard error, and :meth:`Estimate.ci` is ``None`` whenever
no finite interval exists.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, DataType
from repro.core.entries import Snapshot
from repro.errors import InvalidArgumentError
from repro.query.query import JoinQuery

AGGREGATES = ("count", "sum", "avg")

#: each SQL spelling of a comparison, as the Python operator it runs
_OPS: Dict[str, str] = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _template(keep: str, test: Optional[str],
              paired_keep: Optional[str] = None) -> Tuple[Callable, Callable]:
    """The one template, ``[keep for x in selection if test]`` as a
    function of ``(selection, t, c, v)``, for both shapes of a kept
    sample ``x``, indexed by whether it is paired with a scale
    (``paired_keep``: what a paired sample keeps, when not ``keep``).
    ``held`` stands for ``x``'s value at (table ``t``, column ``c``):
    ``x[t][c]``, or ``x[0][t][c]`` in a ``(heap rows, scale)`` pair."""
    condition = f" if {test}" if test else ""
    shapes = []
    for kept, held in ((keep, "x[t][c]"), (paired_keep or keep,
                                            "x[0][t][c]")):
        source = f"[{kept} for x in selection{condition}]"
        shapes.append(eval("lambda selection, t, c, v: "
                           + source.replace("held", held)))
    return shapes[0], shapes[1]


#: (Python operator, NULL-able) -> the term that keeps the samples
#: satisfying ``held <op> v``; a NULL satisfies no comparison
_SELECT: Dict[Tuple[str, bool], Tuple[Callable, Callable]] = {
    (op, nullable): _template("x", (f"(h := held) is not None and h {op} v"
                                    if nullable else f"held {op} v"))
    for op in set(_OPS.values()) for nullable in (False, True)
}

#: the column at (t, c) of each kept sample, NULLs included (group keys)
_COLUMN = _template("held", None)

#: NULL-able -> the aggregated column off the kept samples, NULLs
#: dropped in the same pass; a paired sample gives ``(value, scale)``
_VALUES: Dict[bool, Tuple[Callable, Callable]] = {
    False: _template("held", None, "(held, x[1])"),
    True: _template("h", "(h := held) is not None", "(h, x[1])"),
}

#: a compiled ``where`` condition: its selecting comprehension for each
#: shape (selection, table index, column index, literal -> the kept
#: samples), then those three
Term = Tuple[Tuple[Callable, Callable], int, int, object]


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
    """Compile a conjunctive ``where`` list into selecting terms.

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
        terms.append((_SELECT[_OPS[op], column.nullable], t_idx, c_idx,
                      value))
    return terms


# ----------------------------------------------------------------------
# answering it from one selection
# ----------------------------------------------------------------------
def _family_sum(family: str, total: int, values: Optional[Sequence],
                scales: Sequence, n: int) -> Estimate:
    """Hansen-Hurwitz (weighted) or Horvitz-Thompson (subset) ``SUM``
    over the kept ``values`` (None: 1.0 each) and ``scales`` of ``n``."""
    if family == "weighted":
        return _hansen_hurwitz(values, scales, total, n)
    if total == 0:
        # the graph maintains the exact total: an empty join is an
        # exact zero, not an uninformative empty Poisson sample
        return Estimate(0.0, 0.0)
    return _horvitz_thompson(values, scales, n)


def _aggregate(family: str, total: int, n: int, agg: str, kept: Sequence,
               scales: Optional[Sequence] = None) -> Estimate:
    """``agg`` over ``kept`` out of ``n`` samples (for ``SUM``/``AVG``
    the values read off them) and, off the uniform family, ``scales``."""
    if family == "uniform":
        if agg == "count":
            return _count(len(kept), n, total)
        if agg == "avg":
            return _mean(kept)
        return _sum(kept, total, n)
    if agg == "count":
        return _family_sum(family, total, None, scales, n)
    total_est = _family_sum(family, total, kept, scales, n)
    if agg == "sum":
        return total_est
    return _ratio(
        total_est, _family_sum(family, total, None, scales, n),
        lambda r: _family_sum(family, total, [v - r for v in kept],
                              scales, n))


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
    Under ``group_by`` NULL is one group, and so is NaN.
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

    # §5.1: n counts the plan-level samples, the failing ones too
    family, total, rows = snapshot.family, snapshot.total, snapshot.rows
    n, scales = snapshot.drawn, snapshot.scales
    # a sample carries its scale only where it could be dropped: by a
    # term, into a group, or for a NULL the aggregate leaves out
    paired = scales is not None and bool(terms or key_at is not None or (
        agg != "count" and value_at[2].nullable))
    selection = list(zip(rows, scales)) if paired else rows
    for select, t_idx, c_idx, value in terms:
        selection = select[paired](selection, t_idx, c_idx, value)

    def read(kept: list) -> Tuple[list, Optional[Sequence]]:
        """What ``agg`` reads off ``kept``, and their scales."""
        values = kept if agg == "count" else _VALUES[
            value_at[2].nullable][paired](kept, value_at[0], value_at[1], None)
        if not paired:
            return values, scales
        if agg == "count":
            return kept, [x[1] for x in kept]
        return [v for v, _ in values], [s for _, s in values]

    payload: dict = {
        "agg": agg,
        "family": family,
        "total_results": total,
        "sample_size": n,
        "confidence": confidence,
    }
    if snapshot.epoch is not None:
        payload["epoch"] = snapshot.epoch
    if column is not None:
        payload["column"] = column
    if key_at is None:
        kept, kept_scales = read(selection)
        est = _aggregate(family, total, n, agg, kept, kept_scales)
        payload.update(_estimate_fields(est, confidence))
        return payload
    # GROUP BY: the selection bucketed once, in first-seen order; each
    # group's estimate reads its own members (for uniform synopses this
    # is binomial per-group math)
    keys = _COLUMN[paired](selection, key_at[0], key_at[1], None)
    if key_at[2].dtype is DataType.FLOAT:
        # NaN != NaN: without this each NaN object would be a group
        keys = [math.nan if key != key else key for key in keys]
    members: Dict[object, list] = defaultdict(list)
    for key, sample in zip(keys, selection):
        members[key].append(sample)
    groups = []
    for key, in_group in members.items():
        kept, kept_scales = read(in_group)
        if not kept:
            # every member's value is NULL: the group is filtered out
            continue
        entry = {"key": key}
        entry.update(_estimate_fields(
            _aggregate(family, total, n, agg, kept, kept_scales),
            confidence))
        groups.append(entry)
    groups.sort(key=lambda g: (-(g["value"] if g["value"] is not None
                                 else float("-inf")), repr(g["key"])))
    payload["group_by"] = group_by
    payload["groups"] = groups
    return payload


# ----------------------------------------------------------------------
# the survey estimators, over the kept values of n samples (the other
# n - k count as zeros).  Uniform: COUNT ~ J * k / n, SUM ~ J * mean,
# AVG ~ mean.  Weighted: each draw picked result i with probability
# w_i / W, so Hansen-Hurwitz averages W * v_i / w_i.  Subset: each
# result is in independently with a known probability
# pi_i = 1 - (1-p)^w, so Horvitz-Thompson sums v_i / pi_i.
# ----------------------------------------------------------------------
def _count(kept: int, n: int, total: int) -> Estimate:
    """``COUNT`` over ``total`` join results when ``kept`` of ``n``
    samples satisfy the request."""
    if total == 0:
        return Estimate(0.0, 0.0)
    if n == 0:
        return Estimate(0.0, float("inf"))
    p = kept / n
    stderr = total * math.sqrt(max(p * (1 - p), 0.0) / n)
    return Estimate(total * p, stderr)


def _mean(values: Sequence[float], n: Optional[int] = None) -> Estimate:
    """The mean of ``values`` padded with zeros to ``n`` (default: no
    padding), with the sample variance ``(Σ (v - mean)² + (n - k) ·
    mean²) / (n - 1)``; ``Estimate(nan, inf)`` over nothing, which
    :meth:`Estimate.ci` maps to ``None``."""
    k = len(values)
    if n is None:
        n = k
    if n == 0:
        return Estimate(float("nan"), float("inf"))
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values)
        if n > k:
            var += (n - k) * mean * mean
        var /= n - 1
    else:
        var = 0.0
    return Estimate(mean, math.sqrt(var / n))


def _sum(values: Sequence[float], total: int,
         n: Optional[int] = None) -> Estimate:
    """``SUM`` over ``total`` join results: ``total`` times the mean of
    ``values`` padded with zeros to ``n`` samples."""
    if total == 0:
        return Estimate(0.0, 0.0)
    if n is None:
        n = len(values)
    if n == 0:
        return Estimate(0.0, float("inf"))
    mean = _mean([float(v) for v in values], n)
    return Estimate(total * mean.value, total * mean.stderr)


def _hansen_hurwitz(values: Optional[Sequence[float]],
                    weights: Sequence[float], total_weight: float,
                    n: int) -> Estimate:
    """Hansen-Hurwitz ``SUM`` for the weighted family over the kept
    draws' ``values`` (None: ``1.0`` each, the result count) and
    ``weights`` (checked positive by the entry store), of ``n`` draws;
    ``total_weight`` is the exact ``W``."""
    if len(weights) > n:
        raise InvalidArgumentError(
            f"{len(weights)} kept draws out of {n}")
    if total_weight == 0:
        return Estimate(0.0, 0.0)
    if n == 0:
        return Estimate(0.0, float("inf"))
    if values is None:
        unit = total_weight * 1.0
        return _mean([unit / weight for weight in weights], n)
    return _mean([total_weight * float(value) / weight
                  for value, weight in zip(values, weights)], n)


def _horvitz_thompson(values: Optional[Sequence[float]],
                      pis: Sequence[float], n: int) -> Estimate:
    """Horvitz-Thompson ``SUM`` for the subset family over the kept
    draws' ``values`` (None: ``1.0`` each) and inclusion probabilities
    ``pis`` (checked in (0, 1] by the entry store), of ``n`` draws,
    with the Poisson-sampling variance ``sum(v_i^2 (1-pi_i)/pi_i^2)``.
    An empty sample is ``Estimate(0, inf)``: callers that know
    ``J == 0`` short-circuit."""
    if len(pis) > n:
        raise InvalidArgumentError(
            f"{len(pis)} kept draws out of {n}")
    if n == 0:
        return Estimate(0.0, float("inf"))
    if values is None:     # v = 1.0, exactly as below
        estimate = sum([1.0 / pi for pi in pis], 0.0)
        variance = sum([(1.0 - pi) / (pi * pi) for pi in pis], 0.0)
    else:
        values = [float(value) for value in values]
        estimate = sum([v / pi for v, pi in zip(values, pis)], 0.0)
        variance = sum([v * v * (1.0 - pi) / (pi * pi)
                        for v, pi in zip(values, pis)], 0.0)
    return Estimate(estimate, math.sqrt(max(variance, 0.0)))


def _ratio(numerator: Estimate, denominator: Estimate,
           residual: Callable[[float], Estimate]) -> Estimate:
    """``R = numerator / denominator`` (AVG = SUM / COUNT on the
    weighted and subset families) with the linearised standard error
    ``stderr(residual(R)) / |denominator|``: ``residual(R)`` is the
    family's ``SUM`` of ``v_i - R`` over the kept draws, which carries
    the covariance of the two totals.  For Hansen-Hurwitz that is the
    sample variance of ``z_i - R·y_i`` over the n draws over ``n·D²``;
    for Horvitz-Thompson ``Σ (1 - pi_i)/pi_i² · (v_i - R)² / D²``.  A
    zero or undefined denominator is ``Estimate(nan, inf)``."""
    if (denominator.value == 0 or math.isnan(denominator.value)
            or math.isnan(numerator.value)):
        return Estimate(float("nan"), float("inf"))
    r = numerator.value / denominator.value
    if not (math.isfinite(numerator.stderr)
            and math.isfinite(denominator.stderr)):
        return Estimate(r, float("inf"))
    return Estimate(r, residual(r).stderr / abs(denominator.value))
