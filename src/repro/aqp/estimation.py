"""Turning a synopsis snapshot into an error-bounded answer.

The registry hands this module one :class:`Snapshot` — the sampled
result tuples, the heap rows they name, their per-row sampling metadata,
the synopsis family and the exact population total, all read from one
epoch-consistent view — plus the parsed
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
``(table index, column index, comparison, value)`` terms, then
evaluated a column at a time: one mask, one value column and one key
column per request.  :mod:`repro.analytics.estimators` does the
arithmetic, fed those precomputed lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analytics import (
    Estimate,
    estimate_avg,
    estimate_count,
    estimate_sum,
    hansen_hurwitz,
    horvitz_thompson,
    ratio_estimate,
)
from repro.catalog.schema import Column, DataType
from repro.core.entries import HeapRows
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

#: a compiled ``where`` condition: table index, column index,
#: comparison, literal, and whether the column may hold NULLs
Term = Tuple[int, int, Callable[[object, object], bool], object, bool]


@dataclass(frozen=True)
class Snapshot:
    """One epoch-consistent read of a registered query's synopsis.

    ``total`` is what the weighted join graph reports for the family:
    the exact join cardinality ``J`` for uniform/subset synopses and
    the exact weighted-unit total ``W`` for weighted ones.  ``results``
    are original-range-table TID tuples; ``meta`` (``weight``, plus
    ``inclusion_probability`` on the subset family) and ``rows`` (the
    heap row tuples those TIDs name) are aligned with it index for
    index.  ``epoch`` is None when reading a bare manager (no view
    machinery in between).
    """

    family: str
    total: int
    results: Tuple[Tuple[int, ...], ...]
    meta: Tuple[Mapping, ...]
    rows: Tuple[HeapRows, ...]
    epoch: Optional[int] = None


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
        terms.append((t_idx, c_idx, _OPS[op], value, column.nullable))
    return terms


# ----------------------------------------------------------------------
# evaluating it, a column at a time
# ----------------------------------------------------------------------
def _column(rows: Sequence[HeapRows], t_idx: int, c_idx: int) -> list:
    return [sample[t_idx][c_idx] for sample in rows]


def _mask(rows: Sequence[HeapRows], terms: Sequence[Term]) -> List[bool]:
    """Per sample, whether it satisfies every term (SQL: a NULL
    satisfies none)."""
    mask = [True] * len(rows)
    for number, (t_idx, c_idx, compare, value, nullable) in enumerate(terms):
        column = _column(rows, t_idx, c_idx)
        if nullable:
            hits = [held is not None and compare(held, value)
                    for held in column]
        else:
            hits = list(map(compare, column, repeat(value)))
        mask = hits if number == 0 else list(map(operator.and_, mask, hits))
    return mask


def _as_is(value):
    return value


def _family_sum(family: str, total: int, values: list,
                scale: Optional[List[float]]) -> Estimate:
    """Family-dispatched estimator of the join-wide SUM of per-sample
    ``values`` (``scale``: the weights / inclusion probabilities)."""
    if family == "weighted":
        return hansen_hurwitz(values, scale, total, float)
    if family == "subset":
        if total == 0:
            # the graph maintains the exact total: an empty join is an
            # exact zero, not an uninformative empty Poisson sample
            return Estimate(0.0, 0.0)
        return horvitz_thompson(values, scale, float)
    return estimate_sum(values, total, float)


def _aggregate(family: str, total: int, agg: str, hits: List[bool],
               values: Optional[list],
               scale: Optional[List[float]]) -> Estimate:
    """``agg`` over the samples ``hits`` selects; ``values`` holds the
    aggregated column where it does and 0.0 elsewhere."""
    if agg == "count":
        if family == "uniform":
            return estimate_count(hits, total, operator.truth)
        return _family_sum(family, total, hits, scale)
    if agg == "avg" and family == "uniform":
        return estimate_avg(list(compress(values, hits)), _as_is)
    total_est = _family_sum(family, total, values, scale)
    if agg == "sum":
        return total_est
    return ratio_estimate(total_est,
                          _family_sum(family, total, hits, scale))


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
