"""Per-column statistics: equi-depth histograms + distinct counts.

The classic optimizer-statistics toolkit, collected by (sampled) table
scan: per column an equi-depth histogram over up to ``buckets`` quantile
boundaries, min/max, null count, and an estimated number of distinct
values.  These drive the selectivity estimates in
:mod:`repro.stats.selectivity`, which in turn size the residual-filter
over-allocation of §5.1.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.catalog.table import Table


@dataclass
class ColumnStats:
    """Summary of one column's value distribution."""

    column: str
    row_count: int
    null_count: int
    distinct_estimate: int
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    #: ascending equi-depth boundaries over the non-null sample
    boundaries: List[object] = field(default_factory=list)
    sample_size: int = 0

    # ------------------------------------------------------------------
    def fraction_below(self, value: object, inclusive: bool) -> float:
        """Estimated fraction of non-null values ``< value`` (or ``<=``)."""
        if self.sample_size == 0 or not self.boundaries:
            return 0.5
        if inclusive:
            pos = bisect_right(self.boundaries, value)
        else:
            pos = bisect_left(self.boundaries, value)
        return pos / len(self.boundaries)

    def fraction_between(self, lo: Optional[object], hi: Optional[object],
                         lo_open: bool = False,
                         hi_open: bool = False) -> float:
        """Estimated fraction of non-null values in the interval."""
        below_hi = 1.0 if hi is None else self.fraction_below(
            hi, inclusive=not hi_open
        )
        below_lo = 0.0 if lo is None else self.fraction_below(
            lo, inclusive=lo_open
        )
        return max(0.0, below_hi - below_lo)


@dataclass
class TableStats:
    """Statistics for every column of one table."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns[name]


def collect_stats(table: Table, buckets: int = 32,
                  sample_limit: int = 10_000,
                  seed: Optional[int] = 0) -> TableStats:
    """Scan (a sample of) ``table`` and build per-column statistics.

    When the table holds more than ``sample_limit`` live rows, a uniform
    reservoir sample of that size is used, as real systems do.
    """
    rng = random.Random(seed)
    rows: List[tuple] = []
    seen = 0
    for _, row in table.scan():
        seen += 1
        if len(rows) < sample_limit:
            rows.append(row)
        else:
            pick = rng.randrange(seen)
            if pick < sample_limit:
                rows[pick] = row
    stats = TableStats(table.schema.name, row_count=seen)
    for idx, col in enumerate(table.schema.columns):
        values = [row[idx] for row in rows if row[idx] is not None]
        nulls = sum(1 for row in rows if row[idx] is None)
        scaled_nulls = round(nulls / max(len(rows), 1) * seen) if rows else 0
        col_stats = ColumnStats(
            column=col.name,
            row_count=seen,
            null_count=scaled_nulls,
            distinct_estimate=_estimate_distinct(values, len(rows), seen),
            sample_size=len(values),
        )
        if values:
            ordered = sorted(values)
            col_stats.min_value = ordered[0]
            col_stats.max_value = ordered[-1]
            col_stats.boundaries = _equi_depth_boundaries(ordered, buckets)
        stats.columns[col.name] = col_stats
    return stats


def _equi_depth_boundaries(ordered: Sequence[object],
                           buckets: int) -> List[object]:
    n = len(ordered)
    count = min(buckets, n)
    return [
        ordered[min(n - 1, (b + 1) * n // (count + 1))]
        for b in range(count)
    ]


def _estimate_distinct(values: Sequence[object], sample_rows: int,
                       total_rows: int) -> int:
    """Distinct-count estimate with the standard sample scale-up
    (Goodman-style first-order correction via singleton counts)."""
    if not values:
        return 0
    counts: Dict[object, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    d_sample = len(counts)
    if sample_rows >= total_rows or sample_rows == 0:
        return d_sample
    singletons = sum(1 for c in counts.values() if c == 1)
    # values seen more than once are likely frequent; singletons scale up
    scale = total_rows / sample_rows
    return min(total_rows,
               round(d_sample - singletons + singletons * scale))
