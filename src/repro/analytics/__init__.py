"""Synopsis consumers: the downstream tasks the paper motivates (§1-§3).

A join synopsis is a uniform, independent sample of the join result, so it
feeds any estimator that expects i.i.d. input: unbiased aggregate
estimation scaled by the exactly-known join cardinality ``J`` (which the
weighted join graph maintains for free).  GROUP BY is answered by the
served path, :meth:`repro.aqp.RegisteredQuery.estimate` with ``group_by``.
"""

from repro.analytics.estimators import (
    Estimate,
    estimate_avg,
    estimate_count,
    estimate_sum,
    hansen_hurwitz,
    horvitz_thompson,
    ratio_estimate,
    zscore,
)

__all__ = [
    "Estimate",
    "estimate_count",
    "estimate_sum",
    "estimate_avg",
    "hansen_hurwitz",
    "horvitz_thompson",
    "ratio_estimate",
    "zscore",
]
