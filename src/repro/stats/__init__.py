"""System statistics: per-column summaries and selectivity estimation.

§5.1 of the paper sizes the over-allocation for residual multi-table
filters using "existing system statistics" to estimate the filter
selectivity ``f``.  This subpackage provides those statistics: per-column
equi-depth histograms and distinct-value sketches maintained from table
samples, plus a selectivity estimator for the predicate forms the library
supports (theta predicates between two columns).
"""

from repro.stats.column_stats import ColumnStats, TableStats, collect_stats
from repro.stats.selectivity import estimate_theta_selectivity

__all__ = [
    "ColumnStats",
    "TableStats",
    "collect_stats",
    "estimate_theta_selectivity",
]
