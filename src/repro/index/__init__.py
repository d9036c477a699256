"""Index substrate: the aggregate order index.

The paper's weighted join graph is represented implicitly by one hash index
per range table plus ``2n-2`` *aggregate order indexes* (§4.3) — ordered
containers that additionally maintain aggregate sums of selected weights,
enabling ``lower_bound``-by-prefix-sum and range-sum queries with
``O(log n)`` key comparisons.  There is one implementation, a two-level
B+-tree of sorted blocks with running-sum arrays
(:class:`repro.index.aggregate.AggregateTree`), which replaced the paper's
pointer AVL tree in 12.0; ``docs/architecture.md`` ("Why one index")
records the measurements behind it and the alternatives it retired.
"""

from repro.index.aggregate import AggregateTree, TreeNode

__all__ = [
    "AggregateTree",
    "TreeNode",
]
