"""Index substrate: the aggregate AVL tree and vertex hash indexes.

The paper's weighted join graph is represented implicitly by one hash index
per range table plus ``2n-2`` *aggregate order indexes* (§4.3) — ordered
containers that additionally maintain aggregate sums of selected weights,
enabling ``lower_bound``-by-prefix-sum and range-sum queries in logarithmic
time.  There is one implementation, the paper's aggregate AVL tree
(:class:`repro.index.avl.AggregateTree`); ``docs/architecture.md`` ("Why
one index") records the measurements that retired the alternatives.
"""

from repro.index.api import IndexRange
from repro.index.avl import AggregateTree, TreeNode
from repro.index.hash_index import HashIndex

__all__ = [
    "AggregateTree",
    "HashIndex",
    "IndexRange",
    "TreeNode",
]
