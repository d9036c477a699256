"""Query layer: predicates, query specs, SQL parsing, query trees, planning.

The paper considers SPJ queries whose join predicates are of the two forms

* ``R_i.A_p op c * R_j.A_q + d``      (op in <, <=, >, >=, =)
* ``|R_i.A_p - c * R_j.A_q| lt d``    (lt in <, <=)

i.e. predicates expressible as a (possibly open) range of one attribute in
terms of the other (§2).  This subpackage models those predicates, parses a
small SQL dialect into :class:`JoinQuery` objects, builds the unrooted query
tree with cycle breaking (§4.1), and plans the weighted-join-graph layout
including the foreign-key collapse rewrite used by SJoin-opt (§6).
"""

from repro.query.predicates import (
    BandPredicate,
    ComparisonOp,
    FilterPredicate,
    JoinPredicate,
    MultiTableFilter,
    ThetaPredicate,
)
from repro.query.query import JoinQuery, RangeTable
from repro.query.parser import parse_query
from repro.query.query_tree import QueryTree, build_query_tree
from repro.query.executor import JoinExecutor

__all__ = [
    "ComparisonOp",
    "ThetaPredicate",
    "JoinPredicate",
    "BandPredicate",
    "FilterPredicate",
    "MultiTableFilter",
    "RangeTable",
    "JoinQuery",
    "parse_query",
    "QueryTree",
    "build_query_tree",
    "JoinExecutor",
]
