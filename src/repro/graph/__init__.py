"""The weighted join graph index (paper §4) and its derived views.

This subpackage implements the paper's central index: vertices are distinct
projections of tuples onto their table's join attributes, each carrying the
``d+1`` unique subjoin weights (directed ``w_out`` per incident tree edge
plus ``w_full``) and cached neighbour weight sums ``W_in``.  The graph is
represented implicitly by per-table hash indexes and aggregate order indexes.

Modules
-------
``vertex``       the vertex record
``join_graph``   construction + incremental maintenance (Algorithm 1)
``join_number``  the join-number -> join-result mapping (Algorithm 2)
``views``        the non-materialised delta and full join views (§4.5)
"""

from repro.graph.vertex import Vertex
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.graph.views import DeltaJoinView, FullJoinView

__all__ = [
    "Vertex",
    "WeightedJoinGraph",
    "map_join_number",
    "DeltaJoinView",
    "FullJoinView",
]
