"""Join-graph vertices.

A vertex represents all tuples of one plan node sharing the same projection
onto the node's join attributes (§4.2).  It owns:

* ``ids`` — the TID list (new tuples are appended at the end, which is what
  places the delta view of an insertion in the last sub-block of the
  vertex's join-number block, §4.5);
* ``w_out[j]`` — for each neighbour ``j`` in the query tree, the number of
  results of the subjoin on this vertex's side of edge ``(i, j)`` that
  involve tuples of this vertex.  This is the paper's ``w_j(v_i)``, unique
  per incident edge by Theorem 4.2;
* ``w_full`` — the paper's ``w_i(v_i)``: the total number of join results
  involving tuples of this vertex;
* ``W_in[j]`` — the cached total ``sum of w_out[j -> i]`` over joining
  vertices in neighbour ``j`` (the paper's ``W_j(v_i)``);
* ``nodes`` — handles of this vertex's tree nodes, one per index of its
  plan node in the plan's order (``nodes[0]`` is in the designated index),
  so weight changes re-aggregate without searching (§4.3).

``w_out`` and ``W_in`` are positional: lists with one slot per plan node,
indexed by the neighbour's plan-node index and zero at every node that is
not a neighbour.  A visit of Algorithm 1 snapshots ``w_out`` as a list
copy and reads old and new weights by index; the graph compiles the
Equation (1) step that rewrites them once per plan node
(:meth:`~repro.graph.join_graph.WeightedJoinGraph._compile_recompute`).

For a *weighted* graph (tuple weights from a weighted synopsis family)
each tuple additionally carries a positive integer weight: ``weights``
lists them parallel to ``ids`` and ``cum`` is their running prefix sum,
so the vertex's multiplicity — the number of *units* it contributes to
the join-number domain — is ``cum[-1]`` instead of ``len(ids)``.  Both
stay ``None`` on uniform graphs, keeping that hot path unchanged.
"""

from __future__ import annotations

from typing import List, Optional


class Vertex:
    """One vertex of the weighted join graph.  See module docstring."""

    __slots__ = (
        "node_idx", "key", "ids", "w_out", "w_full", "W_in", "nodes",
        "weights", "cum",
    )

    def __init__(self, node_idx: int, key: tuple, num_nodes: int):
        self.node_idx = node_idx
        self.key = key
        self.ids: List[int] = []
        self.w_out: List[int] = [0] * num_nodes
        self.w_full: int = 0
        self.W_in: List[int] = [0] * num_nodes
        self.nodes: List[object] = []
        self.weights: Optional[List[int]] = None
        self.cum: Optional[List[int]] = None

    @property
    def multiplicity(self) -> int:
        """Units this vertex spans: tuple count, or total tuple weight."""
        if self.cum is not None:
            return self.cum[-1] if self.cum else 0
        return len(self.ids)

    @property
    def unit_weight(self) -> int:
        """``w_full`` per unit of tuple weight (``w_full / |ids|``, the
        join results per tuple, on a uniform graph)."""
        mult = self.multiplicity
        if not mult:
            return 0
        return self.w_full // mult

    def append_weighted(self, tid: int, weight: int) -> None:
        """Append ``tid`` carrying ``weight`` units (weighted graphs)."""
        self.ids.append(tid)
        if self.weights is None:
            self.weights = []
            self.cum = []
        self.weights.append(weight)
        self.cum.append((self.cum[-1] if self.cum else 0) + weight)

    def remove_weighted(self, i: int) -> int:
        """Remove the tuple at position ``i`` of ``ids`` and its weight;
        return the removed weight."""
        del self.ids[i]
        weight = self.weights.pop(i)
        # Rebuild the prefix-sum suffix from the removal point.
        del self.cum[i:]
        run = self.cum[-1] if self.cum else 0
        for w in self.weights[i:]:
            run += w
            self.cum.append(run)
        return weight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Vertex(node={self.node_idx}, key={self.key!r}, "
            f"ids={self.ids}, w_full={self.w_full}, w_out={self.w_out})"
        )
