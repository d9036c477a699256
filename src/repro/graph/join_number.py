"""Random access to join results via join numbers (Algorithm 2, §4.5).

A *join number* is an integer in ``[0, J)`` mapped bijectively to one join
result by recursively partitioning the join-number domain proportionally to
the weights in the join graph, following the rooted query tree ``G_Q(R_i)``:

1. **intra-table partition** — within the current table, consecutive
   subdomains proportional to the vertices' subtree weights (in edge-key
   order among the vertices joining the parent; designated-index order at
   the root), located with the aggregate tree's weighted ``select``;
2. **intra-vertex partition** — equal-length subdomains, one per tuple in
   the vertex's ID list;
3. **inter-table partition** — the remainder is decomposed into one join
   number per child subtree using the cached total weights ``W_in``.

The mapping costs ``O(n log N)``: per table, one walk summing what sorts
below the joining range and one weighted descent — or, on a hash step (an
equality edge whose key is the child's whole vertex key), one hash lookup
of the only joining vertex, its subdomain starting at 0.  The static part —
which tree and slot to select from at each step, each node's parent index,
and each edge's compiled cut, which turns the parent vertex's key
straight into the two cut points of the child's joining range
(:meth:`~repro.query.query_tree.TreeEdge.cut_fn`) — depends only on the
plan and the root, so the graph resolves it once per root
(:meth:`~repro.graph.join_graph.WeightedJoinGraph.descent_plan`) and a
ranged child step is one ``select`` over that cut.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.graph.join_graph import DescentPlan, WeightedJoinGraph


class JoinNumberError(ReproError):
    """A join number was out of range or the graph state is inconsistent."""


def map_join_number(graph: WeightedJoinGraph, root_idx: int,
                    join_number: int) -> Tuple[int, ...]:
    """Map ``join_number`` to a join result (plan-node TID tuple) with
    respect to the rooted query tree at plan node ``root_idx``.

    Raises :class:`JoinNumberError` when the number is outside ``[0, J)``.
    """
    if join_number < 0:
        raise JoinNumberError(f"join number {join_number} is negative")
    plan = graph.descent_plan(root_idx)
    total = plan.tree.total(plan.slot)
    if join_number >= total:
        raise JoinNumberError(
            f"join number {join_number} out of range [0, {total})"
        )
    selected = plan.tree.select(plan.slot, join_number)
    if selected is None:
        raise JoinNumberError("root selection failed despite valid number")
    vertex, prefix = selected
    result: List[Optional[int]] = [None] * plan.num_nodes
    _descend(plan, vertex, join_number - prefix, is_root=True, result=result)
    return tuple(result)  # type: ignore[arg-type]


def _descend(plan: DescentPlan, vertex, remaining: int, is_root: bool,
             result: List[Optional[int]]) -> None:
    """Steps 2 and 3 of the partition at one vertex, then recurse.

    On a weighted graph the intra-vertex partition is *cumulative-weight
    descent*: tuple ``i`` owns the quotient range ``[cum[i-1], cum[i])``
    of ``remaining // unit`` — with all weights 1 this degenerates to
    exactly the uniform ``remaining // per_tuple`` arithmetic, so the
    two branches realise the same bijection on uniform data.
    """
    node_idx = vertex.node_idx
    parent_idx, children = plan.nodes[node_idx]
    if is_root:
        weight = vertex.w_full
    else:
        weight = vertex.w_out[parent_idx]
    ids = vertex.ids
    count = len(ids)
    if count == 0 or weight <= 0 or remaining >= weight:
        raise JoinNumberError(
            f"inconsistent weights at {vertex!r}: weight={weight}, "
            f"remaining={remaining}"
        )
    cum = vertex.cum
    if cum is None:
        per_tuple = weight // count
        result[node_idx] = ids[remaining // per_tuple]
        remaining %= per_tuple
        tuple_w = 1
    else:
        unit = weight // cum[-1]
        quotient = remaining // unit
        i = bisect_right(cum, quotient)
        before = cum[i - 1] if i else 0
        result[node_idx] = ids[i]
        remaining -= before * unit
        tuple_w = cum[i] - before

    for child in children:
        total_w = vertex.W_in[child.dst]
        child_number = remaining % total_w
        remaining //= total_w
        vertex_of = child.vertex_of
        if vertex_of is not None:   # the hash step: the one joining vertex
            child_vertex = vertex_of(child.source_key(vertex))
            child_prefix = 0
        else:
            child_vertex, child_prefix = child.tree.select(
                child.slot, child_number, child.cut(vertex.key)) or (None, 0)
        if child_vertex is None:
            raise JoinNumberError(
                f"child selection failed at node {node_idx} -> {child.dst}"
            )
        _descend(plan, child_vertex, child_number - child_prefix,
                 is_root=False, result=result)
    # After the child digits are divided out the remainder indexes which
    # of the selected tuple's weight units was hit; any value >= tuple_w
    # (i.e. != 0 in the uniform case) means inconsistent weights.
    if remaining >= tuple_w:
        raise JoinNumberError(
            f"non-zero remainder {remaining} after partition at "
            f"node {node_idx}"
        )
