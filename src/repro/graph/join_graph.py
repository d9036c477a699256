"""The weighted join graph: construction and maintenance (Algorithm 1).

The graph is kept implicitly (§4.3): one hash index (a ``dict``) per plan
node mapping vertex keys to :class:`Vertex` objects, and one aggregate
order index per directed tree edge keyed by the edge's composite sort key
and aggregating the ``w_out`` weight toward that neighbour (the first
index of each node additionally aggregates ``w_full``).

The graph takes vertex keys, not rows: an entry is ``(tid, key,
weight)``, the key the tuple's projection onto its node's join attributes
(the engine projects it, or picks it out of a combined tuple's members).

Weight maintenance follows Algorithm 1: when a tuple's vertex weights
change, the per-edge deltas are batched into ordered ``key -> delta-weight``
maps and pushed outward along the query tree; each reachable vertex is
touched exactly once per update (deltas accumulate before being applied),
giving the ``O(h(v) log N)`` bound of Theorem 4.5.  A visit's work is
compiled up front: Equation (1) once per plan node by its degree, one slot
reader per index, and per directed edge the indexes and onward directions
a delta arriving over it touches, the range predicate's bounds and the
cut a source vertex key joins.  An equality edge whose key is its
destination's whole vertex key joins at most one vertex per source key —
the one the destination's hash index holds under it — so such a *hash
step* looks the vertex up instead of walking the tree's range.

Deletion reverses insertion, with two extra steps: the number of join
results removed is read off ``w_full / |ids|`` in O(1) before the update,
and a vertex whose ID list empties is unlinked from every index and
propagated to weight zero.  Deletions come in *runs* on one plan node
(:class:`DeleteRun`): every entry updates its own vertex at once, the
``w_out`` deltas leave the node once per direction when the run ends.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.errors import SynopsisError, TupleNotFoundError
from repro.graph.vertex import Vertex
from repro.index.api import Cut, cut_points
from repro.index.aggregate import AggregateTree
from repro.query.planner import IndexSpec, JoinPlan
from repro.query.predicates import Bounds
from repro.query.query_tree import key_projection


#: difference-array sums below this fit comfortably in int64 flat arrays
_INT64_SAFE = 2 ** 62


@dataclass
class GraphStats:
    """Work counters used by benchmarks and the analysis in §6."""

    vertices_visited: int = 0
    index_refreshes: int = 0
    vertex_creations: int = 0
    vertex_removals: int = 0
    weight_recomputes: int = 0


#: an insertion's delta-view placement ``(view_start, new_results)``:
#: the tuple is part of ``new_results`` join results, whose join numbers
#: form the contiguous subdomain ``[view_start, view_start + new_results)``
#: with respect to the rooted tree at the inserted node (§4.5)
Placement = Tuple[int, int]

#: one tuple of a batch: ``(tid, vertex key, weight)`` — the key the
#: tuple's projection onto its node's join attributes, the weight already
#: validated (:meth:`WeightedJoinGraph.weight_of`), None on a uniform graph
Entry = Tuple[int, tuple, Optional[int]]


class Direction:
    """One directed tree edge ``src -> dst``, resolved once per graph:
    what a weight delta leaving ``src`` toward ``dst`` (Algorithm 1), a
    new ``src`` vertex summing its ``W_in[dst]``, or a descent stepping
    from a ``src`` vertex into child ``dst`` (Algorithm 2) looks up.

    ``tree`` is the index on ``dst`` keyed by its edge key toward ``src``
    and ``slot`` the slot of ``w_out[dst -> src]`` in it;
    ``source_key(vertex)`` projects a ``src`` vertex onto its edge key
    toward ``dst`` (the vertex key itself when the projection is the
    identity); ``cut`` maps a ``src`` *vertex* key straight to the cut
    of ``tree`` joining it
    (:meth:`~repro.query.query_tree.TreeEdge.cut_fn`).  ``bounds`` is
    the range predicate's ``(bounds, lo_open, hi_open)`` toward ``dst``
    (None on a pure-equality edge) and ``num_eq`` the number of
    equality components ahead of the range one in an edge key: what an
    Algorithm-1 sweep reads per source edge key.  ``vertex_of`` is the
    hash step: set (to ``dst``'s hash index lookup) when the edge is
    pure equality and its key on ``dst`` is exactly ``dst``'s vertex
    key, so an edge key joins the one vertex the hash holds under it or
    none — the tree's range would hold that vertex alone
    (:meth:`WeightedJoinGraph.check_invariants` asserts it); None
    otherwise.  For a delta arriving over the edge, ``onward`` lists the
    directions out of ``dst`` other than back to ``src``, and
    ``refresh`` the ``(position, tree)`` of each index of ``dst`` it
    changes — all but the one toward ``src`` unless that one also
    carries ``w_full``.
    """

    __slots__ = ("src", "dst", "tree", "slot", "source_key", "cut",
                 "bounds", "num_eq", "vertex_of", "onward", "refresh")

    def __init__(self, src: int, dst: int, tree: AggregateTree, slot: int,
                 source_key: Callable[[Vertex], tuple],
                 cut: Callable[[tuple], Cut],
                 bounds: Optional[Tuple[Bounds, bool, bool]], num_eq: int,
                 vertex_of: Optional[Callable[[tuple], Optional[Vertex]]]):
        self.src = src
        self.dst = dst
        self.tree = tree
        self.slot = slot
        self.source_key = source_key
        self.cut = cut
        self.bounds = bounds
        self.num_eq = num_eq
        self.vertex_of = vertex_of
        self.onward: Tuple[Direction, ...] = ()
        self.refresh: Tuple[Tuple[int, AggregateTree], ...] = ()


_KEY = attrgetter("key")


def _source_key(key_pos: Tuple[int, ...], width: int
                ) -> Callable[[Vertex], tuple]:
    """``vertex -> its key projected onto key_pos``: the key itself when
    the projection is the identity, else one compiled projection."""
    if key_pos == tuple(range(width)):
        return _KEY
    project = key_projection(key_pos)
    return lambda vertex: project(vertex.key)


class DescentPlan:
    """The static skeleton of Algorithm 2 for one root: the root's
    designated tree and ``w_full`` slot and, per plan node, the parent
    index and the directions into its children."""

    __slots__ = ("tree", "slot", "num_nodes", "nodes")

    def __init__(self, tree: AggregateTree, slot: int,
                 nodes: List[Tuple[Optional[int], Tuple[Direction, ...]]]):
        self.tree = tree
        self.slot = slot
        self.num_nodes = len(nodes)
        self.nodes = nodes


def _slot_reader(spec: IndexSpec) -> Callable[[Vertex], List[int]]:
    """One index's slot values of a vertex, compiled from the planner's
    three layouts: ``w_out`` toward the index's neighbour, that followed
    by ``w_full`` (a designated index), or ``w_full`` alone (a
    single-table query)."""
    if spec.slots == (("w_full", -1),):
        return lambda vertex: [vertex.w_full]
    (_, nbr), *designated = spec.slots
    if designated:
        return lambda vertex: [vertex.w_out[nbr], vertex.w_full]
    return lambda vertex: [vertex.w_out[nbr]]


class WeightedJoinGraph:
    """The paper's weighted join graph over a :class:`JoinPlan`."""

    def __init__(self, plan: JoinPlan,
                 tuple_weight: Optional[
                     Callable[[int, Sequence], int]] = None):
        """``tuple_weight`` (optional) makes this a *weighted* graph: a
        callable ``(node_idx, row) -> positive int`` giving each tuple's
        sampling weight.  The join-number domain then counts weighted
        *units* — a result ``r`` spans ``prod(weight of its tuples)``
        consecutive unit numbers — so uniform unit draws are exactly
        weight-proportional result draws.  ``None`` (the default) keeps
        the paper's uniform graph with an unchanged hot path.
        """
        self.plan = plan
        self.tuple_weight = tuple_weight
        self.stats = GraphStats()
        self.hash_indexes: List[Dict[tuple, Vertex]] = [
            {} for _ in plan.nodes
        ]
        self.trees: Dict[int, AggregateTree] = {
            spec.index_id: AggregateTree(len(spec.slots), _slot_reader(spec))
            for spec in plan.indexes}
        self._num_nodes = len(plan.nodes)
        # neighbours of each node: (neighbour idx, the compiled direction
        # node -> neighbour), deterministic order
        self._neighbors: List[List[Tuple[int, Direction]]] = []
        # per node, its indexes in plan order (a vertex's ``nodes``):
        # the tree and the index key's positions within the vertex key
        self._indexes: List[Tuple[Tuple[AggregateTree, Tuple[int, ...]],
                                  ...]] = []
        for node in plan.nodes:
            attr_pos = {attr: i for i, attr in enumerate(node.vertex_attrs)}
            nbrs = []
            for nbr_alias, edge in plan.tree.neighbors(node.alias):
                nbr = plan.node(nbr_alias)
                spec = plan.edge_index[(nbr.idx, node.idx)]
                ranged = edge.range_predicate is not None
                hash_step = (not ranged and edge.key_attrs_of(nbr_alias)
                             == nbr.vertex_attrs)
                key_pos = tuple(attr_pos[a]
                                for a in edge.key_attrs_of(node.alias))
                nbrs.append((nbr.idx, Direction(
                    node.idx, nbr.idx, self.trees[spec.index_id],
                    spec.slot_of("w_out", node.idx),
                    _source_key(key_pos, len(attr_pos)),
                    edge.cut_fn(nbr_alias, key_pos),
                    edge.range_predicate.bounds_for(nbr_alias)
                    if ranged else None, len(edge.eq_predicates),
                    self.hash_indexes[nbr.idx].get if hash_step else None,
                )))
            self._neighbors.append(nbrs)
            self._indexes.append(tuple(
                (self.trees[spec.index_id],
                 tuple(attr_pos[a] for a in spec.key_attrs))
                for spec in plan.node_indexes[node.idx]))
        for src_idx, nbrs in enumerate(self._neighbors):
            for dst_idx, direction in nbrs:
                direction.onward = tuple(
                    onward for nbr_idx, onward in self._neighbors[dst_idx]
                    if nbr_idx != src_idx)
                direction.refresh = tuple(
                    (pos, self.trees[spec.index_id]) for pos, spec
                    in enumerate(plan.node_indexes[dst_idx])
                    if spec.neighbor_idx != src_idx or len(spec.slots) > 1)
        self._recompute = [self._compile_recompute(node.idx)
                           for node in plan.nodes]
        # each node's designated tree (``vertex.nodes[0]``), w_full's slot
        self._designated: List[Tuple[AggregateTree, int]] = [
            (self.trees[spec.index_id], spec.slot_of("w_full"))
            for spec in plan.designated_index
        ]
        self._descents: Dict[int, DescentPlan] = {}

    def neighbors(self, node_idx: int) -> List[Tuple[int, Direction]]:
        return self._neighbors[node_idx]

    def descent_plan(self, root_idx: int) -> DescentPlan:
        """Algorithm 2's skeleton for the tree rooted at ``root_idx``
        (built on first use; trees and directions are created once in
        the constructor and never replaced, so the references stay
        good)."""
        descent = self._descents.get(root_idx)
        if descent is None:
            plan = self.plan
            rooted = plan.rooted(root_idx)
            nodes = []
            for node in plan.nodes:
                parent_alias = rooted.parent.get(node.alias)
                children = [plan.node_idx(alias) for alias, _
                            in rooted.children.get(node.alias, ())]
                by_dst = dict(self._neighbors[node.idx])
                nodes.append((
                    None if parent_alias is None
                    else plan.node_idx(parent_alias),
                    tuple(by_dst[child] for child in children),
                ))
            tree, slot = self._designated[root_idx]
            descent = self._descents[root_idx] = DescentPlan(
                tree, slot, nodes)
        return descent

    # ------------------------------------------------------------------
    # aggregate state
    # ------------------------------------------------------------------
    def total_results(self, root_idx: int = 0) -> int:
        """``J``: the total number of join results in the database."""
        tree, slot = self._designated[root_idx]
        return tree.total(slot)

    def vertex_of(self, node_idx: int, key: tuple) -> Optional[Vertex]:
        return self.hash_indexes[node_idx].get(key)

    # ------------------------------------------------------------------
    # insertion (Algorithm 1)
    # ------------------------------------------------------------------
    def insert_tuples(self, node_idx: int, entries: Sequence[Entry]
                      ) -> List[Placement]:
        """Register a batch of tuples of one plan node in arrival order,
        each an :data:`Entry` ``(tid, vertex key, weight)``.

        Bit-identical to registering the entries one batch each, but the
        expensive work is amortised over the batch:

        * each touched vertex is recomputed and re-aggregated **once**
          (same-node insertions never change each other's ``W_in``, so
          deferring the recompute to the end of the batch is exact);
        * weight deltas are pushed outward **once per direction** with
          the per-vertex deltas coalesced into a single
          ``updateNeighbor`` call (deltas telescope: the sum of per-op
          deltas equals ``final - initial``);
        * delta-view placements are derived after the batch from each
          entry's recorded position in its vertex's ID list — the offset
          of an entry's block inside its vertex is ``id_index *
          per_tuple`` regardless of when sibling vertices grew, and the
          per-tuple weight itself is invariant across the batch, so the
          views select exactly the results the serial path would have.

        The caller must not interleave deletions or other-node
        insertions into a batch; the engines cut their runs at every
        change of plan node and at every deletion for exactly this
        reason.
        """
        touched, placed = self._insert_batch(node_idx, entries)
        # per-entry view placements from the final aggregates: where each
        # touched vertex's block ends in the designated index
        tree, slot = self._designated[node_idx]
        prefix_sum = tree.prefix_sum
        block_end: Dict[Vertex, int] = {}
        for vertex in touched:
            block_end[vertex] = prefix_sum(slot, vertex.nodes[0], True)
        placements: List[Placement] = []
        if self.tuple_weight is None:
            for vertex, id_index in placed:
                ids = len(vertex.ids)
                per_tuple = vertex.w_full // ids
                placements.append((
                    block_end[vertex] - (ids - id_index) * per_tuple,
                    per_tuple))
            return placements
        for vertex, id_index in placed:
            # Weighted placement: the entry's sub-block spans its weight
            # times the (batch-final, invariant) per-unit weight, and its
            # start precedes all trailing entries' units.
            unit = vertex.unit_weight
            cum = vertex.cum
            before = cum[id_index - 1] if id_index else 0
            placements.append((
                block_end[vertex] - (cum[-1] - before) * unit,
                (cum[id_index] - before) * unit))
        return placements

    def _insert_batch(self, node_idx: int, entries: Sequence[Entry]
                      ) -> Tuple[Dict[Vertex, List[int]],
                                 List[Tuple[Vertex, int]]]:
        """The graph half of :meth:`insert_tuples` — append, recompute,
        propagate — without the view placements nobody reads on a
        restore.  Returns the touched vertices in first-touch order, each
        mapped to its ``w_out`` before the batch, and each entry's
        ``(vertex, id_index)``."""
        vertices = self.hash_indexes[node_idx]
        # phase 1: append every tuple, recording first-touch state
        touched: Dict[Vertex, List[int]] = {}   # first-touch order
        created: List[Vertex] = []
        placed: List[Tuple[Vertex, int]] = []  # (vertex, id_index)
        for tid, key, weight in entries:
            vertex = vertices.get(key)
            if vertex is None:
                vertex = vertices[key] = self._new_vertex(node_idx, key)
                created.append(vertex)
            if vertex not in touched:
                touched[vertex] = vertex.w_out[:]
            ids = vertex.ids
            placed.append((vertex, len(ids)))
            if weight is None:
                ids.append(tid)
            else:
                vertex.append_weighted(tid, weight)
        # phase 2: one recompute per touched vertex; new vertices link in
        # creation order (tie allocation!), existing ones re-aggregate in
        # one bulk update per index
        recompute = self._recompute[node_idx]
        for vertex in touched:
            recompute(vertex)
        self.stats.weight_recomputes += len(touched)
        for vertex in created:
            self._link_vertex(vertex)
        if len(touched) == 1 and not created:   # the per-op path
            (vertex,) = touched
            self._refresh_vertex(vertex)
        elif len(created) < len(touched):
            fresh = set(created)
            refreshed = [v for v in touched if v not in fresh]
            indexes = self._indexes[node_idx]
            for pos, (tree, _) in enumerate(indexes):
                tree.update_many([vertex.nodes[pos] for vertex in refreshed])
            self.stats.index_refreshes += len(refreshed) * len(indexes)
        # phase 3: one propagation per direction with coalesced deltas
        self._propagate_run(node_idx, touched.items())
        return touched, placed

    def _new_vertex(self, node_idx: int, key: tuple) -> Vertex:
        """A vertex for a key seen for the first time, its ``W_in``
        summed from the neighbour tables."""
        self.stats.vertex_creations += 1
        vertex = Vertex(node_idx, key, self._num_nodes)
        W_in = vertex.W_in
        for nbr_idx, direction in self._neighbors[node_idx]:
            W_in[nbr_idx] = self._sum_joining_w_out(vertex, direction)
        return vertex

    # ------------------------------------------------------------------
    # deletion (reverse of Algorithm 1)
    # ------------------------------------------------------------------
    def delete_run(self, node_idx: int) -> "DeleteRun":
        """Open a run of consecutive deletions on plan node ``node_idx``
        (see :class:`DeleteRun`); the caller must ``flush()`` it."""
        return DeleteRun(self, node_idx)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _sum_joining_w_out(vertex: Vertex, direction: Direction) -> int:
        """Fresh ``W_in[nbr]``: sum of ``w_out[nbr -> node]`` over joining
        vertices in the neighbour table (computed once per new vertex)."""
        vertex_of = direction.vertex_of
        if vertex_of is not None:
            joining = vertex_of(direction.source_key(vertex))
            return 0 if joining is None else joining.w_out[direction.src]
        return direction.tree.range_sum(direction.slot,
                                        direction.cut(vertex.key))

    def weight_of(self, node_idx: int, row: Sequence) -> int:
        """Resolve and validate one tuple's sampling weight (weighted
        graphs only): a :class:`SynopsisError` unless it is a positive
        integer."""
        weight = self.tuple_weight(node_idx, row)
        if isinstance(weight, bool) or not isinstance(weight, int) \
                or weight <= 0:
            raise SynopsisError(
                "tuple weights must be positive integers, got %r for a "
                "tuple of node %r" % (weight,
                                      self.plan.nodes[node_idx].alias)
            )
        return weight

    def _compile_recompute(self, node_idx: int
                           ) -> Callable[[Vertex], None]:
        """Equation (1) for one plan node's vertices, resolved by degree:
        ``w_out[j]`` is the tuple count (total tuple weight if weighted)
        times every ``W_in`` but ``j``'s, ``w_full`` the count times all.
        Leaf, degree 2, else prefix/suffix products; ``w_out`` in place."""
        uniform = self.tuple_weight is None
        nbrs = tuple(nbr_idx for nbr_idx, _ in self._neighbors[node_idx])
        if len(nbrs) == 1:
            (a,) = nbrs

            def recompute(vertex: Vertex) -> None:
                count = len(vertex.ids) if uniform else vertex.multiplicity
                vertex.w_out[a] = count
                vertex.w_full = count * vertex.W_in[a]
        elif len(nbrs) == 2:
            a, b = nbrs

            def recompute(vertex: Vertex) -> None:
                count = len(vertex.ids) if uniform else vertex.multiplicity
                W_in, w_out = vertex.W_in, vertex.w_out
                w_out[a] = count * W_in[b]
                w_out[b] = toward_b = count * W_in[a]
                vertex.w_full = toward_b * W_in[b]
        else:
            backward = nbrs[::-1]

            def recompute(vertex: Vertex) -> None:
                count = len(vertex.ids) if uniform else vertex.multiplicity
                W_in, w_out = vertex.W_in, vertex.w_out
                for nbr_idx in nbrs:
                    w_out[nbr_idx] = count
                    count *= W_in[nbr_idx]
                vertex.w_full = count
                suffix = 1
                for nbr_idx in backward:
                    w_out[nbr_idx] *= suffix
                    suffix *= W_in[nbr_idx]
        return recompute

    def _link_vertex(self, vertex: Vertex) -> None:
        key = vertex.key
        vertex.nodes = [tree.insert(tuple([key[i] for i in key_pos]), vertex)
                        for tree, key_pos in self._indexes[vertex.node_idx]]

    def _unlink_vertex(self, vertex: Vertex) -> None:
        for (tree, _), handle in zip(self._indexes[vertex.node_idx],
                                     vertex.nodes):
            tree.delete(handle)
        vertex.nodes = []

    def _refresh_vertex(self, vertex: Vertex) -> None:
        """Re-aggregate the vertex's tree nodes after a weight change."""
        for (tree, _), handle in zip(self._indexes[vertex.node_idx],
                                     vertex.nodes):
            tree.refresh(handle)
        self.stats.index_refreshes += len(vertex.nodes)

    def _propagate_run(self, node_idx: int,
                       touched: Iterable[Tuple[Vertex, List[int]]]
                       ) -> None:
        """Push the ``w_out`` deltas of ``(vertex, w_out before)`` pairs
        of one node outward, one ``updateNeighbor`` per direction."""
        for nbr_idx, direction in self._neighbors[node_idx]:
            updates: List[Tuple[tuple, int]] = []
            for vertex, old_w_out in touched:
                delta = vertex.w_out[nbr_idx] - old_w_out[nbr_idx]
                if delta:
                    updates.append((direction.source_key(vertex), delta))
            if updates:
                self._update_direction(node_idx, direction, updates)

    def _update_direction(self, src_idx: int, direction: Direction,
                          updates: List[Tuple[tuple, int]]) -> None:
        """The paper's ``updateNeighbor``: apply batched ``(source edge key,
        delta)`` updates to all joining vertices of ``dst_idx``, then recurse
        away from ``src_idx`` with per-direction accumulated deltas.

        Deltas are coalesced per destination vertex before being applied,
        so every reachable vertex is touched once per update.  For range
        (band/inequality) edges the per-update ranges may overlap heavily;
        a difference-array sweep over the union range replaces the paper's
        sort-merge process, keeping the work linear in the number of
        affected vertices rather than quadratic.
        """
        affected = self._gather_deltas(direction, updates)
        if not affected:
            return
        dst_idx = direction.dst
        recompute = self._recompute[dst_idx]
        onward = direction.onward
        batches: List[Dict[tuple, int]] = [{} for _ in onward]
        visited: List[Vertex] = []
        for dst_vertex, delta_w in affected:
            if not delta_w:
                continue
            dst_vertex.W_in[src_idx] += delta_w
            w_out = dst_vertex.w_out
            old_w_out = w_out[:]
            recompute(dst_vertex)
            visited.append(dst_vertex)
            for onward_direction, batch in zip(onward, batches):
                nbr_idx = onward_direction.dst
                delta = w_out[nbr_idx] - old_w_out[nbr_idx]
                if delta:
                    nbr_key = onward_direction.source_key(dst_vertex)
                    batch[nbr_key] = batch.get(nbr_key, 0) + delta
        # all visited vertices live on dst_idx, so their handles share
        # the node's indexes: one bulk update per index the delta changes
        # instead of one refresh per (vertex, index)
        if visited:
            stats = self.stats
            stats.vertices_visited += len(visited)
            stats.weight_recomputes += len(visited)
            for pos, tree in direction.refresh:
                tree.update_many([vertex.nodes[pos] for vertex in visited])
            stats.index_refreshes += len(visited) * len(direction.refresh)
        for onward_direction, batch in zip(onward, batches):
            if batch:
                self._update_direction(
                    dst_idx, onward_direction, list(batch.items()))

    def _gather_deltas(self, direction: Direction,
                       updates: List[Tuple[tuple, int]]
                       ) -> List[Tuple[Vertex, int]]:
        """Accumulate the per-destination-vertex ``W_in`` delta."""
        coalesced: Dict[tuple, int] = {}
        for source_key, delta in updates:
            coalesced[source_key] = coalesced.get(source_key, 0) + delta
        vertex_of = direction.vertex_of
        if vertex_of is not None:      # the hash step: one vertex or none
            out: List[Tuple[Vertex, int]] = []
            for source_key, delta in coalesced.items():
                dst_vertex = vertex_of(source_key)
                if dst_vertex is not None:
                    out.append((dst_vertex, delta))
            return out
        tree = direction.tree
        if direction.bounds is None:
            out: List[Tuple[Vertex, int]] = []
            for source_key, delta in coalesced.items():
                for dst_vertex in tree.iter_items(cut_points(source_key)):
                    out.append((dst_vertex, delta))
            return out
        # range edge: each key's bounds, grouped by equality prefix (one
        # group when the edge has none), each group swept once
        bounds, lo_open, hi_open = direction.bounds
        num_eq = direction.num_eq
        if num_eq:
            groups: Dict[tuple, List[Tuple[tuple, int]]] = {}
            for source_key, delta in coalesced.items():
                groups.setdefault(source_key[:num_eq], []).append(
                    (bounds(source_key[num_eq]), delta))
        else:
            groups = {(): [(bounds(value), delta)
                           for (value,), delta in coalesced.items()]}
        out = []
        for prefix, pairs in groups.items():
            out.extend(self._sweep(tree, prefix, pairs, lo_open, hi_open))
        return out

    @staticmethod
    def _sweep(tree: AggregateTree, prefix: tuple,
               pairs: List[Tuple[tuple, int]], lo_open: bool, hi_open: bool
               ) -> List[Tuple[Vertex, int]]:
        """Difference-array accumulation of ``((lo, hi), delta)`` pairs
        over the destination vertices sharing one equality prefix: one
        walk over the union of the pairs' ranges (which sides are bounded
        depends on the predicate alone, so the first pair tells)."""
        (lo, hi), _ = pairs[0]
        los, his = zip(*[bound_pair for bound_pair, _ in pairs])
        nodes = list(tree.iter_nodes(cut_points(
            prefix, None if lo is None else min(los),
            None if hi is None else max(his))))
        if not nodes:
            return []
        plen = len(prefix)
        values = [node.key[plen] for node in nodes]
        n = len(nodes)
        # every intermediate sum is bounded by the total delta magnitude,
        # so this one check licenses the int64 flat array; weights
        # beyond it (huge join fan-outs) keep exact Python integers
        bound = sum([abs(delta) for _, delta in pairs])
        if bound < _INT64_SAFE:
            diff = array("q", bytes(8 * (n + 1)))
        else:
            diff = [0] * (n + 1)
        lower = bisect_right if lo_open else bisect_left
        upper = bisect_left if hi_open else bisect_right
        for (lo, hi), delta in pairs:
            start = 0 if lo is None else lower(values, lo)
            stop = n if hi is None else upper(values, hi)
            if start < stop:
                diff[start] += delta
                diff[stop] -= delta
        return [(node.item, running)
                for node, running in zip(nodes, accumulate(diff)) if running]

    # ------------------------------------------------------------------
    # persistence (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Logical graph state: per node, the live vertices in creation
        order with their TID lists in arrival order.

        Weights, ``W_in`` caches and tree aggregates are *not* captured —
        they are exact counts, recomputed deterministically by
        :meth:`load_state`.  Creation order matters: the aggregate trees
        tie-break equal keys by insertion order, and the join-number
        mapping (Algorithm 2) resolves weighted ranks in that order, so
        replaying vertices in creation order makes every future
        ``map_join_number`` call agree with the original process.
        """
        return {
            "stats": asdict(self.stats),
            "nodes": [
                [(vertex.key, list(vertex.ids))
                 for vertex in hash_index.values()]
                for hash_index in self.hash_indexes
            ],
        }

    def load_state(self, state: dict,
                   key_of: Callable[[int, int], tuple],
                   row_of: Callable[[int, int], tuple]) -> None:
        """Rebuild the graph from a captured :meth:`state_dict`.

        ``key_of(node_idx, tid)`` rebuilds a node tuple's vertex key from
        the (already restored) heap storage; ``row_of(node_idx, tid)``
        its row, read only on a weighted graph, for its tuple weight.
        The graph must be empty.

        A restore is the static case: each plan node is loaded as one
        batch — its vertices in creation order, their IDs in arrival
        order — so every vertex is recomputed and linked once and each
        direction hears once per node, with the same tie allocation and
        the same exact weights per-tuple insertion arrives at.
        """
        if any(len(hi) for hi in self.hash_indexes):
            raise TupleNotFoundError(
                "load_state requires an empty join graph"
            )
        weighted = self.tuple_weight is not None
        for node_idx, vertices in enumerate(state["nodes"]):
            entries = [
                (tid, key_of(node_idx, tid),
                 self.weight_of(node_idx, row_of(node_idx, tid))
                 if weighted else None)
                for _, ids in vertices for tid in ids]
            self._insert_batch(node_idx, entries)
            hash_index = self.hash_indexes[node_idx]
            for key, ids in vertices:
                vertex = hash_index.get(tuple(key))
                if vertex is None or vertex.ids != list(ids):
                    raise TupleNotFoundError(
                        f"graph restore mismatch at node {node_idx}, "
                        f"vertex key {tuple(key)!r}"
                    )
        self.stats = GraphStats(**state["stats"])

    # ------------------------------------------------------------------
    # verification helper (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify tree invariants, the hash step's licence — on every
        hash-step direction the tree range of each source key holds at
        most the one vertex the hash returns — and cached ``W_in``
        against the indexes."""
        for tree in self.trees.values():
            tree.check_invariants()
        for node_idx, hash_index in enumerate(self.hash_indexes):
            for vertex in hash_index.values():
                for nbr_idx, direction in self._neighbors[node_idx]:
                    if direction.vertex_of is not None:
                        hit = direction.vertex_of(direction.source_key(vertex))
                        in_range = list(direction.tree.iter_items(
                            direction.cut(vertex.key)))
                        assert in_range == ([] if hit is None else [hit]), (
                            f"hash step {node_idx} -> {nbr_idx} at "
                            f"{vertex!r}: hash {hit!r}, tree {in_range!r}")
                    fresh = self._sum_joining_w_out(vertex, direction)
                    assert vertex.W_in[nbr_idx] == fresh, (
                        f"stale W_in[{nbr_idx}] at {vertex!r}: "
                        f"cached {vertex.W_in[nbr_idx]} != fresh {fresh}"
                    )


class DeleteRun:
    """A run of consecutive deletions on one plan node ``X`` (§5.3).

    :meth:`delete` updates the tuple's own vertex at once and in op
    order — ID list, ``w_full``/``w_out``, its tree nodes, unlinked when
    it empties — and returns the number of join results removed;
    :meth:`flush` then pushes each touched vertex's telescoped
    ``final - first`` ``w_out`` delta outward, once per direction.

    Between the two the graph is exact *as seen from* ``X``: a deletion
    at ``X`` only changes weights that point away from ``X``
    (``W_in[.][X]`` of its neighbours, then their ``w_out`` onward),
    while ``total_results(X)`` and Algorithm 2 rooted at ``X`` read the
    ``w_full`` of ``X``'s own vertices and, below them, only weights that
    point toward ``X``.  So the §5.3 re-draws of every entry go through
    the tree rooted at ``X`` and see exactly the live join; any other
    root is stale until the flush.  The end state equals per-tuple
    application: weights are exact integers and the deltas telescope.
    """

    __slots__ = ("graph", "node_idx", "_touched")

    def __init__(self, graph: WeightedJoinGraph, node_idx: int):
        self.graph = graph
        self.node_idx = node_idx
        # vertex -> its w_out when the run first touched it
        self._touched: Dict[Vertex, List[int]] = {}

    def missing(self, tid: int) -> TupleNotFoundError:
        """The error for a tuple the run's node does not hold."""
        return TupleNotFoundError(
            f"tuple {tid} of node {self.graph.plan.nodes[self.node_idx].alias}"
            " is not in the join graph")

    def delete(self, tid: int, key: tuple) -> Optional[int]:
        """Unregister tuple ``tid`` of the run's node, whose vertex key is
        ``key``; returns the number of join results that involved it — or
        None, changing nothing, when the node does not hold the tuple
        (one vertex lookup and one scan of its IDs answer both)."""
        graph = self.graph
        node_idx = self.node_idx
        vertices = graph.hash_indexes[node_idx]
        vertex = vertices.get(key)
        if vertex is None:
            return None
        ids = vertex.ids
        try:
            i = ids.index(tid)
        except ValueError:
            return None
        if vertex not in self._touched:
            self._touched[vertex] = vertex.w_out[:]
        if vertex.cum is None:
            removed = vertex.w_full // len(ids)
            del ids[i]
        else:
            unit = vertex.unit_weight  # before removal mutates the vertex
            removed = vertex.remove_weighted(i) * unit
        graph._recompute[node_idx](vertex)
        graph.stats.weight_recomputes += 1
        if ids:
            graph._refresh_vertex(vertex)
        else:
            graph._unlink_vertex(vertex)
            del vertices[key]
            graph.stats.vertex_removals += 1
        return removed

    def flush(self) -> None:
        """Propagate the run's accumulated deltas; the graph is exact
        from every root again afterwards."""
        if self._touched:
            touched = list(self._touched.items())
            self._touched = {}
            self.graph._propagate_run(self.node_idx, touched)
