"""The weighted join graph: construction and maintenance (Algorithm 1).

The graph is kept implicitly (§4.3): one :class:`HashIndex` per plan node
mapping vertex keys to :class:`Vertex` objects, and one aggregate AVL tree
per directed tree edge keyed by the edge's composite sort key and
aggregating the ``w_out`` weight toward that neighbour (the first index of
each node additionally aggregates ``w_full``).

Weight maintenance follows Algorithm 1: when a tuple's vertex weights
change, the per-edge deltas are batched into ordered ``key -> delta-weight``
maps and pushed outward along the query tree; each reachable vertex is
touched exactly once per update (deltas accumulate before being applied),
giving the ``O(h(v) log N)`` bound of Theorem 4.5.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SynopsisError, TupleNotFoundError
from repro.obs.metrics import as_registry
from repro.graph.vertex import Vertex
from repro.index.api import IndexRange
from repro.index.avl import AggregateTree
from repro.index.hash_index import HashIndex
from repro.query.planner import IndexSpec, JoinPlan


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

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        self.vertices_visited = 0
        self.index_refreshes = 0
        self.vertex_creations = 0
        self.vertex_removals = 0
        self.weight_recomputes = 0


#: an insertion's delta-view placement ``(view_start, new_results)``:
#: the tuple is part of ``new_results`` join results, whose join numbers
#: form the contiguous subdomain ``[view_start, view_start + new_results)``
#: with respect to the rooted tree at the inserted node (§4.5)
Placement = Tuple[int, int]

#: one tuple of a batch: ``(tid, row, weight)`` — the weight already
#: validated (:meth:`WeightedJoinGraph.weight_of`), None on a uniform graph
Entry = Tuple[int, Sequence[object], Optional[int]]


class Direction:
    """One directed tree edge ``src -> dst``, resolved once per graph:
    what a weight delta leaving ``src`` toward ``dst`` (Algorithm 1), a
    new ``src`` vertex summing its ``W_in[dst]``, or a descent stepping
    from a ``src`` vertex into child ``dst`` (Algorithm 2) looks up.

    ``tree`` is the AVL on ``dst`` keyed by its edge key toward ``src``
    and ``slot`` the slot of ``w_out[dst -> src]`` in it; ``key_pos``
    projects a ``src`` vertex key onto its edge key toward ``dst``;
    ``range_of`` maps that edge key to the range of ``tree`` joining it
    (:meth:`~repro.query.query_tree.TreeEdge.range_fn`); ``ranged``
    tells a range edge from a pure-equality one.
    """

    __slots__ = ("dst", "tree", "slot", "key_pos", "range_of", "ranged")

    def __init__(self, dst: int, tree: AggregateTree, slot: int,
                 key_pos: Tuple[int, ...],
                 range_of: Callable[[tuple], IndexRange], ranged: bool):
        self.dst = dst
        self.tree = tree
        self.slot = slot
        self.key_pos = key_pos
        self.range_of = range_of
        self.ranged = ranged

    def source_key(self, vertex: Vertex) -> tuple:
        """Project a ``src`` vertex key onto its edge key toward ``dst``."""
        key = vertex.key
        return tuple([key[i] for i in self.key_pos])


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


class WeightedJoinGraph:
    """The paper's weighted join graph over a :class:`JoinPlan`."""

    def __init__(self, plan: JoinPlan, obs=None,
                 tuple_weight: Optional[
                     Callable[[int, Sequence], int]] = None):
        """``obs`` is an optional :class:`~repro.obs.MetricsRegistry`;
        when omitted the no-op registry is used.

        ``tuple_weight`` (optional) makes this a *weighted* graph: a
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
        self.obs = as_registry(obs)
        self.hash_indexes: List[HashIndex] = [
            HashIndex() for _ in plan.nodes
        ]
        self.trees: Dict[int, AggregateTree] = {}
        for spec in plan.indexes:
            self.trees[spec.index_id] = AggregateTree(
                len(spec.slots), self._value_reader(spec)
            )
        # neighbours of each node: (neighbour idx, the compiled direction
        # node -> neighbour), deterministic order
        self._neighbors: List[List[Tuple[int, Direction]]] = []
        # index key positions (index key attrs within vertex key)
        self._index_key_pos: Dict[int, Tuple[int, ...]] = {}
        for node in plan.nodes:
            attr_pos = {attr: i for i, attr in enumerate(node.vertex_attrs)}
            nbrs = []
            for nbr_alias, edge in plan.tree.neighbors(node.alias):
                nbr_idx = plan.node_idx(nbr_alias)
                spec = plan.edge_index[(nbr_idx, node.idx)]
                nbrs.append((nbr_idx, Direction(
                    nbr_idx, self.trees[spec.index_id],
                    spec.slot_of("w_out", node.idx),
                    tuple(attr_pos[a] for a in edge.key_attrs_of(node.alias)),
                    edge.range_fn(nbr_alias),
                    edge.range_predicate is not None,
                )))
            self._neighbors.append(nbrs)
            for spec in plan.node_indexes[node.idx]:
                self._index_key_pos[spec.index_id] = tuple(
                    attr_pos[a] for a in spec.key_attrs
                )
        # each node's designated tree, the slot of w_full in it, its id
        self._designated: List[Tuple[AggregateTree, int, int]] = [
            (self.trees[spec.index_id], spec.slot_of("w_full"),
             spec.index_id)
            for spec in plan.designated_index
        ]
        self._descents: Dict[int, DescentPlan] = {}

    # ------------------------------------------------------------------
    # weight slot plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _value_reader(spec: IndexSpec):
        slots = spec.slots

        def value_of(vertex: Vertex, slot: int) -> int:
            kind, nbr = slots[slot]
            if kind == "w_out":
                return vertex.w_out[nbr]
            return vertex.w_full

        return value_of

    def index_key_of(self, vertex: Vertex, spec: IndexSpec) -> tuple:
        """Project a vertex key onto one index's composite sort key."""
        pos = self._index_key_pos[spec.index_id]
        key = vertex.key
        return tuple(key[i] for i in pos)

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
            tree, slot, _ = self._designated[root_idx]
            descent = self._descents[root_idx] = DescentPlan(
                tree, slot, nodes)
        return descent

    # ------------------------------------------------------------------
    # aggregate state
    # ------------------------------------------------------------------
    def total_results(self, root_idx: int = 0) -> int:
        """``J``: the total number of join results in the database."""
        tree, slot, _ = self._designated[root_idx]
        return tree.total(slot)

    def vertex_of(self, node_idx: int, key: tuple) -> Optional[Vertex]:
        return self.hash_indexes[node_idx].get(key)

    def vertex_count(self, node_idx: int) -> int:
        return len(self.hash_indexes[node_idx])

    # ------------------------------------------------------------------
    # insertion (Algorithm 1)
    # ------------------------------------------------------------------
    def insert_tuple(self, node_idx: int, tid: int, row: Sequence[object],
                     weight: Optional[int] = None) -> Placement:
        """Register tuple ``(tid, row)`` of plan node ``node_idx``.

        Returns the placement of the non-materialised delta view over the
        new join results (§4.5).  ``weight`` is the tuple's validated
        weight when the caller already holds it (weighted graphs).
        """
        key = self.plan.nodes[node_idx].vertex_key_of(row)
        # a refused weight must leave no empty vertex behind
        if weight is None and self.tuple_weight is not None:
            weight = self.weight_of(node_idx, row)
        vertices = self.hash_indexes[node_idx]
        vertex = vertices.get(key)
        created = vertex is None
        if created:
            vertex = vertices[key] = self._new_vertex(node_idx, key)
        if weight is None:
            vertex.ids.append(tid)
        else:
            vertex.append_weighted(tid, weight)
        old_w_out = dict(vertex.w_out)
        self._recompute_weights(vertex)
        if created:
            self._link_vertex(vertex)
        else:
            self._refresh_vertex(vertex)
        self._propagate_run(node_idx, [(vertex, old_w_out)])
        new = (vertex.per_tuple_weight if weight is None
               else weight * vertex.unit_weight)
        return self._block_end(vertex) - new, new

    def insert_tuples(self, node_idx: int, entries: Sequence[Entry]
                      ) -> List[Placement]:
        """Register a batch of tuples of one plan node in arrival order.

        Bit-identical to calling :meth:`insert_tuple` per entry, but the
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
        # per-entry view placements from the final aggregates (one bulk
        # prefix query over the shared designated index)
        tree, slot, index_id = self._designated[node_idx]
        sums = tree.prefix_many(
            slot, [vertex.nodes[index_id] for vertex in touched],
            inclusive=True,
        )
        block_end: Dict[int, int] = {
            id(vertex): end for vertex, end in zip(touched, sums)
        }
        placements: List[Placement] = []
        if self.tuple_weight is None:
            for vertex, id_index in placed:
                ids = len(vertex.ids)
                per_tuple = vertex.w_full // ids
                placements.append((
                    block_end[id(vertex)] - (ids - id_index) * per_tuple,
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
                block_end[id(vertex)] - (cum[-1] - before) * unit,
                (cum[id_index] - before) * unit))
        return placements

    def _insert_batch(self, node_idx: int, entries: Sequence[Entry]
                      ) -> Tuple[List[Vertex], List[Tuple[Vertex, int]]]:
        """The graph half of :meth:`insert_tuples` — append, recompute,
        propagate — without the view placements nobody reads on a
        restore.  Returns the touched vertices in first-touch order and
        each entry's ``(vertex, id_index)``."""
        key_pos = self.plan.nodes[node_idx].vertex_pos
        vertices = self.hash_indexes[node_idx]
        # phase 1: append every tuple, recording first-touch state
        touched: List[Vertex] = []           # first-touch order
        first_w_out: Dict[int, Dict[int, int]] = {}
        created: List[Vertex] = []
        placed: List[Tuple[Vertex, int]] = []  # (vertex, id_index)
        for tid, row, weight in entries:
            key = tuple([row[i] for i in key_pos])
            vertex = vertices.get(key)
            if vertex is None:
                vertex = vertices[key] = self._new_vertex(node_idx, key)
                created.append(vertex)
            if id(vertex) not in first_w_out:
                touched.append(vertex)
                first_w_out[id(vertex)] = dict(vertex.w_out)
            ids = vertex.ids
            placed.append((vertex, len(ids)))
            if weight is None:
                ids.append(tid)
            else:
                vertex.append_weighted(tid, weight)
        # phase 2: one recompute per touched vertex; new vertices link in
        # creation order (tie allocation!), existing ones re-aggregate in
        # one bulk update per index
        for vertex in touched:
            self._recompute_weights(vertex)
        for vertex in created:
            self._link_vertex(vertex)
        if len(created) < len(touched):
            fresh = set(map(id, created))
            refreshed = [v for v in touched if id(v) not in fresh]
            for spec in self.plan.node_indexes[node_idx]:
                self.trees[spec.index_id].update_many(
                    [vertex.nodes[spec.index_id] for vertex in refreshed]
                )
                self.stats.index_refreshes += len(refreshed)
        # phase 3: one propagation per direction with coalesced deltas
        self._propagate_run(
            node_idx,
            [(vertex, first_w_out[id(vertex)]) for vertex in touched])
        return touched, placed

    def _new_vertex(self, node_idx: int, key: tuple) -> Vertex:
        """A vertex for a key seen for the first time, its ``W_in``
        summed from the neighbour tables."""
        self.stats.vertex_creations += 1
        vertex = Vertex(node_idx, key)
        for nbr_idx, direction in self._neighbors[node_idx]:
            vertex.W_in[nbr_idx] = self._sum_joining_w_out(
                vertex, direction)
        return vertex

    # ------------------------------------------------------------------
    # deletion (reverse of Algorithm 1)
    # ------------------------------------------------------------------
    def delete_run(self, node_idx: int) -> "DeleteRun":
        """Open a run of consecutive deletions on plan node ``node_idx``
        (see :class:`DeleteRun`); the caller must ``flush()`` it."""
        return DeleteRun(self, node_idx)

    def delete_tuple(self, node_idx: int, tid: int,
                     row: Sequence[object]) -> int:
        """Unregister tuple ``(tid, row)``; returns the number of join
        results that involved it (the amount ``J`` decreases by, §5.3).
        A run of one."""
        run = self.delete_run(node_idx)
        try:
            return run.delete(tid, row)
        finally:
            run.flush()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _sum_joining_w_out(vertex: Vertex, direction: Direction) -> int:
        """Fresh ``W_in[nbr]``: sum of ``w_out[nbr -> node]`` over joining
        vertices in the neighbour table (computed once per new vertex)."""
        rng = direction.range_of(direction.source_key(vertex))
        return direction.tree.range_sum(direction.slot, rng)

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

    def _recompute_weights(self, vertex: Vertex) -> None:
        """Equation (1): weights are products of the cached ``W_in``
        (with tuple count generalised to total tuple weight on a
        weighted graph)."""
        self.stats.weight_recomputes += 1
        if self.tuple_weight is None:
            count = len(vertex.ids)
        else:
            count = vertex.multiplicity
        nbrs = self._neighbors[vertex.node_idx]
        if not nbrs:
            vertex.w_full = count
            return
        product = count
        for nbr_idx, _ in nbrs:
            product *= vertex.W_in[nbr_idx]
        vertex.w_full = product
        for nbr_idx, _ in nbrs:
            partial = count
            for other_idx, _ in nbrs:
                if other_idx != nbr_idx:
                    partial *= vertex.W_in[other_idx]
            vertex.w_out[nbr_idx] = partial

    def _link_vertex(self, vertex: Vertex) -> None:
        for spec in self.plan.node_indexes[vertex.node_idx]:
            tree = self.trees[spec.index_id]
            node = tree.insert(self.index_key_of(vertex, spec), vertex)
            vertex.nodes[spec.index_id] = node

    def _unlink_vertex(self, vertex: Vertex) -> None:
        for spec in self.plan.node_indexes[vertex.node_idx]:
            tree = self.trees[spec.index_id]
            tree.delete(vertex.nodes.pop(spec.index_id))

    def _refresh_vertex(self, vertex: Vertex) -> None:
        """Re-aggregate the vertex's tree nodes after a weight change."""
        for spec in self.plan.node_indexes[vertex.node_idx]:
            self.trees[spec.index_id].refresh(vertex.nodes[spec.index_id])
            self.stats.index_refreshes += 1

    def _propagate_run(self, node_idx: int,
                       touched: Sequence[Tuple[Vertex, Dict[int, int]]]
                       ) -> None:
        """Push the ``w_out`` deltas of ``(vertex, w_out before)`` pairs
        of one node outward, one ``updateNeighbor`` per direction."""
        for nbr_idx, direction in self._neighbors[node_idx]:
            updates: List[Tuple[tuple, int]] = []
            for vertex, old_w_out in touched:
                delta = vertex.w_out[nbr_idx] - old_w_out.get(nbr_idx, 0)
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
        onward: Dict[int, Dict[tuple, int]] = {}
        onward_directions: Dict[int, Direction] = {}
        visited: List[Vertex] = []
        for dst_vertex, delta_w in affected:
            if not delta_w:
                continue
            self.stats.vertices_visited += 1
            dst_vertex.W_in[src_idx] += delta_w
            old_w_out = dict(dst_vertex.w_out)
            self._recompute_weights(dst_vertex)
            visited.append(dst_vertex)
            for nbr_idx, onward_direction in self._neighbors[dst_idx]:
                if nbr_idx == src_idx:
                    continue
                delta = dst_vertex.w_out[nbr_idx] - old_w_out.get(nbr_idx, 0)
                if delta:
                    batch = onward.setdefault(nbr_idx, {})
                    nbr_key = onward_direction.source_key(dst_vertex)
                    batch[nbr_key] = batch.get(nbr_key, 0) + delta
                    onward_directions[nbr_idx] = onward_direction
        # all visited vertices live on dst_idx, so their handles share
        # the node's indexes: one bulk update per index instead of one
        # refresh per (vertex, index).  The index toward src holds
        # w_out[src], which this update leaves unchanged — unless it is
        # also the designated index carrying w_full.
        if visited:
            for spec in self.plan.node_indexes[dst_idx]:
                if spec.neighbor_idx == src_idx and len(spec.slots) == 1:
                    continue
                self.trees[spec.index_id].update_many(
                    [vertex.nodes[spec.index_id] for vertex in visited]
                )
                self.stats.index_refreshes += len(visited)
        for nbr_idx, batch in onward.items():
            self._update_direction(
                dst_idx, onward_directions[nbr_idx], list(batch.items())
            )

    def _gather_deltas(self, direction: Direction,
                       updates: List[Tuple[tuple, int]]
                       ) -> List[Tuple[Vertex, int]]:
        """Accumulate the per-destination-vertex ``W_in`` delta."""
        coalesced: Dict[tuple, int] = {}
        for source_key, delta in updates:
            coalesced[source_key] = coalesced.get(source_key, 0) + delta
        tree = direction.tree
        range_of = direction.range_of
        if not direction.ranged:
            out: List[Tuple[Vertex, int]] = []
            for source_key, delta in coalesced.items():
                for dst_vertex in tree.iter_items(range_of(source_key)):
                    out.append((dst_vertex, delta))
            return out
        # range edge: group by equality prefix, sweep each group once
        groups: Dict[tuple, List[Tuple[IndexRange, int]]] = {}
        for source_key, delta in coalesced.items():
            rng = range_of(source_key)
            groups.setdefault(rng.prefix, []).append((rng, delta))
        out = []
        for prefix, intervals in groups.items():
            out.extend(self._sweep_group(tree, prefix, intervals))
        return out

    @staticmethod
    def _sweep_group(tree: AggregateTree, prefix: tuple,
                     intervals: List[Tuple[IndexRange, int]]
                     ) -> List[Tuple[Vertex, int]]:
        """Difference-array accumulation of interval deltas over the
        destination vertices sharing one equality prefix."""
        lo = None
        hi = None
        if all(iv.lo is not None for iv, _ in intervals):
            lo = min(iv.lo for iv, _ in intervals)
        if all(iv.hi is not None for iv, _ in intervals):
            hi = max(iv.hi for iv, _ in intervals)
        nodes = list(tree.iter_nodes(IndexRange(prefix, lo, hi)))
        if not nodes:
            return []
        plen = len(prefix)
        values = [node.key[plen] for node in nodes]
        n = len(nodes)
        # every intermediate sum is bounded by the total delta magnitude,
        # so this one check licenses the int64 flat array; weights
        # beyond it (huge join fan-outs) keep exact Python integers
        bound = sum(abs(delta) for _, delta in intervals)
        if bound < _INT64_SAFE:
            diff = array("q", bytes(8 * (n + 1)))
        else:
            diff = [0] * (n + 1)
        for interval, delta in intervals:
            start = _lower_index(values, interval.lo, interval.lo_open)
            stop = _upper_index(values, interval.hi, interval.hi_open)
            if start < stop:
                diff[start] += delta
                diff[stop] -= delta
        out: List[Tuple[Vertex, int]] = []
        running = 0
        for i, node in enumerate(nodes):
            running += diff[i]
            if running:
                out.append((node.item, running))
        return out

    def _block_end(self, vertex: Vertex) -> int:
        """Inclusive prefix sum of ``w_full`` up to the vertex in its
        node's designated index: the end (exclusive) of the vertex's
        join-number block for the rooted tree at its own node."""
        tree, slot, index_id = self._designated[vertex.node_idx]
        return tree.prefix_sum(slot, vertex.nodes[index_id], inclusive=True)

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
                   row_of: Callable[[int, int], tuple]) -> None:
        """Rebuild the graph from a captured :meth:`state_dict`.

        ``row_of(node_idx, tid)`` resolves a node tuple's row from the
        (already restored) heap storage.  The graph must be empty.

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
            entries = []
            for _, ids in vertices:
                for tid in ids:
                    row = row_of(node_idx, tid)
                    entries.append((tid, row, self.weight_of(node_idx, row)
                                    if weighted else None))
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
        """Verify tree invariants and cached ``W_in`` against the indexes."""
        for tree in self.trees.values():
            tree.check_invariants()
        for node_idx, hash_index in enumerate(self.hash_indexes):
            for vertex in hash_index.values():
                for nbr_idx, direction in self._neighbors[node_idx]:
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
        self._touched: Dict[Vertex, Dict[int, int]] = {}

    def delete(self, tid: int, row: Sequence[object]) -> int:
        """Unregister tuple ``(tid, row)`` of the run's node; returns the
        number of join results that involved it."""
        graph = self.graph
        node_idx = self.node_idx
        node = graph.plan.nodes[node_idx]
        key = node.vertex_key_of(row)
        vertex = graph.hash_indexes[node_idx].get(key)
        if vertex is None or tid not in vertex.ids:
            raise TupleNotFoundError(
                f"tuple {tid} of node {node.alias} is not in the join graph"
            )
        if vertex not in self._touched:
            self._touched[vertex] = dict(vertex.w_out)
        if graph.tuple_weight is None:
            removed = vertex.per_tuple_weight
            vertex.ids.remove(tid)
        else:
            unit = vertex.unit_weight  # before removal mutates the vertex
            removed = vertex.remove_weighted(tid) * unit
        graph._recompute_weights(vertex)
        if vertex.ids:
            graph._refresh_vertex(vertex)
        else:
            graph._unlink_vertex(vertex)
            graph.hash_indexes[node_idx].remove(key)
            graph.stats.vertex_removals += 1
        return removed

    def flush(self) -> None:
        """Propagate the run's accumulated deltas; the graph is exact
        from every root again afterwards."""
        if self._touched:
            touched = list(self._touched.items())
            self._touched = {}
            self.graph._propagate_run(self.node_idx, touched)


def _lower_index(values: List[object], lo, lo_open: bool) -> int:
    """First index of ``values`` (sorted) inside a lower interval bound."""
    if lo is None:
        return 0
    if lo_open:
        return bisect_right(values, lo)
    return bisect_left(values, lo)


def _upper_index(values: List[object], hi, hi_open: bool) -> int:
    """One past the last index of ``values`` inside an upper bound."""
    if hi is None:
        return len(values)
    if hi_open:
        return bisect_left(values, hi)
    return bisect_right(values, hi)
