"""Query planning: from a :class:`JoinQuery` to an executable join plan.

The planner performs, at "database creation" time (paper §5.1):

1. query-tree construction with cycle breaking (:mod:`repro.query.query_tree`);
2. optionally the **foreign-key subjoin optimisation** (§6): every tree edge
   that is a pure equi-join on a declared foreign key / primary key pair is
   collapsed — the two range tables are replaced by a combined range table
   whose rows are the (FK ⋈ PK) pairs, applied iteratively to fixpoint;
3. the index and weight layout of the weighted join graph: per plan node,
   one aggregate index per incident tree edge (keyed by that edge's
   composite sort key) carrying the range aggregates of the ``w_out``
   weight toward that neighbour, with the node's first index additionally
   carrying ``w_full``.

On the weight representation: the paper stores up to ``d+1`` unique weights
per vertex (Corollary 4.3).  We realise exactly those weights in directed
form — ``w_out[j]`` on vertex ``v_i`` is the paper's ``w_j(v_i)`` for any
root on the far side of edge ``(i, j)`` (Theorem 4.2 states all such roots
share the value), and ``w_full`` is ``w_i(v_i)``.  The ``3n-2`` unique
weight functions of Corollary 4.4 are the ``2n-2`` directed edge weights
plus the ``n`` full weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, TableSchema
from repro.catalog.table import Table
from repro.errors import PlanError
from repro.query.predicates import (
    BandPredicate,
    JoinPredicate,
    MultiTableFilter,
    ThetaPredicate,
    rangeable,
)
from repro.query.query import JoinQuery, RangeTable
from repro.query.query_tree import (
    QueryTree,
    RootedTree,
    TreeEdge,
    build_query_tree,
    key_projection,
)


@dataclass
class CollapsedMember:
    """One original range table inside a combined plan node.

    The anchor member (``parent_alias is None``) is the FK-most table: its
    insertions trigger emission of combined tuples.  Every other member is
    reached from its parent member by a foreign-key lookup using
    ``fk_columns`` (columns of the parent's base schema) against
    ``pk_columns`` (the member's primary-key columns).
    """

    alias: str
    orig_index: int
    base_table: str
    parent_alias: Optional[str] = None
    fk_columns: Tuple[str, ...] = ()
    pk_columns: Tuple[str, ...] = ()


@dataclass
class PlanNode:
    """A final range table of the reduced (post-collapse) query tree.

    ``table`` is the heap whose TIDs name the node's tuples — a combined
    node's is its anchor's; its rows exist only as the engine's
    :class:`~repro.core.fk_runtime.CombinedNodeRuntime` rebuilds them."""

    idx: int
    alias: str
    schema: TableSchema
    table: Table
    members: Tuple[CollapsedMember, ...]
    vertex_attrs: Tuple[str, ...] = ()
    #: positions of ``vertex_attrs`` within a node row, resolved once
    #: (``plan_query`` sets all three)
    vertex_pos: Tuple[int, ...] = ()
    #: project a node row (a tuple) onto the node's join attributes: the
    #: vertex key, compiled once from ``vertex_pos``
    vertex_key_of: Callable[[tuple], tuple] = field(
        default=key_projection(()), repr=False, compare=False)

    @property
    def is_combined(self) -> bool:
        return len(self.members) > 1

    def member(self, alias: str) -> CollapsedMember:
        for m in self.members:
            if m.alias == alias:
                return m
        raise PlanError(f"{alias} is not a member of node {self.alias}")

    def node_attr(self, member_alias: str, column: str) -> str:
        """Plan-node column name for an original ``member.column``."""
        if not self.is_combined:
            return column
        return f"{member_alias}__{column}"


@dataclass
class IndexSpec:
    """Layout of one aggregate tree index of a plan node.

    ``slots`` name the weight aggregated in each slot: ``("w_out", j)`` is
    the directed weight toward neighbour node ``j``; ``("w_full", -1)`` is
    the total weight ``w_i(v_i)``.
    """

    index_id: int
    node_idx: int
    key_attrs: Tuple[str, ...]
    neighbor_idx: Optional[int]
    edge: Optional[TreeEdge]
    slots: Tuple[Tuple[str, int], ...]

    def slot_of(self, kind: str, neighbor: int = -1) -> int:
        for i, slot in enumerate(self.slots):
            if slot == (kind, neighbor):
                return i
        raise PlanError(f"index {self.index_id} has no slot {kind}/{neighbor}")


@dataclass
class Route:
    """Where updates of an original range table go.

    ``kind``: ``direct`` (the alias is a standalone plan node), ``anchor``
    (the alias triggers combined-tuple emission for a combined node) or
    ``member`` (a PK-side member: updates only touch the FK hash table).

    ``prefilter`` is the alias's pre-filter (§5.1) compiled to ``(base-row
    position, test)`` pairs: its single-table filters plus SQL's NULL
    rule — a NULL satisfies no predicate, so a row with a NULL in a
    nullable join column (FK columns included) can never join and is
    kept out like any filtered row.  A NaN in a FLOAT join column is
    kept out the same way: it equals nothing, itself included, and it
    would break the order of the aggregate index and the hash lookup
    of the join graph.  So is a float infinity in a FLOAT column that a
    predicate other than plain equality reads (a band or inequality):
    it has no exact rational, so no range bound exists for it.  A
    plain-equality column keeps its infinities (``inf = inf``).  Empty
    when nothing can reject.
    """

    alias: str
    node_idx: int
    kind: str
    prefilter: Tuple[Tuple[int, Callable[[object], bool]], ...] = ()

    def passes(self, row: Sequence[object]) -> bool:
        for pos, test in self.prefilter:
            if not test(row[pos]):
                return False
        return True


class JoinPlan:
    """The executable plan shared by the SJoin engine and the join graph."""

    def __init__(
        self,
        query: JoinQuery,
        db: Database,
        nodes: List[PlanNode],
        tree: QueryTree,
        demoted: List[MultiTableFilter],
        routes: Dict[str, Route],
        fk_optimized: bool,
    ):
        self.query = query
        self.db = db
        self.nodes = nodes
        self.tree = tree
        self.demoted = list(demoted)
        self.routes = routes
        self.fk_optimized = fk_optimized
        self._node_of_alias = {node.alias: node for node in nodes}
        self._rooted: Dict[int, RootedTree] = {}
        self.indexes: List[IndexSpec] = []
        self.node_indexes: List[List[IndexSpec]] = [[] for _ in nodes]
        self.designated_index: List[IndexSpec] = []
        self.edge_index: Dict[Tuple[int, int], IndexSpec] = {}
        self._layout_indexes()
        # per node: its (anchor) member's range-table position, combined?
        self._expansion = tuple((node.members[0].orig_index,
                                 node.is_combined) for node in nodes)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, alias: str) -> PlanNode:
        try:
            return self._node_of_alias[alias]
        except KeyError:
            raise PlanError(f"no plan node with alias {alias}") from None

    def node_idx(self, alias: str) -> int:
        return self.node(alias).idx

    def rooted(self, root_idx: int) -> RootedTree:
        """The rooted query tree ``G_Q(node)`` (cached)."""
        if root_idx not in self._rooted:
            alias = self.nodes[root_idx].alias
            self._rooted[root_idx] = self.tree.rooted_at(alias)
        return self._rooted[root_idx]

    # ------------------------------------------------------------------
    def _layout_indexes(self) -> None:
        next_id = 0
        for node in self.nodes:
            specs: List[IndexSpec] = []
            for nbr_alias, edge in self.tree.neighbors(node.alias):
                nbr_idx = self.node_idx(nbr_alias)
                spec = IndexSpec(
                    index_id=next_id,
                    node_idx=node.idx,
                    key_attrs=edge.key_attrs_of(node.alias),
                    neighbor_idx=nbr_idx,
                    edge=edge,
                    slots=(("w_out", nbr_idx),),
                )
                next_id += 1
                specs.append(spec)
            if not specs:
                # single-table query: a designated index keyed by nothing
                specs.append(
                    IndexSpec(
                        index_id=next_id,
                        node_idx=node.idx,
                        key_attrs=(),
                        neighbor_idx=None,
                        edge=None,
                        slots=(("w_full", -1),),
                    )
                )
                next_id += 1
            else:
                first = specs[0]
                specs[0] = replace(
                    first, slots=first.slots + (("w_full", -1),)
                )
            self.node_indexes[node.idx] = specs
            self.designated_index.append(specs[0])
            self.indexes.extend(specs)
            for spec in specs:
                if spec.neighbor_idx is not None:
                    self.edge_index[(node.idx, spec.neighbor_idx)] = spec

    # ------------------------------------------------------------------
    def resolve_result(self, plan_result: Sequence[int],
                       runtimes: Optional[Mapping] = None
                       ) -> Tuple[Tuple[int, ...], Tuple[tuple, ...]]:
        """Map a plan-level result (node TIDs) to original-table TIDs and
        the heap rows they name, in range-table order, reading each node's
        heap once.  A combined node's members come from the hashes of its
        engine's :class:`~repro.core.fk_runtime.CombinedNodeRuntime`:
        ``runtimes`` maps its idx to it (needed on combined plans)."""
        size = self.query.num_tables
        tids: List[int] = [0] * size
        rows: List[tuple] = [()] * size
        for node, tid, (pos, combined) in zip(self.nodes, plan_result,
                                              self._expansion):
            tids[pos] = tid
            rows[pos] = node.table.peek(tid)
            if combined:
                runtimes[node.idx].expand_into(tids, rows)
        return tuple(tids), tuple(rows)

    def expand_result(self, plan_result: Sequence[int],
                      runtimes: Optional[Mapping] = None) -> Tuple[int, ...]:
        """Map a plan-level result (node TIDs) to original-table TIDs."""
        return self.resolve_result(plan_result, runtimes)[0]


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def plan_query(query: JoinQuery, db: Database,
               fk_optimize: bool = False) -> JoinPlan:
    """Plan ``query`` over ``db``.

    With ``fk_optimize=True`` the foreign-key subjoin optimisation (§6) is
    applied; this is the paper's *SJoin-opt* configuration.
    """
    query.validate_against(db)
    tree = build_query_tree(query)
    if fk_optimize:
        groups, edges = _collapse_fk_edges(query, db, tree)
    else:
        groups = [
            [CollapsedMember(alias=alias, orig_index=i,
                             base_table=query.range_table(alias).table_name)]
            for i, alias in enumerate(query.aliases)
        ]
        edges = list(tree.edges)
    nodes, alias_to_node, routes = _build_nodes(query, db, groups)
    plan_edges = [_remap_edge(edge, alias_to_node) for edge in edges]
    plan_query_spec = JoinQuery(
        [RangeTable(node.alias, node.alias) for node in nodes],
        [p for edge in plan_edges for p in edge.predicates],
    )
    plan_tree = QueryTree(plan_query_spec, plan_edges, [])
    if len(nodes) > 1 and not plan_tree.is_connected():
        raise PlanError("plan tree disconnected after FK collapse")
    for node in nodes:
        node.vertex_attrs = plan_tree.join_attrs_of(node.alias)
        node.vertex_pos = tuple(
            node.schema.index_of(a) for a in node.vertex_attrs)
        node.vertex_key_of = key_projection(node.vertex_pos)
    return JoinPlan(
        query, db, nodes, plan_tree, list(tree.demoted), routes,
        fk_optimized=fk_optimize,
    )


def _base_schema(query: JoinQuery, db: Database, alias: str) -> TableSchema:
    return db.table(query.range_table(alias).table_name).schema


def _collapse_fk_edges(query: JoinQuery, db: Database, tree: QueryTree):
    """Iteratively collapse FK equi-join edges (§6).

    Returns ``(groups, remaining_edges)`` where each group is an ordered
    member list (anchor first; every member's parent precedes it) carried as
    ``CollapsedMember`` records with original aliases.
    """
    # group state: alias -> group id; group id -> member records
    group_of: Dict[str, int] = {}
    members: Dict[int, List[CollapsedMember]] = {}
    next_group = 0
    for i, alias in enumerate(query.aliases):
        group_of[alias] = next_group
        members[next_group] = [
            CollapsedMember(
                alias=alias,
                orig_index=i,
                base_table=query.range_table(alias).table_name,
            )
        ]
        next_group += 1
    is_absorbed: Dict[str, bool] = {alias: False for alias in query.aliases}

    def pk_side_standalone(alias: str) -> bool:
        """The PK side must still be a singleton base range table: once a
        table has absorbed or been absorbed, its rows are no longer unique
        on the original key."""
        return len(members[group_of[alias]]) == 1 and not is_absorbed[alias]

    remaining = list(tree.edges)
    changed = True
    while changed:
        changed = False
        for edge in list(remaining):
            direction = _fk_direction(query, db, edge, pk_side_standalone)
            if direction is None:
                continue
            fk_alias, pk_alias, fk_cols, pk_cols = direction
            fk_group = group_of[fk_alias]
            pk_group = group_of[pk_alias]
            if fk_group == pk_group:
                continue
            # absorb the PK side's (singleton) group into the FK side's
            absorbed = members.pop(pk_group)
            record = absorbed[0]
            record.parent_alias = fk_alias
            record.fk_columns = fk_cols
            record.pk_columns = pk_cols
            members[fk_group].append(record)
            group_of[pk_alias] = fk_group
            is_absorbed[pk_alias] = True
            remaining.remove(edge)
            # re-home remaining edges incident to the absorbed alias: their
            # endpoints keep the original alias (attr remapping happens when
            # plan edges are built), only group membership changed.
            changed = True
    ordered_groups: List[List[CollapsedMember]] = []
    seen = set()
    for alias in query.aliases:
        gid = group_of[alias]
        if gid in seen:
            continue
        seen.add(gid)
        ordered_groups.append(members[gid])
    return ordered_groups, remaining


def _fk_direction(query: JoinQuery, db: Database, edge: TreeEdge,
                  pk_side_standalone):
    """Decide whether ``edge`` is a collapsible FK equi-join.

    Returns ``(fk_alias, pk_alias, fk_columns, pk_columns)`` or None.  The
    PK side must still be a standalone base range table (not yet absorbed,
    and not itself an anchor that absorbed others — a combined table loses
    the uniqueness guarantee on the key).
    """
    if edge.range_predicate is not None or not edge.eq_predicates:
        return None
    for pk_alias in (edge.a, edge.b):
        fk_alias = edge.other(pk_alias)
        if not pk_side_standalone(pk_alias):
            continue
        pk_schema = _base_schema(query, db, pk_alias)
        pk_cols = tuple(p.attr_of(pk_alias) for p in edge.eq_predicates)
        if not pk_schema.primary_key:
            continue
        if set(pk_schema.primary_key) != set(pk_cols):
            # require the join key to be exactly the primary key (§6)
            if not set(pk_schema.primary_key).issubset(set(pk_cols)):
                continue
        fk_schema = _base_schema(query, db, fk_alias)
        fk_cols = tuple(p.attr_of(fk_alias) for p in edge.eq_predicates)
        fk = _matching_fk(fk_schema, fk_cols, pk_cols, pk_schema.name)
        if fk is None:
            continue
        return fk_alias, pk_alias, fk_cols, pk_cols
    return None


def _matching_fk(fk_schema: TableSchema, fk_cols, pk_cols, pk_table: str):
    """Find a declared FK matching the edge's column pairing (any order)."""
    pairing = set(zip(fk_cols, pk_cols))
    for fk in fk_schema.foreign_keys:
        if fk.ref_table != pk_table:
            continue
        if set(zip(fk.columns, fk.ref_columns)) == pairing:
            return fk
    return None


def _is_not_null(value: object) -> bool:
    return value is not None


def _is_not_null_or_nan(value: object) -> bool:
    # NaN is the one FLOAT value unequal to itself
    return value is not None and value == value


def _prefilter(query: JoinQuery, schema: TableSchema, alias: str):
    """Compile ``alias``'s pre-filter (see :class:`Route`)."""
    # join column -> whether a predicate other than plain equality reads it
    ranged: Dict[str, bool] = {}
    for pred in query.join_predicates:
        if alias in pred.sides():
            attr = pred.attr_of(alias)
            ranged[attr] = ranged.get(attr, False) \
                or not pred.is_plain_equality

    def test(col: Column) -> Callable[[object], bool]:
        if col.dtype is not DataType.FLOAT:
            return _is_not_null
        return rangeable if ranged[col.name] else _is_not_null_or_nan

    return tuple(
        [(schema.index_of(flt.attr), flt.matches)
         for flt in query.filters_on(alias)]
        + [(pos, test(col)) for pos, col in enumerate(schema.columns)
           if col.name in ranged
           and (col.nullable or col.dtype is DataType.FLOAT)])


def _build_nodes(query: JoinQuery, db: Database,
                 groups: List[List[CollapsedMember]]):
    """Materialise plan nodes (and combined schemas) for each group."""
    nodes: List[PlanNode] = []
    alias_to_node: Dict[str, PlanNode] = {}
    routes: Dict[str, Route] = {}

    def route(member: CollapsedMember, idx: int, kind: str) -> None:
        routes[member.alias] = Route(
            member.alias, idx, kind, _prefilter(
                query, db.table(member.base_table).schema, member.alias))
    for idx, group in enumerate(groups):
        ordered = _order_members(group)
        # a node's tuples are its first member's: a combined tuple is
        # its anchor
        table = db.table(ordered[0].base_table)
        if len(ordered) == 1:
            alias, schema = ordered[0].alias, table.schema
            route(ordered[0], idx, "direct")
        else:
            alias = "__".join(m.alias for m in ordered)
            columns = [
                Column(f"__tid_{m.alias}", nullable=False) for m in ordered
            ]
            for m in ordered:
                columns.extend(
                    Column(f"{m.alias}__{col.name}", col.dtype, col.nullable)
                    for col in db.table(m.base_table).schema.columns)
            schema = TableSchema(alias, columns)
            for pos, m in enumerate(ordered):
                route(m, idx, "anchor" if pos == 0 else "member")
        node = PlanNode(idx=idx, alias=alias, schema=schema, table=table,
                        members=tuple(ordered))
        nodes.append(node)
        for m in ordered:
            alias_to_node[m.alias] = node
    return nodes, alias_to_node, routes


def _order_members(group: List[CollapsedMember]) -> List[CollapsedMember]:
    """Order a group anchor-first with parents before children."""
    if len(group) == 1:
        return list(group)
    by_alias = {m.alias: m for m in group}
    children: Dict[Optional[str], List[CollapsedMember]] = {}
    anchor = None
    for m in group:
        if m.parent_alias is None:
            anchor = m
        else:
            children.setdefault(m.parent_alias, []).append(m)
    if anchor is None:
        raise PlanError("collapsed group has no anchor")
    ordered = [anchor]
    queue = [anchor.alias]
    while queue:
        parent = queue.pop(0)
        for child in children.get(parent, ()):  # BFS keeps parents first
            ordered.append(child)
            queue.append(child.alias)
    if len(ordered) != len(group):
        raise PlanError("collapsed group is not a tree rooted at its anchor")
    return ordered


def _remap_edge(edge: TreeEdge, alias_to_node: Dict[str, "PlanNode"]
                ) -> TreeEdge:
    """Re-express an original tree edge against plan-node aliases/attrs."""
    node_a = alias_to_node[edge.a]
    node_b = alias_to_node[edge.b]
    if node_a is node_b:
        raise PlanError("edge endpoints collapsed into the same node")

    def remap(pred: ThetaPredicate) -> ThetaPredicate:
        left_node = alias_to_node[pred.left]
        right_node = alias_to_node[pred.right]
        kwargs = dict(
            left=left_node.alias,
            left_attr=left_node.node_attr(pred.left, pred.left_attr),
            right=right_node.alias,
            right_attr=right_node.node_attr(pred.right, pred.right_attr),
        )
        if isinstance(pred, JoinPredicate):
            return JoinPredicate(op=pred.op, coeff=pred.coeff,
                                 offset=pred.offset, **kwargs)
        if isinstance(pred, BandPredicate):
            return BandPredicate(width=pred.width, coeff=pred.coeff,
                                 inclusive=pred.inclusive, **kwargs)
        raise PlanError(f"cannot remap predicate {pred}")

    return TreeEdge(
        a=node_a.alias,
        b=node_b.alias,
        eq_predicates=tuple(remap(p) for p in edge.eq_predicates),
        range_predicate=(
            remap(edge.range_predicate)
            if edge.range_predicate is not None else None
        ),
    )
