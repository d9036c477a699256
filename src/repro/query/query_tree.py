"""The unrooted query tree (§4.1) and its rooted traversals.

Each range table is a vertex; an edge connects two range tables related by
at least one join predicate.  If the predicate graph is cyclic, edges are
demoted (their predicates become residual multi-table filters) until a tree
remains — exactly the paper's treatment of cyclic queries.

An edge may carry several predicates (e.g. QX joins ``store_sales`` with
``store_returns`` on *two* columns).  The weighted join graph needs every
edge to be answerable as a single contiguous key range over one ordered
composite index, so an edge may consist of any number of *plain equality*
predicates plus at most one range-form predicate; the composite sort key is
``(eq attrs..., range attr)`` in lexicographic order.  Extra range-form
predicates on an edge are demoted to multi-table filters as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError, QueryError
from repro.index.api import IndexRange
from repro.query.predicates import (
    JoinPredicate,
    MultiTableFilter,
    ThetaPredicate,
)
from repro.query.query import JoinQuery


@dataclass
class TreeEdge:
    """An edge of the query tree between range tables ``a`` and ``b``.

    ``eq_predicates`` are plain equalities; ``range_predicate`` is the
    optional single range-form predicate.  ``key_attrs_of(alias)`` gives the
    composite sort key attributes on that side (equality attrs first, range
    attr last), which is the key of the corresponding AVL index.
    """

    a: str
    b: str
    eq_predicates: Tuple[ThetaPredicate, ...]
    range_predicate: Optional[ThetaPredicate] = None

    @property
    def predicates(self) -> Tuple[ThetaPredicate, ...]:
        if self.range_predicate is None:
            return self.eq_predicates
        return self.eq_predicates + (self.range_predicate,)

    def other(self, alias: str) -> str:
        if alias == self.a:
            return self.b
        if alias == self.b:
            return self.a
        raise QueryError(f"{alias} is not an endpoint of edge {self}")

    def key_attrs_of(self, alias: str) -> Tuple[str, ...]:
        attrs = [p.attr_of(alias) for p in self.eq_predicates]
        if self.range_predicate is not None:
            attrs.append(self.range_predicate.attr_of(alias))
        return tuple(attrs)

    def matches(self, alias: str, key: Sequence[object],
                other_key: Sequence[object]) -> bool:
        """Test two composite keys (``key`` on ``alias``'s side)."""
        for pred, lhs, rhs in zip(self.predicates, key, other_key):
            if not pred.matches_side(alias, lhs, rhs):
                return False
        return True

    def range_fn(self, target_alias: str) -> Callable[[tuple], IndexRange]:
        """Compile the map from a composite key on the other side to the
        range of ``target_alias``'s composite keys that join it: the
        equality components pinned as the prefix, the range predicate's
        bounds (constants resolved here, once) on the last component.
        On a pure-equality edge the range is the single point ``key``."""
        self.other(target_alias)  # a QueryError unless it is an endpoint
        if self.range_predicate is None:
            return IndexRange
        num_eq = len(self.eq_predicates)
        bounds, lo_open, hi_open = self.range_predicate.bounds_for(
            target_alias)

        def range_of(source_key: tuple) -> IndexRange:
            lo, hi = bounds(source_key[num_eq])
            return IndexRange(source_key[:num_eq], lo, hi, lo_open, hi_open)

        return range_of

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.predicates)


@dataclass
class QueryTree:
    """The unrooted query tree plus any demoted residual predicates."""

    query: JoinQuery
    edges: List[TreeEdge]
    demoted: List[MultiTableFilter]
    _adj: Dict[str, List[TreeEdge]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for alias in self.query.aliases:
            self._adj[alias] = []
        for edge in self.edges:
            self._adj[edge.a].append(edge)
            self._adj[edge.b].append(edge)

    # ------------------------------------------------------------------
    @property
    def aliases(self) -> Tuple[str, ...]:
        return self.query.aliases

    def neighbors(self, alias: str) -> List[Tuple[str, TreeEdge]]:
        """``(neighbor alias, edge)`` pairs in deterministic order."""
        return [(edge.other(alias), edge) for edge in self._adj[alias]]

    def degree(self, alias: str) -> int:
        return len(self._adj[alias])

    def join_attrs_of(self, alias: str) -> Tuple[str, ...]:
        """All attributes of ``alias`` used by any incident edge, dedup'd
        in first-use order.  These form the vertex key of the table."""
        seen = []
        for edge in self._adj[alias]:
            for attr in edge.key_attrs_of(alias):
                if attr not in seen:
                    seen.append(attr)
        return tuple(seen)

    def rooted_at(self, root: str) -> "RootedTree":
        """Return the rooted view ``G_Q(root)``."""
        return RootedTree(self, root)

    def is_connected(self) -> bool:
        if not self.aliases:
            return True
        seen = {self.aliases[0]}
        stack = [self.aliases[0]]
        while stack:
            alias = stack.pop()
            for nbr, _ in self.neighbors(alias):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(self.aliases)


class RootedTree:
    """``G_Q(R_i)``: the query tree rooted at a chosen range table.

    Exposes parent/children maps with a deterministic child order (the order
    the planner fixes for the join-number mapping of Algorithm 2).
    """

    def __init__(self, tree: QueryTree, root: str):
        if root not in tree.aliases:
            raise QueryError(f"unknown root {root}")
        self.tree = tree
        self.root = root
        self.parent: Dict[str, Optional[str]] = {root: None}
        self.children: Dict[str, List[Tuple[str, TreeEdge]]] = {}
        order = [root]
        stack = [root]
        while stack:
            alias = stack.pop()
            kids = []
            for nbr, edge in tree.neighbors(alias):
                if nbr == self.parent[alias]:
                    continue
                self.parent[nbr] = alias
                kids.append((nbr, edge))
                stack.append(nbr)
                order.append(nbr)
            self.children[alias] = kids
        if len(self.parent) != len(tree.aliases):
            raise PlanError("query tree is not connected")
        self.preorder: Tuple[str, ...] = tuple(order)

    def subtree_aliases(self, alias: str) -> Tuple[str, ...]:
        """All aliases in the subtree rooted at ``alias`` (inclusive)."""
        out = [alias]
        stack = [alias]
        while stack:
            cur = stack.pop()
            for kid, _ in self.children[cur]:
                out.append(kid)
                stack.append(kid)
        return tuple(out)


def build_query_tree(query: JoinQuery) -> QueryTree:
    """Build the unrooted query tree, breaking cycles by edge demotion.

    Predicates between the same pair of tables are merged into one edge.
    If the pair-level graph has cycles, a spanning tree is kept (edges are
    considered in declaration order, matching the paper's "arbitrarily
    remove an edge on the cycle") and every predicate of each dropped edge
    becomes a residual :class:`MultiTableFilter`.  Likewise any second
    range-form predicate within a kept edge is demoted.

    Raises :class:`PlanError` when the tree would be disconnected (the
    query is then a cartesian product of independent joins, which the paper
    does not consider).
    """
    demoted: List[MultiTableFilter] = []
    # group predicates by unordered pair
    groups: Dict[Tuple[str, str], List[ThetaPredicate]] = {}
    pair_order: List[Tuple[str, str]] = []
    for pred in query.join_predicates:
        a, b = pred.sides()
        pair = (a, b) if query.index_of(a) <= query.index_of(b) else (b, a)
        if pair not in groups:
            groups[pair] = []
            pair_order.append(pair)
        groups[pair].append(pred)

    # union-find for cycle detection over pairs
    parent = {alias: alias for alias in query.aliases}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: List[TreeEdge] = []
    for pair in pair_order:
        a, b = pair
        preds = groups[pair]
        ra, rb = find(a), find(b)
        if ra == rb:
            # this edge would close a cycle: demote all its predicates
            demoted.extend(MultiTableFilter.from_theta(p) for p in preds)
            continue
        parent[ra] = rb
        eqs = []
        range_pred: Optional[ThetaPredicate] = None
        for pred in preds:
            is_plain_eq = (
                isinstance(pred, JoinPredicate) and pred.is_plain_equality
            )
            if is_plain_eq:
                eqs.append(pred)
            elif range_pred is None:
                range_pred = pred
            else:
                demoted.append(MultiTableFilter.from_theta(pred))
        edges.append(TreeEdge(a, b, tuple(eqs), range_pred))

    tree = QueryTree(query, edges, demoted)
    if query.num_tables > 1 and not tree.is_connected():
        raise PlanError(
            "query tree is disconnected (cartesian products unsupported)"
        )
    return tree
