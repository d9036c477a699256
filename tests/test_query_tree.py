"""Query tree construction: edges, cycle demotion, rooted traversals."""

import pytest

from repro import (
    BandPredicate,
    Column,
    ComparisonOp,
    Database,
    JoinPredicate,
    JoinQuery,
    PlanError,
    QueryError,
    RangeTable,
    TableSchema,
)
from repro.query.query_tree import build_query_tree


def rts(*names):
    return [RangeTable(n, n) for n in names]


def eq(a, aa, b, ba):
    return JoinPredicate(a, aa, ComparisonOp.EQ, b, ba)


class TestEdges:
    def test_simple_chain(self):
        q = JoinQuery(rts("r", "s", "t"),
                      [eq("r", "a", "s", "a"), eq("s", "b", "t", "b")])
        tree = build_query_tree(q)
        assert len(tree.edges) == 2
        assert not tree.demoted
        assert tree.degree("s") == 2
        assert tree.degree("r") == 1

    def test_composite_equality_edge(self):
        q = JoinQuery(rts("r", "s"),
                      [eq("r", "a", "s", "a"), eq("r", "b", "s", "b")])
        tree = build_query_tree(q)
        (edge,) = tree.edges
        assert len(edge.eq_predicates) == 2
        assert edge.range_predicate is None
        assert edge.key_attrs_of("r") == ("a", "b")

    def test_mixed_edge_puts_range_last(self):
        q = JoinQuery(rts("r", "s"), [
            JoinPredicate("r", "b", ComparisonOp.LE, "s", "b"),
            eq("r", "a", "s", "a"),
        ])
        tree = build_query_tree(q)
        (edge,) = tree.edges
        assert len(edge.eq_predicates) == 1
        assert edge.range_predicate is not None
        assert edge.key_attrs_of("r") == ("a", "b")

    def test_second_range_predicate_demoted(self):
        q = JoinQuery(rts("r", "s"), [
            JoinPredicate("r", "a", ComparisonOp.LE, "s", "a"),
            JoinPredicate("r", "b", ComparisonOp.GE, "s", "b"),
        ])
        tree = build_query_tree(q)
        (edge,) = tree.edges
        assert edge.range_predicate is not None
        assert len(tree.demoted) == 1

    def test_edge_matches_composite(self):
        q = JoinQuery(rts("r", "s"), [
            eq("r", "a", "s", "a"),
            BandPredicate("r", "b", "s", "b", width=1),
        ])
        tree = build_query_tree(q)
        (edge,) = tree.edges
        assert edge.matches("r", (3, 5), (3, 6))
        assert not edge.matches("r", (3, 5), (4, 5))
        assert not edge.matches("r", (3, 5), (3, 7))

    def test_key_range_for_composite(self):
        q = JoinQuery(rts("r", "s"), [
            eq("r", "a", "s", "a"),
            BandPredicate("r", "b", "s", "b", width=2),
        ])
        tree = build_query_tree(q)
        (edge,) = tree.edges
        rng = edge.range_fn("s")((7, 10))
        assert rng.prefix == (7,)
        assert (rng.lo, rng.hi) == (8, 12)
        assert rng.contains((7, 9))
        assert rng.contains((7, 12))
        assert not rng.contains((7, 13))
        assert not rng.contains((8, 10))
        with pytest.raises(QueryError):
            edge.range_fn("t")

    def test_pure_equality_range_is_point(self):
        q = JoinQuery(rts("r", "s"), [eq("r", "a", "s", "a")])
        tree = build_query_tree(q)
        rng = tree.edges[0].range_fn("s")((5,))
        assert rng.prefix == (5,)
        assert rng.lo is None and rng.hi is None
        assert rng.contains((5,))
        assert not rng.contains((6,))


class TestCycles:
    def test_triangle_demotes_one_edge(self):
        q = JoinQuery(rts("r", "s", "t"), [
            eq("r", "a", "s", "a"),
            eq("s", "b", "t", "b"),
            eq("t", "c", "r", "c"),
        ])
        tree = build_query_tree(q)
        assert len(tree.edges) == 2
        assert len(tree.demoted) == 1
        # demotion keeps declaration order: the t-r edge closes the cycle
        assert set(tree.demoted[0].aliases) == {"t", "r"}

    def test_q1_style_cycle(self):
        """The intro's Q1: ss-sr (eq), sr-cs (eq), ss-cs (ineq) — the
        inequality edge closes the cycle and becomes a residual filter."""
        q = JoinQuery(rts("ss", "sr", "cs"), [
            eq("ss", "item", "sr", "item"),
            eq("ss", "ticket", "sr", "ticket"),
            eq("sr", "cust", "cs", "cust"),
            JoinPredicate("ss", "date", ComparisonOp.LE, "cs", "date"),
        ])
        tree = build_query_tree(q)
        assert len(tree.edges) == 2
        (residual,) = tree.demoted
        assert set(residual.aliases) == {"ss", "cs"}
        assert residual.matches((1, 2))
        assert not residual.matches((2, 1))

    def test_disconnected_rejected(self):
        q = JoinQuery(rts("r", "s", "t"), [eq("r", "a", "s", "a")])
        with pytest.raises(PlanError):
            build_query_tree(q)

    def test_single_table_allowed(self):
        tree = build_query_tree(JoinQuery(rts("r")))
        assert not tree.edges


class TestRooted:
    def make_star(self):
        # s in the middle; r, t, u leaves
        q = JoinQuery(rts("r", "s", "t", "u"), [
            eq("r", "a", "s", "a"),
            eq("s", "b", "t", "b"),
            eq("s", "c", "u", "c"),
        ])
        return build_query_tree(q)

    def test_parents_and_children(self):
        tree = self.make_star()
        rooted = tree.rooted_at("r")
        assert rooted.parent["r"] is None
        assert rooted.parent["s"] == "r"
        assert rooted.parent["t"] == "s"
        kids = [alias for alias, _ in rooted.children["s"]]
        assert set(kids) == {"t", "u"}

    def test_preorder_parents_first(self):
        tree = self.make_star()
        rooted = tree.rooted_at("t")
        order = rooted.preorder
        assert order[0] == "t"
        for alias in order[1:]:
            assert order.index(rooted.parent[alias]) < order.index(alias)

    def test_subtree_aliases(self):
        tree = self.make_star()
        rooted = tree.rooted_at("r")
        assert set(rooted.subtree_aliases("s")) == {"s", "t", "u"}
        assert rooted.subtree_aliases("u") == ("u",)

    def test_join_attrs_dedup(self):
        # s joins r on a and t on a as well: vertex key has one 'a'
        q = JoinQuery(rts("r", "s", "t"), [
            eq("r", "x", "s", "a"),
            eq("s", "a", "t", "y"),
        ])
        tree = build_query_tree(q)
        assert tree.join_attrs_of("s") == ("a",)

    def test_unknown_root_rejected(self):
        from repro.errors import QueryError
        tree = self.make_star()
        with pytest.raises(QueryError):
            tree.rooted_at("nope")
