"""Weighted join graph tests (§4): weights, caches, maintenance.

The load-bearing property test: after any random interleaving of inserts
and deletes over a random acyclic query, every vertex's ``w_full``,
``w_out`` and cached ``W_in`` equal their brute-force definitions computed
from the exact executor.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BandPredicate,
    Column,
    ComparisonOp,
    Database,
    JoinExecutor,
    JoinPredicate,
    JoinQuery,
    RangeTable,
    TableSchema,
    parse_query,
)
from repro.errors import TupleNotFoundError
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.query.planner import plan_query

from conftest import random_query, random_row


def build_graph(db, sql):
    query = parse_query(sql, db)
    plan = plan_query(query, db)
    return WeightedJoinGraph(plan), query, plan


def simple_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    db.create_table(TableSchema("t", [Column("b")]))
    return db


class TestBasics:
    def test_empty_graph(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        assert graph.total_results() == 0
        assert graph.vertex_count(0) == 0

    def test_single_insert_no_results(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        tid = db.insert("r", (1,))
        _, new_results = graph.insert_tuple(0, tid, (1,))
        assert new_results == 0
        assert graph.total_results() == 0

    def test_full_match_counts(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        graph.insert_tuple(2, db.insert("t", (9,)), (9,))
        _, new_results = graph.insert_tuple(1, db.insert("s", (1, 9)), (1, 9))
        assert new_results == 1
        assert graph.total_results() == 1

    def test_duplicate_join_keys_share_vertex(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        assert graph.vertex_count(0) == 1
        vertex = graph.vertex_of(0, (1,))
        assert vertex.ids == [0, 1]

    def test_delete_unknown_tuple_raises(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        with pytest.raises(TupleNotFoundError):
            graph.delete_tuple(0, 0, (1,))

    def test_vertex_removed_when_ids_empty(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        tid = db.insert("r", (1,))
        graph.insert_tuple(0, tid, (1,))
        graph.delete_tuple(0, tid, (1,))
        assert graph.vertex_count(0) == 0
        graph.check_invariants()

    def test_delta_view_block_is_suffix_of_vertex_block(self):
        db = simple_db()
        graph, *_ = build_graph(
            db, "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
        )
        graph.insert_tuple(1, db.insert("s", (1, 9)), (1, 9))
        graph.insert_tuple(2, db.insert("t", (9,)), (9,))
        graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        placement = graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        # two r tuples share the vertex; the new tuple's block is the
        # last per-tuple chunk: (view_start, new_results)
        assert placement == (1, 1)


def brute_force_weights(db, query, plan, graph):
    """Check every vertex weight against the exact executor's counts."""
    tree = plan.tree
    for node in plan.nodes:
        hash_index = graph.hash_indexes[node.idx]
        rooted_cache = {}
        for vertex in list(hash_index.values()):
            # w_full: total join results whose node-tuple is in vertex.ids
            exact = JoinExecutor(db, query, include_filters=False,
                                 include_residual=False)
            full = [
                r for r in exact.iter_results()
                if r[node.idx] in vertex.ids
            ]
            assert vertex.w_full == len(full), (
                f"w_full mismatch at {vertex!r}: {vertex.w_full} != "
                f"{len(full)}"
            )
            # w_out[j]: results of the subjoin on the vertex's side of
            # edge (node, j) — count matches over the subtree away from j
            for nbr_idx, edge in graph.neighbors(node.idx):
                nbr_alias = plan.nodes[nbr_idx].alias
                if nbr_alias not in rooted_cache:
                    rooted_cache[nbr_alias] = tree.rooted_at(nbr_alias)
                rooted = rooted_cache[nbr_alias]
                sub_aliases = rooted.subtree_aliases(node.alias)
                count = _count_subjoin(db, query, plan, sub_aliases,
                                       node, vertex)
                assert vertex.w_out[nbr_idx] == count, (
                    f"w_out[{nbr_idx}] mismatch at {vertex!r}"
                )


def _count_subjoin(db, query, plan, sub_aliases, node, vertex):
    """Brute-force count of the subjoin over ``sub_aliases`` restricted to
    tuples of ``vertex``."""
    from repro.query.query import JoinQuery, RangeTable

    keep = set(sub_aliases)
    sub_rts = [RangeTable(a, a) for a in query.aliases if a in keep]
    sub_preds = [
        p for p in query.join_predicates
        if p.left in keep and p.right in keep
    ]
    # careful: only predicates on *tree* edges within the subtree
    tree_preds = []
    for edge in plan.tree.edges:
        if edge.a in keep and edge.b in keep:
            tree_preds.extend(edge.predicates)
    sub_query = JoinQuery(sub_rts, tree_preds)
    pos = [rt.alias for rt in sub_rts].index(node.alias)
    count = 0
    for result in JoinExecutor(db, sub_query, include_filters=False,
                               include_residual=False).iter_results():
        if result[pos] in vertex.ids:
            count += 1
    return count


class TestWeightsAgainstBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=2, max_value=4))
    def test_random_updates_keep_weights_exact(self, seed, num_tables):
        rng = random.Random(seed)
        db, query = random_query(rng, num_tables)
        plan = plan_query(query, db)
        graph = WeightedJoinGraph(plan)
        live = {alias: [] for alias in query.aliases}
        tables = {
            alias: db.table(query.range_table(alias).table_name)
            for alias in query.aliases
        }
        for _ in range(30):
            if rng.random() < 0.3 and any(live.values()):
                alias = rng.choice([a for a in live if live[a]])
                tid = live[alias].pop(rng.randrange(len(live[alias])))
                row = tables[alias].get(tid)
                graph.delete_tuple(query.index_of(alias), tid, row)
                tables[alias].delete(tid)
            else:
                alias = rng.choice(list(live))
                row = random_row(rng, len(tables[alias].schema.columns), 4)
                tid = tables[alias].insert(row)
                graph.insert_tuple(query.index_of(alias), tid, row)
                live[alias].append(tid)
        graph.check_invariants()
        brute_force_weights(db, query, plan, graph)
        exact = JoinExecutor(db, query, include_filters=False,
                             include_residual=False).count()
        assert graph.total_results() == exact


class TestInsertOutcome:
    def test_new_results_match_executor_delta(self, rng):
        db, query = random_query(rng, 3)
        plan = plan_query(query, db)
        graph = WeightedJoinGraph(plan)
        tables = {
            alias: db.table(query.range_table(alias).table_name)
            for alias in query.aliases
        }
        for step in range(40):
            alias = rng.choice(list(query.aliases))
            row = random_row(rng, len(tables[alias].schema.columns), 4)
            tid = tables[alias].insert(row)
            _, new_results = graph.insert_tuple(
                query.index_of(alias), tid, row)
            delta = JoinExecutor(
                db, query, include_filters=False, include_residual=False
            ).delta_results(alias, tid)
            assert new_results == len(delta)


def brute_force_w_in(plan, graph):
    """``W_in[j]`` of every vertex against the predicate itself: the sum
    of ``w_out[j -> i]`` over the neighbour's vertices whose edge key
    ``matches`` — no interval arithmetic involved."""
    def edge_key(node, vertex, edge):
        values = dict(zip(node.vertex_attrs, vertex.key))
        return tuple(values[a] for a in edge.key_attrs_of(node.alias))

    for node in plan.nodes:
        for vertex in graph.hash_indexes[node.idx].values():
            for nbr_alias, edge in plan.tree.neighbors(node.alias):
                nbr = plan.node(nbr_alias)
                own_key = edge_key(node, vertex, edge)
                expect = sum(
                    other.w_out[node.idx]
                    for other in graph.hash_indexes[nbr.idx].values()
                    if edge.matches(node.alias, own_key,
                                    edge_key(nbr, other, edge))
                )
                assert vertex.W_in[nbr.idx] == expect, (
                    f"W_in[{nbr.idx}] mismatch at {vertex!r}")


def _band(coeff, inclusive):
    return BandPredicate("r", "a", "s", "a", width=2, coeff=coeff,
                         inclusive=inclusive)


def _theta(coeff, op):
    return JoinPredicate("r", "a", op, "s", "a", coeff=coeff, offset=-1)


class TestBigIntegerRangeKeys:
    """Join keys past 2**53 (nanosecond timestamps are): the two
    directions of a range edge must bucket them identically.  The bounds
    used to be computed with ``int / int`` on one direction, a float, so
    ``matches(v, v + 1)`` held while ``interval_for_right(v)`` excluded
    ``v + 1`` — ``W_in`` went stale and Algorithm 2 drew from wrong
    weights."""

    @pytest.mark.parametrize("coeff", [1, -1, 2, 3])
    @pytest.mark.parametrize("make", [
        lambda c: _band(c, True), lambda c: _band(c, False),
        lambda c: _theta(c, ComparisonOp.LT),
        lambda c: _theta(c, ComparisonOp.GE),
        lambda c: _theta(c, ComparisonOp.EQ),
    ], ids=["band-closed", "band-open", "lt", "ge", "eq"])
    def test_weights_and_bijection_match_brute_force(self, make, coeff):
        rng = random.Random(60 + coeff)
        db = simple_db()
        query = JoinQuery(
            [RangeTable(name, name) for name in "rst"],
            [make(coeff),
             JoinPredicate("s", "b", ComparisonOp.EQ, "t", "b")])
        plan = plan_query(query, db)
        graph = WeightedJoinGraph(plan)
        base = 2 ** 60
        live = []
        for step in range(45):
            s_a = base + rng.randrange(6)
            alias, row = rng.choice([
                # r.a within a few units of coeff * s.a: on, just
                # inside and just outside every bound
                ("r", (coeff * s_a + rng.randrange(-4, 5),)),
                ("s", (s_a, rng.randrange(2))),
                ("t", (rng.randrange(2),)),
            ])
            tid = db.insert(alias, row)
            graph.insert_tuple(query.index_of(alias), tid, row)
            live.append((alias, tid, row))
            if step % 6 == 5:
                alias, tid, row = live.pop(rng.randrange(len(live)))
                graph.delete_tuple(query.index_of(alias), tid, row)
                db.table(alias).delete(tid)
        graph.check_invariants()
        brute_force_weights(db, query, plan, graph)
        brute_force_w_in(plan, graph)
        exact = sorted(JoinExecutor(db, query).results())
        assert exact, "the data must join"
        assert graph.total_results() == len(exact)
        for root in range(plan.num_nodes):
            assert sorted(map_join_number(graph, root, number)
                          for number in range(len(exact))) == exact
