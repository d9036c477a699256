"""Positional vertex weights against a loop-form Equation (1).

The graph keeps ``w_out`` / ``W_in`` as lists indexed by plan node and
rewrites them with a step compiled once per plan node by its degree
(``WeightedJoinGraph._compile_recompute``).  The reference here knows
nothing of either: it recomputes every vertex's weights from scratch —
``W_in[k]`` by summing, over the neighbour's vertices whose edge key
``matches`` the predicate, their own reference ``w_out`` toward this node,
and ``w_out`` / ``w_full`` with the nested loop over neighbours the
compiled step replaced.  Plans are ``conftest.random_query`` ones plus a
fixed star with a tail, so a node of degree 3, one of degree 2, leaves, a
band edge and a composite edge are always covered; weighted graphs carry
weights past 2**63.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (BandPredicate, ComparisonOp, Database, JoinPredicate,
                   JoinQuery, RangeTable)
from repro.graph.join_graph import WeightedJoinGraph
from repro.query.planner import plan_query

from conftest import delete_one, make_tables, random_query, random_row

#: tuple weights of a weighted graph: products overflow int64 at once
WEIGHTS = (1, 3, 2 ** 63 + 5, 2 ** 64 - 1)


def star_query():
    """``t0`` joins ``t1`` (equality), ``t2`` (band) and ``t3`` (equality
    plus an inequality on other columns); ``t3`` joins ``t4``."""
    db = Database()
    make_tables(db, [("t0", 3), ("t1", 1), ("t2", 1), ("t3", 2), ("t4", 1)])
    query = JoinQuery([RangeTable(f"t{i}", f"t{i}") for i in range(5)], [
        JoinPredicate("t1", "c0", ComparisonOp.EQ, "t0", "c0"),
        BandPredicate(left="t2", left_attr="c0", right="t0", right_attr="c1",
                      width=1, inclusive=True),
        JoinPredicate("t3", "c0", ComparisonOp.EQ, "t0", "c2"),
        JoinPredicate("t3", "c1", ComparisonOp.LT, "t0", "c0"),
        JoinPredicate("t4", "c0", ComparisonOp.EQ, "t3", "c1"),
    ])
    return db, query


def reference_weights(graph):
    """``(node, key) -> (w_full, {j: w_out[j]}, {j: W_in[j]})`` for every
    vertex, from the vertices' ID lists (tuple weights) and the edge
    predicates alone."""
    plan = graph.plan
    edges = [dict(plan.tree.neighbors(node.alias)) for node in plan.nodes]
    nbrs = [sorted(plan.node_idx(alias) for alias in edge_of)
            for edge_of in edges]

    def edge_key(node_idx, key, edge):
        node = plan.nodes[node_idx]
        values = dict(zip(node.vertex_attrs, key))
        return tuple(values[a] for a in edge.key_attrs_of(node.alias))

    memo = {}

    def w_in(node_idx, key, nbr_idx):
        """Sum of ``w_out[nbr -> node]`` over the joining vertices."""
        alias = plan.nodes[node_idx].alias
        edge = edges[node_idx][plan.nodes[nbr_idx].alias]
        own = edge_key(node_idx, key, edge)
        return sum(
            w_out(nbr_idx, other_key, node_idx)
            for other_key, _ in graph.hash_indexes[nbr_idx].items()
            if edge.matches(alias, own, edge_key(nbr_idx, other_key, edge)))

    def w_out(node_idx, key, toward):
        """Equation (1) in loop form: the count times every ``W_in`` but
        the one from ``toward`` (None: all of them, ``w_full``)."""
        if (node_idx, key, toward) not in memo:
            partial = graph.hash_indexes[node_idx].get(key).multiplicity
            for other in nbrs[node_idx]:
                if other != toward:
                    partial *= w_in(node_idx, key, other)
            memo[(node_idx, key, toward)] = partial
        return memo[(node_idx, key, toward)]

    def weights(node_idx, key):
        return (w_out(node_idx, key, None),
                {nbr: w_out(node_idx, key, nbr) for nbr in nbrs[node_idx]},
                {nbr: w_in(node_idx, key, nbr) for nbr in nbrs[node_idx]})

    return {(node_idx, key): weights(node_idx, key)
            for node_idx, hash_index in enumerate(graph.hash_indexes)
            for key, _ in hash_index.items()}


def assert_weights_exact(graph):
    graph.check_invariants()
    num_nodes = len(graph.plan.nodes)
    for (node_idx, key), (full, outgoing, incoming) in \
            reference_weights(graph).items():
        vertex = graph.hash_indexes[node_idx].get(key)
        assert vertex.w_full == full, (vertex, full)
        # positional: a slot per plan node, zero off the neighbours
        assert vertex.w_out == [outgoing.get(j, 0) for j in range(num_nodes)]
        assert vertex.W_in == [incoming.get(j, 0) for j in range(num_nodes)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(st.none(), st.integers(0, 10 ** 6)),
       st.integers(2, 5), st.booleans(), st.integers(0, 2 ** 32))
@example(None, 5, True, 7)
@example(None, 5, False, 3)
def test_compiled_weights_match_loop_form_equation_1(
        plan_seed, num_tables, weighted, stream_seed):
    """``plan_seed`` None: the star; otherwise a random query over
    ``num_tables`` tables.  Inserts come one at a time and in batches,
    deletes one at a time and in runs."""
    if plan_seed is None:
        db, query = star_query()
    else:
        db, query = random_query(random.Random(plan_seed), num_tables)
    plan = plan_query(query, db)
    graph = WeightedJoinGraph(
        plan, tuple_weight=(lambda node_idx, row:
                            WEIGHTS[sum(row) % len(WEIGHTS)])
        if weighted else None)
    rng = random.Random(stream_seed)
    width = [len(node.schema.columns) for node in plan.nodes]

    def key_of(node_idx, row):
        return plan.nodes[node_idx].vertex_key_of(row)
    live = [[] for _ in plan.nodes]
    next_tid = 0
    for step in range(40):
        node_idx = rng.randrange(len(plan.nodes))
        roll = rng.random()
        if roll < 0.55 or not live[node_idx]:
            rows = [random_row(rng, width[node_idx], 4)
                    for _ in range(rng.choice((1, 1, 2, 4)))]
            graph.insert_tuples(node_idx, [
                (next_tid + i, key_of(node_idx, row),
                 graph.weight_of(node_idx, row) if weighted else None)
                for i, row in enumerate(rows)])
            for row in rows:
                live[node_idx].append((next_tid, row))
                next_tid += 1
        elif roll < 0.8:
            tid, row = live[node_idx].pop(rng.randrange(len(live[node_idx])))
            assert delete_one(graph, node_idx, tid,
                              key_of(node_idx, row)) is not None
        else:
            run = graph.delete_run(node_idx)
            for _ in range(min(len(live[node_idx]), rng.randrange(1, 4))):
                tid, row = live[node_idx].pop(
                    rng.randrange(len(live[node_idx])))
                assert run.delete(tid, key_of(node_idx, row)) is not None
            # a tuple the node does not hold: reported, nothing changed
            assert run.delete(next_tid, key_of(node_idx, random_row(
                rng, width[node_idx], 4))) is None
            run.flush()
        if step % 10 == 9:
            assert_weights_exact(graph)
    assert_weights_exact(graph)
