"""The hash step: an equality edge into a one-key node is a lookup.

A directed tree edge ``src -> dst`` with no range predicate whose key on
``dst`` is exactly ``dst``'s vertex key joins, per source key, the one
vertex ``dst``'s hash index holds under it or none; Algorithms 1 and 2
then look that vertex up instead of walking the aggregate tree's range.
Checked here over ``conftest.random_query`` shapes:

* the step is granted exactly where the plan says so — never into a
  node whose vertex key has several attributes, never over a range edge;
* ``check_invariants`` (which asserts the licence: the tree range of
  each source key holds at most the vertex the hash returns) and
  Algorithm 2 from every root against a brute-force join, after insert
  batches, delete runs and single deletes whose keys mix values that
  compare equal across types (``1``, ``1.0``, ``True``) with ints past
  2**53 and the floats they round to.
"""

import itertools
import random
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Column, Database, TableSchema, parse_query
from repro.datagen.linear_road import lane_schema, qb_sql
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.query.planner import plan_query

from conftest import delete_one, random_query

BIG = 2 ** 53
#: equality-only columns: equal across types, and unequal neighbours of
#: 2**53 that a float cannot tell apart
EQ_VALUES = (0, 1, 1.0, True, 2, 2.0, BIG, BIG + 1, float(BIG), -BIG - 1)
#: columns any range predicate reads: exact under band arithmetic
RANGE_VALUES = (0, 1, 1.0, True, 2, 3, 2.5)


def granted(plan, graph):
    """``(src, dst) -> hash step granted?`` for every directed edge."""
    return {(src, dst): direction.vertex_of is not None
            for src in range(len(plan.nodes))
            for dst, direction in graph.neighbors(src)}


def expected_grant(plan, src, dst):
    src_alias, dst_node = plan.nodes[src].alias, plan.nodes[dst]
    (edge,) = [edge for alias, edge in plan.tree.neighbors(src_alias)
               if alias == dst_node.alias]
    return (edge.range_predicate is None
            and edge.key_attrs_of(dst_node.alias) == dst_node.vertex_attrs)


def brute_force(query, live):
    """The join of the live ``(tid, row)`` lists as a result multiset
    (``random_query`` names a table's columns ``c0``, ``c1``, ...)."""
    index = {alias: i for i, alias in enumerate(query.aliases)}
    out = Counter()
    for combo in itertools.product(*live):
        if all(pred.matches_side(
                a, combo[index[a]][1][int(pred.attr_of(a)[1:])],
                combo[index[b]][1][int(pred.attr_of(b)[1:])])
               for pred in query.join_predicates
               for a, b in [pred.sides()]):
            out[tuple(tid for tid, _ in combo)] += 1
    return out


def mapped(graph, root_idx):
    return Counter(map_join_number(graph, root_idx, number)
                   for number in range(graph.total_results(root_idx)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(0, 2 ** 32))
@example(3, 2, 1)
@example(11, 3, 5)
def test_the_hash_step_is_licensed_and_exact(plan_seed, num_tables,
                                             stream_seed):
    db, query = random_query(random.Random(plan_seed), num_tables)
    plan = plan_query(query, db)
    graph = WeightedJoinGraph(plan)
    for (src, dst), is_granted in granted(plan, graph).items():
        assert is_granted == expected_grant(plan, src, dst)
        if len(plan.nodes[dst].vertex_attrs) > 1:
            assert not is_granted       # random shapes: one eq per edge
    ranged = {(pred.attr_of(alias), alias)
              for pred in query.join_predicates
              if not pred.is_equality for alias in pred.sides()}
    pools = [[RANGE_VALUES if (f"c{i}", node.alias) in ranged else EQ_VALUES
              for i in range(len(node.schema.columns))]
             for node in plan.nodes]
    rng = random.Random(stream_seed)
    live = [[] for _ in plan.nodes]
    next_tid = 0
    for step in range(30):
        node_idx = rng.randrange(len(plan.nodes))
        key_of = plan.nodes[node_idx].vertex_key_of
        roll = rng.random()
        if roll < 0.65 or not live[node_idx]:
            entries = []
            for _ in range(rng.choice((1, 2, 3))):
                row = tuple(rng.choice(pool) for pool in pools[node_idx])
                entries.append((next_tid, key_of(row), None))
                live[node_idx].append((next_tid, row))
                next_tid += 1
            graph.insert_tuples(node_idx, entries)
        elif roll < 0.85:
            run = graph.delete_run(node_idx)
            for _ in range(min(len(live[node_idx]), rng.randrange(1, 4))):
                tid, row = live[node_idx].pop(
                    rng.randrange(len(live[node_idx])))
                assert run.delete(tid, key_of(row)) is not None
            run.flush()
        else:
            tid, row = live[node_idx].pop(rng.randrange(len(live[node_idx])))
            assert delete_one(graph, node_idx, tid, key_of(row)) is not None
        if step % 10 == 9:
            graph.check_invariants()
    graph.check_invariants()
    exact = brute_force(query, live)
    for root_idx in range(len(plan.nodes)):
        assert mapped(graph, root_idx) == exact


def test_random_shapes_reach_both_sides_of_the_rule():
    """The shapes the property test draws from grant the step and
    withhold it, and have multi-attribute vertex keys."""
    seen = Counter()
    for seed in range(40):
        db, query = random_query(random.Random(seed), 2 + seed % 3)
        plan = plan_query(query, db)
        graph = WeightedJoinGraph(plan)
        for (src, dst), is_granted in granted(plan, graph).items():
            seen["granted" if is_granted else "tree"] += 1
            if len(plan.nodes[dst].vertex_attrs) > 1:
                seen["multi-attribute"] += 1
    assert seen["granted"] and seen["tree"] and seen["multi-attribute"]


def test_the_paper_queries_on_each_side():
    """QY's one equality edge (income band between the two combined
    nodes) is a hash step both ways; Linear Road's band edges are not."""
    setup = setup_query("QY", TpcdsScale.tiny())
    plan = plan_query(parse_query(setup.sql, setup.db), setup.db,
                      fk_optimize=True)
    assert set(granted(plan, WeightedJoinGraph(plan)).values()) == {True}
    db = Database()
    for i in range(3):
        db.create_table(lane_schema(f"lane{i + 1}"))
    plan = plan_query(parse_query(qb_sql(200), db), db, fk_optimize=True)
    steps = granted(plan, WeightedJoinGraph(plan))
    assert len(steps) == 4 and set(steps.values()) == {False}


def test_a_two_column_equality_edge_is_a_hash_step():
    """A composite equality that covers the whole (two-attribute)
    vertex key qualifies; a one-column edge into the same node does
    not."""
    db = Database()
    for name in ("r", "s", "t"):
        db.create_table(TableSchema(name, [Column("a"), Column("b")]))
    plan = plan_query(parse_query(
        "SELECT * FROM r, s, t WHERE r.a = s.a AND r.b = s.b "
        "AND s.a = t.a", db), db)
    steps = granted(plan, WeightedJoinGraph(plan))
    r, s, t = (plan.node_idx(alias) for alias in ("r", "s", "t"))
    assert plan.nodes[s].vertex_attrs == ("a", "b")
    assert steps[(r, s)] is True
    assert steps[(t, s)] is False       # (a,) is not s's key (a, b)
    assert steps[(s, t)] is True
