"""Float keys and non-integer constants through Algorithms 1 and 2.

``conftest.random_query`` draws small integer rows and coefficients
{1, 2, -1}; this module drives the range paths of the join graph — the
compiled cuts of Algorithm 2's child step and a new vertex's ``W_in``,
Algorithm 1's bound-pair sweep — with FLOAT columns, fractional band
widths, coefficients and offsets, and composite equality + range edges.
After batched inserts, and again after a delete run and its flush
(which sweeps the deltas back out), the join-number mapping from every
root must be a bijection onto the exact executor's results.

Values sit on a grid of quarters and tenths.  Quarters are exact in
binary, so ties with the bounds are common; a tenth is not, and a
float row value is read as its exact binary rational by both the
executor's ``matches`` and the index's bounds, so the two agree on it
too (before 15.0 the bounds read ``1.1`` as 11/10 and dropped results).
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BandPredicate,
    Column,
    ComparisonOp,
    Database,
    DataType,
    JoinExecutor,
    JoinPredicate,
    JoinQuery,
    RangeTable,
    TableSchema,
)
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.query.planner import plan_query

COEFFS = (1, 2, -1, Fraction(1, 2), 0.5, -1.5)
OFFSETS = (0, 1, -2, 0.5, -0.75, Fraction(3, 2))
WIDTHS = (0, 0.5, 1, 1.25, Fraction(3, 4))


def _range_predicate(rnd, left, left_attr, right, right_attr):
    if rnd.random() < 0.5:
        return BandPredicate(left, left_attr, right, right_attr,
                             width=rnd.choice(WIDTHS),
                             coeff=rnd.choice(COEFFS),
                             inclusive=rnd.random() < 0.5)
    return JoinPredicate(left, left_attr,
                         rnd.choice([ComparisonOp.LT, ComparisonOp.LE,
                                     ComparisonOp.GT, ComparisonOp.GE]),
                         right, right_attr, coeff=rnd.choice(COEFFS),
                         offset=rnd.choice(OFFSETS))


def float_query(rnd, num_tables):
    """A random acyclic query over FLOAT columns: each edge one plain
    equality, one range predicate, or both on different columns."""
    db = Database()
    names = [f"t{i}" for i in range(num_tables)]
    ncols = [1 + rnd.randrange(3) for _ in names]
    for name, n in zip(names, ncols):
        db.create_table(TableSchema(
            name, [Column(f"c{i}", DataType.FLOAT) for i in range(n)]))
    predicates = []
    for i in range(1, num_tables):
        j = rnd.randrange(i)
        a, b = f"c{rnd.randrange(ncols[i])}", f"c{rnd.randrange(ncols[j])}"
        kind = rnd.random()
        if kind < 0.3:
            predicates.append(JoinPredicate(names[i], a, ComparisonOp.EQ,
                                            names[j], b))
        elif kind < 0.7:
            predicates.append(_range_predicate(rnd, names[i], a,
                                               names[j], b))
        else:
            predicates.append(JoinPredicate(names[i], a, ComparisonOp.EQ,
                                            names[j], b))
            predicates.append(_range_predicate(
                rnd, names[i], f"c{rnd.randrange(ncols[i])}",
                names[j], f"c{rnd.randrange(ncols[j])}"))
    return db, JoinQuery([RangeTable(n, n) for n in names], predicates)


def assert_bijection(db, query, plan, graph):
    exact = sorted(JoinExecutor(db, query, include_filters=False,
                                include_residual=False).results())
    graph.check_invariants()
    for root in range(plan.num_nodes):
        total = graph.total_results(root)
        assert total == len(exact)
        mapped = sorted(map_join_number(graph, root, number)
                        for number in range(total))
        assert mapped == exact, f"root {root}"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_float_ranges_map_every_result_once(seed, num_tables):
    rnd = random.Random(seed)
    db, query = float_query(rnd, num_tables)
    plan = plan_query(query, db)
    graph = WeightedJoinGraph(plan)
    tables = [db.table(node.alias) for node in plan.nodes]
    live = [[] for _ in plan.nodes]
    # inserts in runs of one plan node, two runs per node in random
    # order: Algorithm 1 batched per run
    runs = 2 * list(range(plan.num_nodes))
    rnd.shuffle(runs)
    for node_idx in runs:
        entries = []
        for _ in range(rnd.randint(1, 6)):
            row = tuple(rnd.randrange(-6, 7) / 4 if rnd.random() < 0.5
                        else rnd.randrange(-15, 16) / 10
                        for _ in tables[node_idx].schema.columns)
            tid = tables[node_idx].insert(row)
            live[node_idx].append((tid, row))
            entries.append(
                (tid, plan.nodes[node_idx].vertex_key_of(row), None))
        graph.insert_tuples(node_idx, entries)
    assert_bijection(db, query, plan, graph)
    # one delete run and its flush: the deltas swept back out
    node_idx = max(range(plan.num_nodes), key=lambda i: len(live[i]))
    doomed = rnd.sample(live[node_idx], (len(live[node_idx]) + 1) // 2)
    run = graph.delete_run(node_idx)
    for tid, row in doomed:
        assert run.delete(tid, plan.nodes[node_idx].vertex_key_of(row)) \
            is not None
        tables[node_idx].delete(tid)
    run.flush()
    assert_bijection(db, query, plan, graph)
