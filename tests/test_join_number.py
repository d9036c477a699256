"""Algorithm 2 tests: the join-number mapping is a bijection.

The key property: enumerating join numbers ``0 .. J-1`` with respect to
*any* root yields exactly the full join result set, each result once — on
random acyclic queries over random databases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinExecutor
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import JoinNumberError, map_join_number
from repro.graph.views import DeltaJoinView, FullJoinView
from repro.query.planner import plan_query

from conftest import random_query, random_row


def populated_graph(seed, num_tables=3, inserts=30, domain=4):
    rng = random.Random(seed)
    db, query = random_query(rng, num_tables)
    plan = plan_query(query, db)
    graph = WeightedJoinGraph(plan)
    tables = {
        alias: db.table(query.range_table(alias).table_name)
        for alias in query.aliases
    }
    for _ in range(inserts):
        alias = rng.choice(list(query.aliases))
        row = random_row(rng, len(tables[alias].schema.columns), domain)
        tid = tables[alias].insert(row)
        graph.insert_tuple(query.index_of(alias), tid, row)
    return db, query, plan, graph


class TestBijection:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=2, max_value=4))
    def test_enumeration_equals_exact_join(self, seed, num_tables):
        db, query, plan, graph = populated_graph(seed, num_tables)
        exact = sorted(JoinExecutor(
            db, query, include_filters=False, include_residual=False
        ).results())
        total = graph.total_results()
        assert total == len(exact)
        for root in range(plan.num_nodes):
            mapped = sorted(
                map_join_number(graph, root, l) for l in range(total)
            )
            assert mapped == exact, f"root {root} mapping is not a bijection"

    def test_out_of_range_raises(self):
        db, query, plan, graph = populated_graph(7)
        total = graph.total_results()
        with pytest.raises(JoinNumberError):
            map_join_number(graph, 0, total)
        with pytest.raises(JoinNumberError):
            map_join_number(graph, 0, -1)


class TestViews:
    def test_full_view_covers_everything(self):
        db, query, plan, graph = populated_graph(3)
        view = FullJoinView(graph)
        exact = sorted(JoinExecutor(
            db, query, include_filters=False, include_residual=False
        ).results())
        assert view.length() == len(exact)
        assert sorted(view) == exact

    def test_view_index_bounds(self):
        db, query, plan, graph = populated_graph(3)
        view = FullJoinView(graph)
        with pytest.raises(IndexError):
            view.get(view.length())
        with pytest.raises(IndexError):
            view.get(-1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_delta_view_is_exactly_the_new_results(self, seed):
        """After every insertion, the delta view enumerates exactly the
        join results involving the new tuple."""
        rng = random.Random(seed)
        db, query = random_query(rng, 3)
        plan = plan_query(query, db)
        graph = WeightedJoinGraph(plan)
        tables = {
            alias: db.table(query.range_table(alias).table_name)
            for alias in query.aliases
        }
        for _ in range(25):
            alias = rng.choice(list(query.aliases))
            node_idx = query.index_of(alias)
            row = random_row(rng, len(tables[alias].schema.columns), 3)
            tid = tables[alias].insert(row)
            placement = graph.insert_tuple(node_idx, tid, row)
            view = DeltaJoinView(graph, node_idx, [placement])
            got = sorted(view)
            expect = sorted(JoinExecutor(
                db, query, include_filters=False, include_residual=False
            ).delta_results(alias, tid))
            assert got == expect
