"""SJoin engine end-to-end tests against the exact executor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    JoinExecutor,
    SJoinEngine,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import (
    engine_delete, engine_insert, make_tables, random_query, random_row)


def two_table_engine(spec=None, seed=0):
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    query = parse_query("SELECT * FROM r, s WHERE r.c0 = s.c0", db)
    engine = SJoinEngine(db, query, spec or SynopsisSpec.fixed_size(8),
                         seed=seed)
    return db, engine


class TestInsertDelete:
    def test_filtered_insert_returns_minus_one(self):
        db = Database()
        make_tables(db, [("r", 2), ("s", 2)])
        query = parse_query(
            "SELECT * FROM r, s WHERE r.c0 = s.c0 AND r.c1 < 5", db
        )
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(8), seed=0)
        assert engine_insert(engine, "r", (1, 10)) == -1
        assert engine_insert(engine, "r", (1, 3)) == 0
        assert engine.stats.filtered_inserts == 1
        assert len(db.table("r")) == 1  # pre-filter kept the row out

    def test_j_tracks_exact(self):
        db, engine = two_table_engine()
        engine_insert(engine, "r", (1, 0))
        engine_insert(engine, "s", (1, 0))
        engine_insert(engine, "s", (1, 1))
        assert engine.total_results() == 2
        engine_delete(engine, "s", 1)
        assert engine.total_results() == 1
        engine_delete(engine, "r", 0)
        assert engine.total_results() == 0

    def test_synopsis_always_full_when_possible(self):
        db, engine = two_table_engine(SynopsisSpec.fixed_size(4))
        for i in range(6):
            engine_insert(engine, "r", (1, i))
        for i in range(6):
            engine_insert(engine, "s", (1, i))
        assert len(engine.raw_samples()) == 4
        # delete tuples until fewer than m results remain
        for tid in range(5):
            engine_delete(engine, "r", tid)
        assert engine.total_results() == 6
        assert len(engine.raw_samples()) == 4
        engine_delete(engine, "r", 5)
        assert engine.total_results() == 0
        assert len(engine.raw_samples()) == 0

    def test_replenish_after_purge(self):
        db, engine = two_table_engine(SynopsisSpec.fixed_size(3))
        for i in range(10):
            engine_insert(engine, "r", (i, 0))
            engine_insert(engine, "s", (i, 0))
        # every (i,i) pair is one result; delete a sampled tuple
        sample = engine.raw_samples()[0]
        r_tid = sample[0]
        engine_delete(engine, "r", r_tid)
        assert engine.total_results() == 9
        assert len(engine.raw_samples()) == 3
        assert all(s[0] != r_tid for s in engine.raw_samples())

    def test_samples_always_subset_of_exact(self):
        rng = random.Random(77)
        db, engine = two_table_engine(SynopsisSpec.fixed_size(5), seed=9)
        live = {"r": [], "s": []}
        for _ in range(150):
            if rng.random() < 0.35 and any(live.values()):
                alias = rng.choice([a for a in live if live[a]])
                tid = live[alias].pop(rng.randrange(len(live[alias])))
                engine_delete(engine, alias, tid)
            else:
                alias = rng.choice(["r", "s"])
                tid = engine_insert(engine, alias, random_row(rng, 2, 4))
                live[alias].append(tid)
            exact = set(JoinExecutor(db, engine.query).results())
            assert set(engine.raw_samples()) <= exact
            assert len(engine.raw_samples()) == min(5, len(exact))
            assert engine.total_results() == len(exact)


class TestSynopsisTypes:
    @pytest.mark.parametrize("spec", [
        SynopsisSpec.fixed_size(6),
        SynopsisSpec.with_replacement(6),
        SynopsisSpec.bernoulli(0.3),
    ])
    def test_random_ops_all_types(self, spec):
        rng = random.Random(5)
        db, engine = two_table_engine(spec, seed=3)
        live = {"r": [], "s": []}
        for _ in range(120):
            if rng.random() < 0.3 and any(live.values()):
                alias = rng.choice([a for a in live if live[a]])
                tid = live[alias].pop(rng.randrange(len(live[alias])))
                engine_delete(engine, alias, tid)
            else:
                alias = rng.choice(["r", "s"])
                tid = engine_insert(engine, alias, random_row(rng, 2, 4))
                live[alias].append(tid)
        exact = set(JoinExecutor(db, engine.query).results())
        assert set(engine.raw_samples()) <= exact
        assert engine.total_results() == len(exact)

    def test_with_replacement_keeps_m_slots(self):
        db, engine = two_table_engine(SynopsisSpec.with_replacement(5))
        for i in range(8):
            engine_insert(engine, "r", (i % 3, i))
            engine_insert(engine, "s", (i % 3, i))
        assert len(engine.raw_samples()) == 5
        engine_delete(engine, "r", 0)
        if engine.total_results() > 0:
            assert len(engine.raw_samples()) == 5


class TestPropertyRandomQueries:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=2, max_value=4))
    def test_engine_matches_exact_on_random_queries(self, seed, n_tables):
        rng = random.Random(seed)
        db, query = random_query(rng, n_tables)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(7),
                             seed=seed)
        live = {alias: [] for alias in query.aliases}
        for _ in range(60):
            if rng.random() < 0.3 and any(live.values()):
                alias = rng.choice([a for a in live if live[a]])
                tid = live[alias].pop(rng.randrange(len(live[alias])))
                engine_delete(engine, alias, tid)
            else:
                alias = rng.choice(list(query.aliases))
                ncols = len(
                    db.table(query.range_table(alias).table_name)
                    .schema.columns
                )
                tid = engine_insert(engine, alias, random_row(rng, ncols, 4))
                live[alias].append(tid)
        exact = set(JoinExecutor(db, query, include_filters=False,
                                 include_residual=False).results())
        assert engine.total_results() == len(exact)
        assert set(engine.raw_samples()) <= exact
        assert len(engine.raw_samples()) == min(7, len(exact))
        engine.graph.check_invariants()


class TestStats:
    def test_counters_advance(self):
        db, engine = two_table_engine()
        engine_insert(engine, "r", (1, 1))
        engine_insert(engine, "s", (1, 2))
        engine_delete(engine, "s", 0)
        stats = engine.stats
        assert stats.inserts == 2
        assert stats.deletes == 1
        assert stats.new_results_total == 1
        assert stats.removed_results_total == 1
