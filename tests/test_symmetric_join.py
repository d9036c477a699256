"""SJ baseline tests: correctness and its characteristic costs."""

import random

import pytest

from repro import (
    JoinExecutor,
    SymmetricJoinEngine,
    SynopsisSpec,
    parse_query,
)
from repro.catalog.database import Database

from conftest import (
    engine_delete, engine_insert, make_tables, random_query, random_row)


def two_table_engine(spec=None, seed=0):
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    query = parse_query("SELECT * FROM r, s WHERE r.c0 = s.c0", db)
    return db, SymmetricJoinEngine(
        db, query, spec or SynopsisSpec.fixed_size(5), seed=seed
    )


class TestCorrectness:
    def test_j_matches_exact(self):
        db, engine = two_table_engine()
        for i in range(5):
            engine_insert(engine, "r", (i % 2, i))
            engine_insert(engine, "s", (i % 2, i))
        exact = JoinExecutor(db, engine.query).count()
        assert engine.total_results() == exact

    def test_random_ops_match_exact(self):
        rng = random.Random(3)
        db, engine = two_table_engine(seed=2)
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
        assert engine.total_results() == len(exact)
        assert set(engine.raw_samples()) <= exact
        assert len(engine.raw_samples()) == min(5, len(exact))

    def test_multiway_random_query(self, rng):
        db, query = random_query(rng, 3)
        engine = SymmetricJoinEngine(db, query, SynopsisSpec.fixed_size(6),
                                     seed=1)
        for _ in range(60):
            alias = rng.choice(list(query.aliases))
            ncols = len(db.table(query.range_table(alias).table_name)
                        .schema.columns)
            engine_insert(engine, alias, random_row(rng, ncols, 4))
        exact = set(JoinExecutor(db, query, include_filters=False,
                                 include_residual=False).results())
        assert engine.total_results() == len(exact)
        assert set(engine.raw_samples()) <= exact

    def test_bernoulli_no_rebuild_on_delete(self):
        db, engine = two_table_engine(SynopsisSpec.bernoulli(0.5))
        for i in range(10):
            engine_insert(engine, "r", (1, i))
        engine_insert(engine, "s", (1, 0))
        before = engine.stats.full_recomputes
        engine_delete(engine, "r", 0)
        assert engine.stats.full_recomputes == before

    def test_pre_filters_respected(self):
        db = Database()
        make_tables(db, [("r", 2), ("s", 2)])
        query = parse_query(
            "SELECT * FROM r, s WHERE r.c0 = s.c0 AND r.c1 < 5", db
        )
        engine = SymmetricJoinEngine(db, query, SynopsisSpec.fixed_size(5),
                                     seed=0)
        assert engine_insert(engine, "r", (1, 9)) == -1
        assert engine.stats.filtered_inserts == 1


class TestCharacteristicCosts:
    def test_insert_enumerates_full_delta(self):
        """SJ touches one tuple per partial join result — the cost SJoin
        avoids (§4.4)."""
        db, engine = two_table_engine()
        for i in range(20):
            engine_insert(engine, "s", (1, i))
        before = engine.stats.tuples_accessed
        engine_insert(engine, "r", (1, 0))  # joins all 20 s-tuples
        assert engine.stats.tuples_accessed - before == 20

    def test_fixed_size_delete_triggers_full_recompute(self):
        db, engine = two_table_engine(SynopsisSpec.fixed_size(2))
        for i in range(6):
            engine_insert(engine, "r", (1, i))
        engine_insert(engine, "s", (1, 0))
        assert engine.stats.full_recomputes == 0
        # delete a sampled tuple -> purge -> rebuild
        sample = engine.raw_samples()[0]
        engine_delete(engine, "r", sample[0])
        assert engine.stats.full_recomputes == 1
        exact = set(JoinExecutor(db, engine.query).results())
        assert set(engine.raw_samples()) <= exact
        assert len(engine.raw_samples()) == 2

    def test_delete_unsampled_tuple_no_rebuild(self):
        db, engine = two_table_engine(SynopsisSpec.fixed_size(1))
        for i in range(6):
            engine_insert(engine, "r", (1, i))
        engine_insert(engine, "s", (1, 0))
        sampled_r = engine.raw_samples()[0][0]
        victim = next(t for t in range(6) if t != sampled_r)
        engine_delete(engine, "r", victim)
        assert engine.stats.full_recomputes == 0
        assert engine.total_results() == 5
