"""Edge cases across the stack: degenerate plans, single tables, fully
collapsed queries, float and negative domains, empty streams."""

import random

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    DataType,
    ForeignKey,
    JoinExecutor,
    JoinSynopsisMaintainer,
    SJoinEngine,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import engine_delete, engine_insert


class TestSingleTableQuery:
    """n = 1: the synopsis degenerates to plain reservoir sampling over
    one table — the machinery must still work end-to-end."""

    def make(self, m=5):
        db = Database()
        db.create_table(TableSchema("t", [Column("a"), Column("b")]))
        return db, JoinSynopsisMaintainer(
            db, "SELECT * FROM t", MaintainerConfig(spec=SynopsisSpec.fixed_size(m), engine="sjoin", seed=0))

    def test_sampling_single_table(self):
        db, m = self.make()
        tids = [m.insert("t", (i, i)) for i in range(50)]
        assert m.total_results() == 50
        synopsis = m.synopsis()
        assert len(synopsis) == 5
        assert all(t[0] in tids for t in synopsis)

    def test_deletion_single_table(self):
        db, m = self.make(3)
        tids = [m.insert("t", (i, i)) for i in range(10)]
        for tid in tids[:8]:
            m.delete("t", tid)
        assert m.total_results() == 2
        assert sorted(t[0] for t in m.synopsis()) == [8, 9]

    def test_single_table_with_filter(self):
        db = Database()
        db.create_table(TableSchema("t", [Column("a")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM t WHERE t.a < 5", MaintainerConfig(spec=SynopsisSpec.fixed_size(100), engine="sjoin", seed=0))
        for i in range(10):
            m.insert("t", (i,))
        assert m.total_results() == 5


class TestFullyCollapsedQuery:
    """Every edge is an FK join: SJoin-opt reduces the plan to ONE node;
    each combined tuple is itself a join result."""

    def make_db(self):
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("x")], primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim"), Column("v")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        return db

    def test_single_node_plan(self):
        db = self.make_db()
        query = parse_query(
            "SELECT * FROM fact, dim WHERE fact.f_dim = dim.d_id", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(4),
                             fk_optimize=True, seed=0)
        assert len(engine.plan.nodes) == 1
        assert engine.plan.nodes[0].is_combined

    def test_maintenance_on_single_node(self):
        db = self.make_db()
        query = parse_query(
            "SELECT * FROM fact, dim WHERE fact.f_dim = dim.d_id", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(4),
                             fk_optimize=True, seed=0)
        for d in range(3):
            engine_insert(engine, "dim", (d, d * 10))
        fact_tids = [engine_insert(engine, "fact", (i % 3, i))
                     for i in range(12)]
        assert engine.total_results() == 12
        exact = set(JoinExecutor(db, query).results())
        assert set(engine.synopsis_entries().rows) <= exact
        for tid in fact_tids[:10]:
            engine_delete(engine, "fact", tid)
        assert engine.total_results() == 2
        assert len(engine.synopsis_entries().rows) == 2


class TestValueDomains:
    def test_float_band_join(self):
        db = Database()
        db.create_table(TableSchema("a", [Column("x", DataType.FLOAT)]))
        db.create_table(TableSchema("b", [Column("x", DataType.FLOAT)]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE |a.x - b.x| <= 0.5", MaintainerConfig(spec=SynopsisSpec.fixed_size(50), engine="sjoin", seed=0))
        rng = random.Random(3)
        for _ in range(40):
            m.insert("a", (rng.random() * 4,))
            m.insert("b", (rng.random() * 4,))
        exact = JoinExecutor(db, m.query).count()
        assert m.total_results() == exact

    def test_negative_values_and_offsets(self):
        db = Database()
        db.create_table(TableSchema("a", [Column("x")]))
        db.create_table(TableSchema("b", [Column("x")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.x <= 2 * b.x - 3", MaintainerConfig(spec=SynopsisSpec.fixed_size(50), engine="sjoin", seed=0))
        rng = random.Random(4)
        for _ in range(30):
            m.insert("a", (rng.randrange(-10, 10),))
            m.insert("b", (rng.randrange(-10, 10),))
        exact = JoinExecutor(db, m.query).count()
        assert m.total_results() == exact

    def test_string_equality_join(self):
        db = Database()
        db.create_table(TableSchema(
            "a", [Column("k", DataType.STR), Column("v")]))
        db.create_table(TableSchema(
            "b", [Column("k", DataType.STR), Column("v")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.k = b.k", MaintainerConfig(spec=SynopsisSpec.fixed_size(10), engine="sjoin", seed=0))
        words = ["ant", "bee", "cat"]
        rng = random.Random(5)
        for i in range(30):
            m.insert("a", (rng.choice(words), i))
            m.insert("b", (rng.choice(words), i))
        exact = JoinExecutor(db, m.query).count()
        assert m.total_results() == exact


class TestEmptyAndDegenerate:
    def test_synopsis_on_empty_database(self):
        db = Database()
        db.create_table(TableSchema("a", [Column("x")]))
        db.create_table(TableSchema("b", [Column("x")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.x = b.x", MaintainerConfig(spec=SynopsisSpec.fixed_size(5), seed=0))
        assert m.synopsis() == []
        assert m.total_results() == 0

    def test_delete_everything_then_refill(self):
        db = Database()
        db.create_table(TableSchema("a", [Column("x")]))
        db.create_table(TableSchema("b", [Column("x")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.x = b.x", MaintainerConfig(spec=SynopsisSpec.fixed_size(5), engine="sjoin", seed=0))
        a_tids = [m.insert("a", (i % 2,)) for i in range(4)]
        b_tids = [m.insert("b", (i % 2,)) for i in range(4)]
        for tid in a_tids:
            m.delete("a", tid)
        assert m.total_results() == 0
        assert m.synopsis() == []
        # refill: the engine must recover cleanly
        for i in range(4):
            m.insert("a", (i % 2,))
        exact = JoinExecutor(db, m.query).count()
        assert m.total_results() == exact
        assert len(m.synopsis()) == 5

    def test_with_replacement_survives_total_churn(self):
        db = Database()
        db.create_table(TableSchema("a", [Column("x")]))
        db.create_table(TableSchema("b", [Column("x")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.x = b.x", MaintainerConfig(spec=SynopsisSpec.with_replacement(4), engine="sjoin", seed=0))
        for round_no in range(3):
            a = m.insert("a", (1,))
            b = m.insert("b", (1,))
            assert len(m.engine.raw_samples()) == 4
            m.delete("a", a)
            assert m.engine.raw_samples() == []
        assert m.total_results() == 0

    def test_insert_after_large_deletion_wave(self):
        rng = random.Random(6)
        db = Database()
        db.create_table(TableSchema("a", [Column("x")]))
        db.create_table(TableSchema("b", [Column("x")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM a, b WHERE a.x = b.x", MaintainerConfig(spec=SynopsisSpec.fixed_size(6), engine="sjoin", seed=1))
        tids = []
        for i in range(60):
            tids.append(("a", m.insert("a", (rng.randrange(3),))))
            tids.append(("b", m.insert("b", (rng.randrange(3),))))
        rng.shuffle(tids)
        for alias, tid in tids[:100]:
            m.delete(alias, tid)
        exact = set(JoinExecutor(db, m.query).results())
        assert m.total_results() == len(exact)
        assert set(m.synopsis()) <= exact
        assert len(m.synopsis()) == min(6, len(exact))
