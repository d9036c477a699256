"""Foreign-key optimisation tests: runtime behaviour, integrity, and
SJoin vs SJoin-opt equivalence (same J, same result sets)."""

import random

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    IntegrityError,
    JoinExecutor,
    SJoinEngine,
    SynopsisError,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import engine_delete, engine_insert


def fk_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)
    ))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),),
    ))
    db.create_table(TableSchema("other", [Column("band"), Column("z")]))
    return db


FK_SQL = ("SELECT * FROM fact, dim, other "
          "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")


def opt_engine(db, sql=FK_SQL, spec=None, seed=0):
    query = parse_query(sql, db)
    return SJoinEngine(db, query, spec or SynopsisSpec.fixed_size(5),
                       fk_optimize=True, seed=seed)


class TestRuntime:
    def test_dim_insert_triggers_nothing(self):
        db = fk_db()
        engine = opt_engine(db)
        engine_insert(engine, "dim", (1, 7))
        assert engine.total_results() == 0
        # a member lands in its hash only: no combined tuple, no graph
        assert engine.graph.state_dict()["nodes"][
            engine.plan.node_idx("fact__dim")] == []
        (runtime,) = engine._combined.values()
        assert len(runtime.hashes["dim"]) == 1

    def test_fact_insert_combines(self):
        db = fk_db()
        engine = opt_engine(db)
        engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "other", (7, 0))
        fact_tid = engine_insert(engine, "fact", (1, 42))
        assert engine.total_results() == 1
        # a combined tuple is its anchor: the fact TID names it, and its
        # row is rebuilt from the fact row
        combined = engine.plan.node("fact__dim")
        assert combined.table is db.table("fact")
        row = engine.row_of(combined.idx, fact_tid)
        assert row[:2] == (0, 0)  # original tids of fact and dim
        assert engine.raw_samples() == [(fact_tid, 0)]
        assert engine.plan.expand_result(
            (fact_tid, 0), engine._combined) == (0, 0, 0)

    def test_missing_pk_raises(self):
        db = fk_db()
        engine = opt_engine(db)
        with pytest.raises(IntegrityError):
            engine_insert(engine, "fact", (999, 1))

    def test_refused_fact_deletes_cleanly_after_its_dim_arrives(self):
        """The refused row stays in the heap; once its dim exists its
        combined row would rebuild, but it is in no graph and holds no
        reference, so its delete touches neither."""
        db = fk_db()
        engine = opt_engine(db)
        with pytest.raises(IntegrityError):
            engine_insert(engine, "fact", (1, 42))
        (refused,) = db.table("fact").live_tids()
        dim_tid = engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "other", (7, 0))
        engine_delete(engine, "fact", refused)
        engine_delete(engine, "dim", dim_tid)     # never referenced
        assert engine.total_results() == 0

    def test_a_fact_refused_for_its_weight_references_nothing(self):
        """Assembly finds the dim, then the tuple weight refuses the row:
        the row stays in the heap, in no graph and holding no reference,
        so its delete leaves the reference of an accepted fact alone."""
        db = fk_db()
        engine = opt_engine(db, spec=SynopsisSpec.weighted_with_replacement(
            5, "fact.val"))
        dim_tid = engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "other", (7, 0))
        with pytest.raises(SynopsisError, match="positive integers"):
            engine_insert(engine, "fact", (1, 0))
        (refused,) = db.table("fact").live_tids()
        accepted = engine_insert(engine, "fact", (1, 3))
        assert engine.total_results() == 3
        engine_delete(engine, "fact", refused)
        assert engine.total_results() == 3
        with pytest.raises(IntegrityError):     # still held by `accepted`
            engine_delete(engine, "dim", dim_tid)
        engine_delete(engine, "fact", accepted)
        engine_delete(engine, "dim", dim_tid)
        assert engine.total_results() == 0
        engine.graph.check_invariants()

    def test_duplicate_pk_raises(self):
        db = fk_db()
        engine = opt_engine(db)
        engine_insert(engine, "dim", (1, 7))
        with pytest.raises(IntegrityError):
            engine_insert(engine, "dim", (1, 8))

    def test_delete_referenced_pk_raises(self):
        db = fk_db()
        engine = opt_engine(db)
        dim_tid = engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "fact", (1, 42))
        with pytest.raises(IntegrityError):
            engine_delete(engine, "dim", dim_tid)

    def test_delete_pk_after_facts_gone_ok(self):
        db = fk_db()
        engine = opt_engine(db)
        dim_tid = engine_insert(engine, "dim", (1, 7))
        fact_tid = engine_insert(engine, "fact", (1, 42))
        engine_delete(engine, "fact", fact_tid)
        engine_delete(engine, "dim", dim_tid)  # no error
        assert engine.total_results() == 0

    def test_fact_delete_removes_results(self):
        db = fk_db()
        engine = opt_engine(db)
        engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "other", (7, 0))
        fact_tid = engine_insert(engine, "fact", (1, 42))
        assert engine.total_results() == 1
        engine_delete(engine, "fact", fact_tid)
        assert engine.total_results() == 0

    def test_filtered_member_drops_silently(self):
        """A pre-filter on the PK side means missing lookups are drops,
        not integrity errors (§5.1 pre-filter + §6 interaction)."""
        db = fk_db()
        sql = (FK_SQL + " AND dim.band < 5")
        engine = opt_engine(db, sql)
        engine_insert(engine, "dim", (1, 7))   # filtered out (band >= 5)
        engine_insert(engine, "dim", (2, 3))   # kept
        engine_insert(engine, "other", (3, 0))
        assert engine_insert(engine, "fact", (1, 0)) >= 0  # silently dropped
        engine_insert(engine, "fact", (2, 0))
        assert engine.total_results() == 1

    def test_results_expand_to_original_tids(self):
        db = fk_db()
        engine = opt_engine(db)
        engine_insert(engine, "dim", (1, 7))
        engine_insert(engine, "other", (7, 5))
        engine_insert(engine, "fact", (1, 42))
        (result,) = engine.synopsis_entries().rows
        # original order: fact, dim, other
        assert result == (0, 0, 0)
        exact = JoinExecutor(db, engine.query).results()
        assert [result] == exact


class TestEquivalence:
    def test_opt_and_plain_agree_on_random_workload(self):
        """SJoin and SJoin-opt maintain the same J and valid samples over
        a random FK workload with deletions."""
        rng = random.Random(4)
        dbs = {}
        engines = {}
        for name, fk_opt in (("plain", False), ("opt", True)):
            db = fk_db()
            query = parse_query(FK_SQL, db)
            dbs[name] = db
            engines[name] = SJoinEngine(
                db, query, SynopsisSpec.fixed_size(6),
                fk_optimize=fk_opt, seed=11,
            )
        dim_ids = []
        fact_tids = []
        for i in range(10):
            row = (i, rng.randrange(4))
            for e in engines.values():
                engine_insert(e, "dim", row)
            dim_ids.append(i)
        for step in range(120):
            if rng.random() < 0.25 and fact_tids:
                tid = fact_tids.pop(rng.randrange(len(fact_tids)))
                for e in engines.values():
                    engine_delete(e, "fact", tid)
            elif rng.random() < 0.5:
                row = (rng.randrange(4), step)
                for e in engines.values():
                    engine_insert(e, "other", row)
            else:
                row = (rng.choice(dim_ids), step)
                tids = [engine_insert(e, "fact", row)
                        for e in engines.values()]
                assert tids[0] == tids[1]
                fact_tids.append(tids[0])
        assert engines["plain"].total_results() == \
            engines["opt"].total_results()
        exact = set(JoinExecutor(dbs["opt"], engines["opt"].query)
                    .results())
        for e in engines.values():
            assert set(e.synopsis_entries().rows) <= exact
            assert len(e.synopsis_entries().rows) == min(6, len(exact))

    def test_chain_collapse_runtime(self):
        """Two-level FK chain (fact -> mid -> dim) assembles through both
        hash lookups."""
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("x")], primary_key=("d_id",)))
        db.create_table(TableSchema(
            "mid", [Column("m_id"), Column("m_dim")],
            primary_key=("m_id",),
            foreign_keys=(ForeignKey(("m_dim",), "dim", ("d_id",)),)))
        db.create_table(TableSchema(
            "fact", [Column("f_mid"), Column("v")],
            foreign_keys=(ForeignKey(("f_mid",), "mid", ("m_id",)),)))
        db.create_table(TableSchema("other", [Column("x"), Column("y")]))
        sql = ("SELECT * FROM fact, mid, dim, other WHERE "
               "fact.f_mid = mid.m_id AND mid.m_dim = dim.d_id "
               "AND dim.x = other.x")
        engine = opt_engine(db, sql)
        assert sorted(n.alias for n in engine.plan.nodes) == \
            ["fact__mid__dim", "other"]
        engine_insert(engine, "dim", (5, 100))
        engine_insert(engine, "mid", (3, 5))
        engine_insert(engine, "other", (100, 0))
        engine_insert(engine, "fact", (3, 1))
        assert engine.total_results() == 1
        (result,) = engine.synopsis_entries().rows
        assert result == (0, 0, 0, 0)
