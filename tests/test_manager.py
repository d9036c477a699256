"""Multi-query manager tests: shared storage, fan-out, backfill."""

import random

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinExecutor,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
    parse_query,
)


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    db.create_table(TableSchema("t", [Column("b"), Column("y")]))
    return db


RS = "SELECT * FROM r, s WHERE r.a = s.a"
ST = "SELECT * FROM s, t WHERE s.b = t.b"
RST = "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"


class TestRegistration:
    def test_register_and_names(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=0))
        manager.register("rs", RS)
        manager.register("st", ST)
        assert sorted(manager.names()) == ["rs", "st"]

    def test_duplicate_name_rejected(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=0))
        manager.register("rs", RS)
        with pytest.raises(SynopsisError):
            manager.register("rs", ST)

    def test_unregister(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=0))
        manager.register("rs", RS)
        manager.unregister("rs")
        assert manager.names() == []
        with pytest.raises(SynopsisError):
            manager.unregister("rs")
        with pytest.raises(SynopsisError):
            manager.synopsis("rs")

    def test_backfill_existing_data(self):
        db = make_db()
        db.insert("r", (1, 0))
        db.insert("s", (1, 5))
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.register("rs", RS, MaintainerConfig(spec=SynopsisSpec.fixed_size(5)))
        assert manager.total_results("rs") == 1
        assert manager.synopsis("rs") == [(0, 0)]


class TestFanOut:
    def test_one_insert_updates_all_queries(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.register("rs", RS, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.register("st", ST, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.register("rst", RST, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.insert("r", (1, 0))
        manager.insert("s", (1, 7))
        manager.insert("t", (7, 0))
        assert manager.total_results("rs") == 1
        assert manager.total_results("st") == 1
        assert manager.total_results("rst") == 1

    def test_rows_stored_once(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.register("rs", RS)
        manager.register("rst", RST)
        manager.insert("r", (1, 0))
        assert len(db.table("r")) == 1

    def test_delete_fans_out(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.register("rs", RS, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.register("st", ST, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.insert("r", (1, 0))
        s_tid = manager.insert("s", (1, 7))
        manager.insert("t", (7, 0))
        manager.delete("s", s_tid)
        assert manager.total_results("rs") == 0
        assert manager.total_results("st") == 0
        assert not db.table("s").is_live(s_tid)

    def test_duplicate_alias_table(self):
        """A query using the same base table twice gets both aliases
        notified from one insert."""
        db = Database()
        db.create_table(TableSchema("u", [Column("a"), Column("b")]))
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        sql = "SELECT * FROM u u1, u u2 WHERE u1.b = u2.a"
        manager.register("self", sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.insert("u", (5, 5))
        # (5,5) joins itself: u1.b=5 = u2.a=5
        assert manager.total_results("self") == 1

    def test_random_workload_matches_exact(self):
        rng = random.Random(9)
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("rs", RS, MaintainerConfig(spec=SynopsisSpec.fixed_size(8)))
        manager.register("st", ST, MaintainerConfig(spec=SynopsisSpec.fixed_size(8), engine="sjoin"))
        manager.register("rst", RST, MaintainerConfig(spec=SynopsisSpec.fixed_size(8), engine="sj"))
        live = {"r": [], "s": [], "t": []}
        for _ in range(150):
            if rng.random() < 0.3 and any(live.values()):
                name = rng.choice([n for n in live if live[n]])
                tid = live[name].pop(rng.randrange(len(live[name])))
                manager.delete(name, tid)
            else:
                name = rng.choice(["r", "s", "t"])
                tid = manager.insert(
                    name, (rng.randrange(4), rng.randrange(4))
                )
                live[name].append(tid)
        for name, sql in (("rs", RS), ("st", ST), ("rst", RST)):
            query = parse_query(sql, db)
            exact = set(JoinExecutor(db, query).results())
            assert manager.total_results(name) == len(exact), name
            assert set(manager.synopsis(name)) <= exact, name

    def test_backfill_respects_fk_dependency_order(self):
        """Registering an FK-collapsed query on a populated database must
        backfill PK-side members before anchors — regardless of the
        FROM-clause order (the anchor table comes first in the query)."""
        from repro import ForeignKey

        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("band")],
            primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim"), Column("v")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        db.create_table(TableSchema("other", [Column("band")]))
        # preload BEFORE registration; fact alias precedes dim in the SQL
        for d in range(4):
            db.insert("dim", (d, d % 2))
        for i in range(10):
            db.insert("fact", (i % 4, i))
        db.insert("other", (0,))
        db.insert("other", (1,))
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.register(
            "fk", "SELECT * FROM fact, dim, other WHERE fact.f_dim = dim.d_id "
            "AND dim.band = other.band", MaintainerConfig(spec=SynopsisSpec.fixed_size(5)))
        exact = JoinExecutor(
            db, parse_query(
                "SELECT * FROM fact, dim, other "
                "WHERE fact.f_dim = dim.d_id AND dim.band = other.band",
                db)
        ).count()
        assert manager.total_results("fk") == exact == 10
        # and live updates still flow
        manager.insert("fact", (0, 99))
        assert manager.total_results("fk") == exact + 1

    @pytest.mark.parametrize("engine", ["sjoin-opt", "sjoin", "sj"])
    def test_backfill_is_one_run_bit_identical_to_per_tuple(self, engine):
        """``register`` hands each alias's stored tuples to the engine as
        a run (members, then direct nodes, then anchors); the synopsis,
        ``J`` and the RNG are those of one ``notify_insert`` per stored
        tuple, the loop it replaces."""
        from repro import ForeignKey, JoinSynopsisMaintainer

        sql = ("SELECT * FROM fact, dim, other WHERE fact.f_dim = dim.d_id "
               "AND |dim.band - other.band| <= 1 AND dim.band < 3")

        def populated():
            db = Database()
            db.create_table(TableSchema(
                "dim", [Column("d_id"), Column("band")],
                primary_key=("d_id",)))
            db.create_table(TableSchema(
                "fact", [Column("f_dim"), Column("v")],
                foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
            db.create_table(TableSchema("other", [Column("band")]))
            rng = random.Random(6)
            for d in range(8):
                db.insert("dim", (d, rng.randrange(4)))
            for i in range(60):
                db.insert("fact", (rng.randrange(8), i))
            for _ in range(12):
                db.insert("other", (rng.randrange(4),))
            db.delete("fact", 3)
            db.delete("other", 0)
            return db

        config = MaintainerConfig(spec=SynopsisSpec.fixed_size(7),
                                  engine=engine, seed=5)
        db = populated()
        per_tuple = JoinSynopsisMaintainer(db, sql, config)
        # member, direct, anchor under the FK collapse; FROM order without
        order = (("dim", "other", "fact") if engine == "sjoin-opt"
                 else ("fact", "dim", "other"))
        for table in order:
            for tid, row in db.table(table).scan():
                per_tuple.engine.notify_insert(table, tid, row)
        assert per_tuple.total_results() > 7 * 4
        manager = SynopsisManager(populated(), MaintainerConfig(seed=0))
        backfilled = manager.register("fk", sql, config)
        assert backfilled.total_results() == per_tuple.total_results()
        assert backfilled.engine.raw_samples() == \
            per_tuple.engine.raw_samples()
        assert backfilled.engine.rng.getstate() == \
            per_tuple.engine.rng.getstate()
        assert backfilled.engine.stats == per_tuple.engine.stats
        if engine != "sj":
            # fewer, larger graph batches: that is what the run is for
            assert backfilled.engine.graph.stats.weight_recomputes * 3 < \
                per_tuple.engine.graph.stats.weight_recomputes

    def test_backfill_failure_names_query_alias_and_table(self):
        from repro import ForeignKey

        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id")], primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        db.insert("dim", (1,))
        db.insert("fact", (1,))
        db.insert("fact", (2,))                     # no such parent
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        with pytest.raises(
                SynopsisError,
                match=r"registered query 'fk' \(algorithm 'sjoin-opt'\) "
                      r"failed during backfill of alias 'fact' from table "
                      r"'fact': foreign key"):
            manager.register(
                "fk", "SELECT * FROM fact, dim WHERE fact.f_dim = dim.d_id")
        assert manager.names() == []

    def test_late_registration_sees_everything(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.insert("r", (1, 0))
        manager.insert("s", (1, 2))
        manager.register("rs", RS, MaintainerConfig(spec=SynopsisSpec.fixed_size(5)))
        manager.insert("s", (1, 3))
        query = parse_query(RS, db)
        exact = set(JoinExecutor(db, query).results())
        assert manager.total_results("rs") == len(exact) == 2
