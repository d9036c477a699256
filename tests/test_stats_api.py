"""Typed stats dataclasses, batch updates, and the error-message fixes."""

import dataclasses

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    DeleteOp,
    InsertOp,
    JoinSynopsisMaintainer,
    MaintainerStats,
    ManagerStats,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.obs.metrics import MetricsRegistry

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def loaded_maintainer(**kwargs):
    maintainer = JoinSynopsisMaintainer(
        make_db(), SQL,
        MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=5,
                         **kwargs))
    for a in range(4):
        maintainer.insert("r", (a, a * 10))
        maintainer.insert("s", (a, a * 100))
    return maintainer


class TestMaintainerStats:
    def test_typed_snapshot(self):
        stats = loaded_maintainer().stats()
        assert isinstance(stats, MaintainerStats)
        assert stats.algorithm == "sjoin-opt"
        assert stats.total_results == 4
        assert stats.synopsis_size == 4
        assert stats.metrics["inserts"] == 8
        assert stats.metrics["deletes"] == 0

    def test_frozen(self):
        stats = loaded_maintainer().stats()
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.algorithm = "other"
        with pytest.raises(TypeError):
            stats.metrics["inserts"] = 0

    def test_dict_shim_removed(self):
        stats = loaded_maintainer().stats()
        with pytest.raises(TypeError):
            stats["algorithm"]
        assert stats.metrics["inserts"] == 8

    def test_metrics_include_registry_snapshot_when_enabled(self):
        stats = loaded_maintainer(obs=MetricsRegistry()).stats()
        assert stats.metrics["engine.insert_ns"]["count"] == 8
        assert stats.metrics["table.r.insert_ns"]["count"] == 4

    def test_repr_names_algorithm_and_query(self):
        anonymous = loaded_maintainer(engine="sjoin")
        assert "algorithm='sjoin'" in repr(anonymous)
        assert "<unnamed>" in repr(anonymous)
        named = loaded_maintainer(name="q7")
        assert "name='q7'" in repr(named)
        assert "algorithm='sjoin-opt'" in repr(named)


class TestMaintainerBatchUpdates:
    def test_apply_mixed_ops(self):
        maintainer = loaded_maintainer()
        results = maintainer.apply_batch([
            InsertOp("r", (9, 90)),
            DeleteOp("r", 0),
            InsertOp("s", (9, 900)),
        ]).tids
        assert results[1] is None
        assert results[0] >= 0 and results[2] >= 0
        assert maintainer.engine.stats.inserts == 10
        assert maintainer.engine.stats.deletes == 1

    def test_batched_inserts_match_singles(self):
        rows = [(1, 10), (2, 20), (3, 30)]
        batch = JoinSynopsisMaintainer(
            make_db(), SQL,
            MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=5))
        singles = JoinSynopsisMaintainer(
            make_db(), SQL,
            MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=5))
        tids = batch.apply_batch(
            [InsertOp("r", row) for row in rows]).tids
        assert list(tids) == [singles.insert("r", row) for row in rows]

    def test_unknown_op_rejected_with_label(self):
        maintainer = loaded_maintainer(name="q1")
        with pytest.raises(SynopsisError, match="query 'q1'.*sjoin-opt"):
            maintainer.apply_batch(["not-an-op"])

    def test_op_rows_are_frozen_tuples(self):
        op = InsertOp("r", [1, 2])
        assert op.row == (1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.target = "s"


class TestManagerStats:
    def test_aggregate_snapshot(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("q1", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        manager.register("q2", "SELECT * FROM r, s WHERE r.x = s.y", MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        for a in range(3):
            manager.insert("r", (a, a))
            manager.insert("s", (a, a))
        stats = manager.stats()
        assert isinstance(stats, ManagerStats)
        assert set(stats.queries) == {"q1", "q2"}
        assert stats.total_results == sum(
            q.total_results for q in stats.queries.values())
        assert stats.synopsis_size == sum(
            q.synopsis_size for q in stats.queries.values())
        assert stats.queries["q1"].algorithm == "sjoin-opt"
        with pytest.raises(TypeError):
            stats["q1"]

    def test_manager_metrics_fanout_and_child_registries(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=1, obs=MetricsRegistry()))
        manager.register("q1", SQL)
        manager.register("q2", SQL)
        manager.insert("r", (1, 1))
        stats = manager.stats()
        # one base-table insert fanned out to both registered queries
        assert stats.metrics["manager.r.fanout"]["value"] == 2
        assert stats.metrics["manager.r.insert_ns"]["count"] == 1
        # each query has its own engine metrics (no cross-query collision)
        for name in ("q1", "q2"):
            per_query = stats.queries[name].metrics
            assert per_query["engine.insert_ns"]["count"] == 1

    def test_manager_batch_entry_points(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=1))
        manager.register("q1", SQL)
        batch = manager.apply_batch([InsertOp("r", (1, 1)),
                                     InsertOp("r", (2, 2))])
        assert batch.inserted == 2
        tids = batch.tids
        results = manager.apply_batch([DeleteOp("r", tids[0]),
                                       InsertOp("s", (1, 5))]).tids
        assert results[0] is None and results[1] >= 0
        assert not hasattr(manager, "insert_many")
        assert not hasattr(manager, "apply")


class TestManagerErrorReporting:
    def test_registration_failure_names_query_and_algorithm(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=1))
        with pytest.raises(SynopsisError,
                           match="query 'bad'.*algorithm 'sjoin'"):
            manager.register("bad", "SELECT * FROM r, missing "
                                    "WHERE r.a = missing.a", MaintainerConfig(engine="sjoin"))

    def test_fanout_failure_names_query_and_algorithm(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("q1", SQL)
        tid = manager.insert("r", (1, 1))
        # delete the tuple behind the manager's back so the engine's
        # notify_delete fails during fan-out
        manager.maintainer("q1").engine.notify_delete("r", tid, (1, 1))
        with pytest.raises(
            SynopsisError,
            match="query 'q1'.*algorithm 'sjoin-opt'.*alias 'r'",
        ):
            manager.delete("r", tid)
