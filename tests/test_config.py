"""MaintainerConfig: the config-object construction path and its shims."""

import dataclasses
import warnings

import pytest

from repro import (
    Column,
    Database,
    ENGINES,
    InvalidArgumentError,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.persist import PersistentManager

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def feed(target):
    for a in range(4):
        target.insert("r", (a, a * 10))
        target.insert("s", (a, a * 100))
    return target


class TestConfigObject:
    def test_frozen_and_keyword_only(self):
        config = MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 4
        with pytest.raises(TypeError):
            MaintainerConfig(SynopsisSpec.fixed_size(10))

    def test_defaults(self):
        config = MaintainerConfig()
        assert config.engine == "sjoin-opt"
        assert config.engine in ENGINES
        assert config.spec is None and config.seed is None
        assert config.effective_spec is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(SynopsisError, match="unknown engine"):
            MaintainerConfig(engine="btree-join")

    def test_replace(self):
        config = MaintainerConfig(seed=1)
        derived = config.replace(seed=9, engine="sjoin")
        assert (derived.seed, derived.engine) == (9, "sjoin")
        assert config.seed == 1  # original untouched


class TestEntryPointsAcceptConfig:
    """Every entry point takes the one config object (acceptance)."""

    def config(self):
        return MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=5)

    def test_maintainer(self):
        m = feed(JoinSynopsisMaintainer(make_db(), SQL, self.config()))
        assert m.total_results() == 4
        assert m.config.seed == 5

    def test_manager(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=5))
        manager.register("q", SQL, self.config())
        feed(manager)
        assert manager.total_results("q") == 4

    def test_persistent_maintainer(self, tmp_path):
        """The maintainer a durable registration builds carries the
        config it was registered with (the 2.x
        ``PersistentMaintainer.create`` entry point, as 3.0 spells it)."""
        pm = PersistentManager(
            SynopsisManager(make_db()), str(tmp_path / "state"))
        maintainer = pm.register("q", SQL, self.config())
        assert maintainer.config.seed == 5
        assert maintainer.requested_spec.size == 10
        assert pm.maintainer("q") is maintainer
        pm.close()

    def test_persistent_manager(self, tmp_path):
        pm = PersistentManager(
            SynopsisManager(make_db()), str(tmp_path / "state"))
        pm.register("q", SQL, self.config())
        feed(pm)
        assert pm.total_results("q") == 4
        pm.close()


class TestLegacyKwargShimRemoved:
    """The 1.x deprecation cycle is over: legacy construction keywords
    (``spec=``/``algorithm=``/``seed=``/...) fail like any misspelled
    keyword, and the config slot only accepts a MaintainerConfig."""

    def test_legacy_kwargs_raise_type_error(self):
        with pytest.raises(TypeError):
            JoinSynopsisMaintainer(
                make_db(), SQL, spec=SynopsisSpec.fixed_size(10), seed=5)

    def test_legacy_algorithm_kwarg_gone(self):
        with pytest.raises(TypeError):
            JoinSynopsisMaintainer(make_db(), SQL, algorithm="sjoin")
        m = JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(engine="sjoin"))
        assert m.algorithm == "sjoin"
        assert m.config.engine == "sjoin"

    def test_positional_spec_rejected_with_guidance(self):
        with pytest.raises(InvalidArgumentError, match="spec"):
            JoinSynopsisMaintainer(
                make_db(), SQL, SynopsisSpec.fixed_size(10))

    def test_non_config_object_rejected(self):
        with pytest.raises(InvalidArgumentError, match="MaintainerConfig"):
            JoinSynopsisMaintainer(make_db(), SQL, {"seed": 5})

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bufer_size"):
            JoinSynopsisMaintainer(make_db(), SQL, bufer_size=4)

    def test_config_path_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            JoinSynopsisMaintainer(
                make_db(), SQL, MaintainerConfig(seed=5))

    def test_manager_legacy_kwargs_gone(self):
        with pytest.raises(TypeError):
            SynopsisManager(make_db(), seed=0)
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=0))
        with pytest.raises(TypeError):
            manager.register("q", SQL, spec=SynopsisSpec.fixed_size(5))


class TestBatchResult:
    def test_apply_batch_returns_typed_batch_result(self):
        from repro.core.stats_api import BatchResult, DeleteOp, InsertOp

        m = feed(JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(seed=5)))
        result = m.apply_batch([InsertOp("r", (9, 9)), DeleteOp("s", 0)])
        assert isinstance(result, BatchResult)
        assert result.inserted == 1 and result.deleted == 1
        assert result.rejected == 0
        assert result.elapsed_ns > 0
        insert, delete = result.outcomes
        assert insert.kind == "insert" and insert.target == "r"
        assert insert.tid is not None and not insert.rejected
        assert delete.kind == "delete" and delete.target == "s"
        assert delete.tid == 0
        assert result.tids == (insert.tid, None)

    def test_outcome_and_result_fields_are_stable(self):
        """What a caller reads off a result, by name -- not how the
        result stores it (columns since 6.3, outcomes built on read)."""
        from repro.core.stats_api import DeleteOp, InsertOp, OpOutcome

        m = feed(JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(seed=5)))
        ops = [InsertOp("r", (9, 9)), DeleteOp("s", 0), InsertOp("s", (9, 1))]
        result = m.apply_batch(ops)
        first, second, third = result.tids
        assert second is None and first >= 0 and third >= 0
        assert result.outcomes == (
            OpOutcome(kind="insert", target="r", tid=first, rejected=False),
            OpOutcome(kind="delete", target="s", tid=0, rejected=False),
            OpOutcome(kind="insert", target="s", tid=third, rejected=False),
        )
        assert (result.inserted, result.deleted, result.rejected) == (2, 1, 0)
        assert isinstance(result.elapsed_ns, int)
        tail = result.slice(1, 3)
        assert tail.outcomes == result.outcomes[1:3]
        assert tail.tids == (None, third)
        assert (tail.inserted, tail.deleted, tail.rejected) == (1, 1, 0)
        assert tail.elapsed_ns == result.elapsed_ns
        assert result.slice(0, 1, elapsed_ns=7).elapsed_ns == 7
        assert not hasattr(result.outcomes[0], "new_results")

    def test_insert_many_shim_removed(self):
        m = JoinSynopsisMaintainer(make_db(), SQL, MaintainerConfig(seed=5))
        assert not hasattr(m, "insert_many")

