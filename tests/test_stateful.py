"""Hypothesis stateful testing: an adversarial sequence of operations
drives an engine, with full-oracle invariant checks after every step.

Four machines: SJoin on an equi-join, SJoin on a band join (range-edge
delta sweeps), SJoin-opt on an FK query (combined-node runtime), and a
persistence machine interleaving checkpoint/restore cycles with updates
while a never-restarted twin receives the identical op stream.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    ForeignKey,
    JoinExecutor,
    SJoinEngine,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.persist import (
    capture_database,
    capture_maintainer,
    restore_database,
    restore_maintainer,
)
from repro.persist.wal import dump_plain, load_plain

from conftest import engine_delete, engine_insert

VALUES = st.integers(min_value=0, max_value=4)


class _EngineMachine(RuleBasedStateMachine):
    """Common rules; subclasses define the schema/query."""

    M = 5

    def make_engine(self):  # pragma: no cover - abstract
        raise NotImplementedError

    @initialize()
    def setup(self):
        self.engine = self.make_engine()
        self.live = {alias: [] for alias in self.engine.query.aliases}
        self.steps = 0

    def _check(self):
        exact = set(JoinExecutor(
            self.engine.db, self.engine.query,
            include_filters=False, include_residual=False,
        ).results())
        assert self.engine.total_results() == len(exact)
        samples = set(self.engine.raw_samples())
        plan_exact = {
            tuple(r) for r in exact
        } if self.engine.plan.num_nodes == len(
            self.engine.query.range_tables
        ) else None
        if plan_exact is not None:
            assert samples <= plan_exact
            assert len(self.engine.raw_samples()) == \
                min(self.M, len(exact))

    @invariant()
    def graph_consistent(self):
        if not hasattr(self, "engine"):
            return
        self.steps += 1
        if self.steps % 5 == 0:
            self.engine.graph.check_invariants()
            self._check()


class EquiJoinMachine(_EngineMachine):
    def make_engine(self):
        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("b")]))
        db.create_table(TableSchema("s", [Column("a"), Column("b")]))
        query = parse_query(
            "SELECT * FROM r, s WHERE r.a = s.a AND r.b = s.b", db)
        return SJoinEngine(db, query, SynopsisSpec.fixed_size(self.M),
                           seed=0)

    @rule(a=VALUES, b=VALUES, side=st.booleans())
    def insert(self, a, b, side):
        alias = "r" if side else "s"
        tid = engine_insert(self.engine, alias, (a, b))
        self.live[alias].append(tid)

    @precondition(lambda self: any(self.live.values()))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        candidates = [a for a in self.live if self.live[a]]
        alias = candidates[pick % len(candidates)]
        tids = self.live[alias]
        tid = tids.pop(pick % len(tids))
        engine_delete(self.engine, alias, tid)


class BandJoinMachine(_EngineMachine):
    def make_engine(self):
        db = Database()
        for name in ("x", "y", "z"):
            db.create_table(TableSchema(name, [Column("p")]))
        query = parse_query(
            "SELECT * FROM x, y, z "
            "WHERE |x.p - y.p| <= 1 AND |y.p - z.p| <= 1", db)
        return SJoinEngine(db, query, SynopsisSpec.fixed_size(self.M),
                           seed=1)

    @rule(p=st.integers(min_value=0, max_value=8),
          which=st.integers(min_value=0, max_value=2))
    def insert(self, p, which):
        alias = "xyz"[which]
        tid = engine_insert(self.engine, alias, (p,))
        self.live[alias].append(tid)

    @precondition(lambda self: any(self.live.values()))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        candidates = [a for a in self.live if self.live[a]]
        alias = candidates[pick % len(candidates)]
        tids = self.live[alias]
        tid = tids.pop(pick % len(tids))
        engine_delete(self.engine, alias, tid)


class FkMachine(_EngineMachine):
    def make_engine(self):
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("band")],
            primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim"), Column("v")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        db.create_table(TableSchema("other", [Column("band")]))
        query = parse_query(
            "SELECT * FROM fact, dim, other "
            "WHERE fact.f_dim = dim.d_id AND dim.band = other.band", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(self.M),
                             fk_optimize=True, seed=2)
        self.next_dim = 0
        return engine

    @rule(band=VALUES)
    def insert_dim(self, band):
        engine_insert(self.engine, "dim", (self.next_dim, band))
        self.live["dim"].append(self.next_dim)
        self.next_dim += 1

    @precondition(lambda self: self.live.get("dim"))
    @rule(v=VALUES, pick=st.integers(min_value=0, max_value=10**6))
    def insert_fact(self, v, pick):
        dim_id = self.live["dim"][pick % len(self.live["dim"])]
        tid = engine_insert(self.engine, "fact", (dim_id, v))
        self.live["fact"].append(tid)

    @rule(band=VALUES)
    def insert_other(self, band):
        tid = engine_insert(self.engine, "other", (band,))
        self.live["other"].append(tid)

    @precondition(lambda self: self.live.get("fact"))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete_fact(self, pick):
        tids = self.live["fact"]
        tid = tids.pop(pick % len(tids))
        engine_delete(self.engine, "fact", tid)

    @precondition(lambda self: self.live.get("other"))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete_other(self, pick):
        tids = self.live["other"]
        tid = tids.pop(pick % len(tids))
        engine_delete(self.engine, "other", tid)


class PersistRoundTripMachine(RuleBasedStateMachine):
    """Random op sequences interleaving inserts, deletes and
    checkpoint/restore cycles.

    Two maintainers receive the identical update stream; one of them is
    additionally torn down and rebuilt from a plain-value snapshot at
    adversarially chosen points.  After every step the restored subject
    must match the never-restarted twin *exactly* — synopsis contents,
    ``total_results()``, stats, and the RNG state that decides all
    future sampling.
    """

    M = 5
    SQL = "SELECT * FROM r, s WHERE r.a = s.a AND r.b = s.b"

    def _make(self):
        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("b")]))
        db.create_table(TableSchema("s", [Column("a"), Column("b")]))
        return JoinSynopsisMaintainer(
            db, self.SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(self.M), seed=11))

    @initialize()
    def setup(self):
        self.subject = self._make()
        self.twin = self._make()
        self.live = {"r": [], "s": []}
        self.restores = 0

    @rule(a=VALUES, b=VALUES, side=st.booleans())
    def insert(self, a, b, side):
        alias = "r" if side else "s"
        tid = self.subject.insert(alias, (a, b))
        assert self.twin.insert(alias, (a, b)) == tid
        if tid >= 0:
            self.live[alias].append(tid)

    @precondition(lambda self: any(self.live.values()))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        candidates = [a for a in self.live if self.live[a]]
        alias = candidates[pick % len(candidates)]
        tids = self.live[alias]
        tid = tids.pop(pick % len(tids))
        self.subject.delete(alias, tid)
        self.twin.delete(alias, tid)

    @rule()
    def checkpoint_restore(self):
        blob = dump_plain({
            "database": capture_database(self.subject.db),
            "maintainer": capture_maintainer(self.subject),
        })
        state = load_plain(blob)
        db = restore_database(state["database"])
        self.subject = restore_maintainer(db, state["maintainer"])
        self.restores += 1

    @invariant()
    def subject_matches_twin(self):
        if not hasattr(self, "subject"):
            return
        assert self.subject.total_results() == self.twin.total_results()
        assert self.subject.synopsis() == self.twin.synopsis()
        assert self.subject.stats() == self.twin.stats()
        assert self.subject.engine.rng.getstate() == \
            self.twin.engine.rng.getstate()


_settings = settings(max_examples=15, stateful_step_count=25,
                     deadline=None)

TestEquiJoinMachine = EquiJoinMachine.TestCase
TestEquiJoinMachine.settings = _settings
TestBandJoinMachine = BandJoinMachine.TestCase
TestBandJoinMachine.settings = _settings
TestFkMachine = FkMachine.TestCase
TestFkMachine.settings = _settings
TestPersistRoundTripMachine = PersistRoundTripMachine.TestCase
TestPersistRoundTripMachine.settings = _settings
