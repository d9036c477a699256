"""Observability layer: instruments, registry semantics, the one timing
channel (every stage reported once, a slow one promoted to the event
log), and the property that none of it changes maintenance behaviour."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    DeleteOp,
    InsertOp,
    JoinSynopsisMaintainer,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.errors import InvalidArgumentError
from repro.obs.events import EventLog
from repro.obs.metrics import (
    NULL_REGISTRY,
    NUM_BUCKETS,
    OVERFLOW_LABEL_VALUE,
    Counter,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    as_registry,
    bucket_of,
    bucket_upper_bound,
    format_label_key,
)


class FakeClock:
    """Manually advanced nanosecond clock for deterministic timer tests."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def armed(threshold=0, **kwargs):
    """A registry promoting into a quiet log: ``(obs, stages)`` where
    ``stages()`` lists the promoted stages' fields, oldest first."""
    log = EventLog(capacity=4096, sink=lambda payload: None)
    obs = MetricsRegistry(events=log, slow_op_threshold_ns=threshold,
                          **kwargs)
    return obs, lambda: [e.fields for e in log.events("trace.slow_op")]


class TestBucketing:
    def test_small_values(self):
        assert bucket_of(0) == 0
        assert bucket_of(0.5) == 0
        assert bucket_of(1) == 1
        assert bucket_of(2) == 2
        assert bucket_of(3) == 2
        assert bucket_of(4) == 3

    def test_powers_of_two_are_bucket_lower_bounds(self):
        for k in range(1, 20):
            assert bucket_of(2 ** k) == k + 1
            assert bucket_of(2 ** k - 1) == k

    def test_huge_values_clamp_to_last_bucket(self):
        assert bucket_of(2 ** 200) == NUM_BUCKETS - 1

    def test_upper_bounds(self):
        assert bucket_upper_bound(0) == 0
        assert bucket_upper_bound(1) == 1
        assert bucket_upper_bound(3) == 7

    @given(st.integers(min_value=0, max_value=2 ** 70))
    @settings(max_examples=200, deadline=None)
    def test_value_is_at_most_its_bucket_upper_bound(self, value):
        idx = bucket_of(value)
        if idx < NUM_BUCKETS - 1:  # last bucket absorbs the overflow
            assert value <= bucket_upper_bound(idx)
        if idx > 1:
            assert value > bucket_upper_bound(idx - 1)


class TestHistogram:
    def test_exact_aggregates(self):
        hist = MetricsRegistry().histogram("h")
        for value in (5, 1, 9):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 15
        assert hist.min == 1
        assert hist.max == 9
        assert hist.mean == 5.0

    def test_percentiles_resolve_to_clamped_bucket_upper_bounds(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(50):
            hist.observe(1)
        for _ in range(50):
            hist.observe(1000)
        assert hist.percentile(0.50) == 1.0
        # the bucket upper bound (1023) clamps to the observed max, so a
        # percentile can never exceed any value actually recorded
        assert hist.percentile(0.95) == 1000.0
        assert hist.percentile(0.99) == 1000.0

    def test_single_observation_pins_every_percentile(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(5)
        for q in (0.01, 0.5, 0.95, 0.99):
            assert hist.percentile(q) == 5.0

    def test_percentile_never_below_observed_min(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(3)
        hist.observe(900)
        assert hist.percentile(0.01) == 3.0

    def test_empty_percentile_is_zero(self):
        assert MetricsRegistry().histogram("h").percentile(0.5) == 0.0

    def test_bad_quantile_rejected(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(MetricError):
            hist.percentile(1.5)

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(12)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"] == {"type": "gauge", "value": 7}
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"] == {"15": 1}


class TestTimer:
    def test_records_elapsed_ticks(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.timer("t"):
            clock.now += 42
        assert registry.histogram("t").sum == 42

    def test_observes_even_when_body_raises(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with pytest.raises(RuntimeError):
            with registry.timer("t"):
                clock.now += 9
                raise RuntimeError("boom")
        assert registry.histogram("t").count == 1
        assert registry.histogram("t").sum == 9


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.histogram("x")

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert "a" in registry and "c" not in registry
        assert registry.names() == ["a", "b"]

    def test_reset_keeps_instrument_references_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.snapshot()["c"]["value"] == 1


class TestLabels:
    def test_same_label_set_maps_to_same_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("aqp.estimates")
        child = counter.labels(query="q1", agg="count")
        assert child is counter.labels(agg="count", query="q1")
        assert child is not counter

    def test_child_lives_under_canonical_key(self):
        registry = MetricsRegistry()
        registry.counter("aqp.estimates").labels(query="q1").inc(3)
        key = format_label_key("aqp.estimates", {"query": "q1"})
        assert key == 'aqp.estimates{query="q1"}'
        snap = registry.snapshot()
        assert snap[key]["value"] == 3
        assert snap[key]["labels"] == {"query": "q1"}
        # the flat head stays independent of its children
        assert snap["aqp.estimates"]["value"] == 0

    def test_children_cannot_be_labeled_further(self):
        registry = MetricsRegistry()
        child = registry.counter("c").labels(a="1")
        with pytest.raises(MetricError):
            child.labels(b="2")

    def test_label_name_must_be_identifier(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("c").labels(**{"not-valid": "x"})

    def test_empty_label_set_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("c").labels()

    def test_registering_a_braced_name_directly_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter('c{query="q1"}')

    def test_cardinality_bound_collapses_into_overflow_child(self):
        registry = MetricsRegistry(max_label_children=2)
        counter = registry.counter("c")
        counter.labels(q="a").inc()
        counter.labels(q="b").inc()
        spill_1 = counter.labels(q="c")
        spill_2 = counter.labels(q="d")
        assert spill_1 is spill_2
        assert spill_1.label_set == {"q": OVERFLOW_LABEL_VALUE}
        spill_1.inc(2)
        snap = registry.snapshot()
        key = format_label_key("c", {"q": OVERFLOW_LABEL_VALUE})
        assert snap[key]["value"] == 2
        # existing children keep working after the bound is hit
        counter.labels(q="a").inc()
        assert registry.snapshot()[format_label_key(
            "c", {"q": "a"})]["value"] == 2

    def test_cardinality_bound_is_per_family(self):
        registry = MetricsRegistry(max_label_children=1)
        registry.counter("c1").labels(q="a").inc()
        # a different family gets its own budget
        child = registry.counter("c2").labels(q="z")
        assert child.label_set == {"q": "z"}

    def test_labeled_timer_records_into_child(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.timer("t", query="q1"):
            clock.now += 17
        key = format_label_key("t", {"query": "q1"})
        assert registry.snapshot()[key]["sum"] == 17
        assert registry.snapshot()["t"]["count"] == 0

    def test_unowned_instrument_rejects_labels(self):
        with pytest.raises(MetricError):
            Counter("loose").labels(q="1")

    def test_null_registry_labels_are_free_noops(self):
        instrument = NULL_REGISTRY.counter("x")
        assert instrument.labels(query="q1") is instrument
        assert NULL_REGISTRY.timer("t", query="q1") is instrument


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_everything_is_a_shared_noop(self):
        registry = NullRegistry()
        counter = registry.counter("c")
        assert counter is registry.histogram("h")
        assert counter is registry.timer("t")
        counter.inc()
        counter.observe(3)
        counter.set(4)
        with registry.timer("t"):
            pass
        registry.report("engine.insert_ns", 5, {"x_ns": 1}, batch=3)
        assert registry.snapshot() == {}
        assert registry.child() is registry

    def test_as_registry_normalisation(self):
        assert as_registry(None) is NULL_REGISTRY
        real = MetricsRegistry()
        assert as_registry(real) is real


class TestStageReports:
    """``MetricsRegistry.report``: durations into the histograms, a slow
    stage into the event log."""

    def test_whole_and_phases_each_into_their_own_histogram(self):
        obs = MetricsRegistry()
        obs.report("engine.insert_ns", 50, {"engine.insert.graph_ns": 30,
                                            "engine.insert.sample_ns": 5})
        obs.report("engine.insert_ns", 7)
        # a stage timed by one of its own phases is not observed twice
        obs.report("service.ingest_batch_ns", 90,
                   {"service.ingest_batch_ns": 60,
                    "service.publish_ns": 25})
        snap = obs.snapshot()
        assert {name: (hist["count"], hist["sum"])
                for name, hist in snap.items()} == {
            "engine.insert_ns": (2, 57),
            "engine.insert.graph_ns": (1, 30),
            "engine.insert.sample_ns": (1, 5),
            "service.ingest_batch_ns": (1, 60),
            "service.publish_ns": (1, 25)}     # and no trace.slow_ops

    @pytest.mark.parametrize("threshold, promoted", [
        (None, []), (0, [0, 99, 100]), (100, [100]), (101, [])],
        ids=["none-is-off", "zero-is-everything", "inclusive", "below"])
    def test_slow_op_threshold(self, threshold, promoted):
        obs, stages = armed(threshold)
        for duration in (0, 99, 100):
            obs.report("engine.delete_ns", duration, target="r")
        assert [s["duration_ns"] for s in stages()] == promoted
        assert obs.snapshot().get(
            "trace.slow_ops", {"value": 0})["value"] == len(promoted)

    def test_negative_threshold_refused(self):
        with pytest.raises(InvalidArgumentError):
            MetricsRegistry(slow_op_threshold_ns=-1)


SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


class TestBehaviourNeutrality:
    """Turning observability (and the slow-op threshold) on or off must
    never change a sample, ``J`` or the RNG state."""

    @given(
        engine=st.sampled_from(["sjoin-opt", "sjoin", "sj"]),
        ops=st.lists(
            st.tuples(st.sampled_from(["r", "s"]),
                      st.integers(0, 4), st.integers(0, 9)),
            max_size=60,
        ),
        deletes=st.lists(st.integers(0, 10 ** 6), max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_synopsis_with_and_without_metrics(self, engine, ops,
                                                    deletes):
        def run(obs):
            maintainer = JoinSynopsisMaintainer(
                make_db(), SQL, MaintainerConfig(
                    spec=SynopsisSpec.fixed_size(8), engine=engine,
                    seed=99, obs=obs))
            live = []
            for alias, a, v in ops:
                live.append((alias, maintainer.insert(alias, (a, v))))
            for pick in deletes:
                if not live:
                    break
                alias, tid = live.pop(pick % len(live))
                maintainer.delete(alias, tid)
            return (maintainer.synopsis(), maintainer.total_results(),
                    maintainer.engine.rng.getstate())

        assert run(None) == run(MetricsRegistry()) == run(armed()[0])


class TestDeleteRunsAreObservedPerRun:
    """Observability follows the delete run instead of forking it: the
    same code runs, each timer hears once per run."""

    def fill(self, target, n=12):
        ops = [InsertOp(alias, (i % 3, i))
               for i in range(n) for alias in ("r", "s")]
        target.apply_batch(ops)

    @pytest.mark.parametrize("engine", ["sjoin", "sjoin-opt", "sj"])
    def test_engine_and_table_timers_hear_once_per_run(self, engine):
        obs = MetricsRegistry()
        maintainer = JoinSynopsisMaintainer(make_db(), SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(30), engine=engine, seed=4,
            obs=obs))
        self.fill(maintainer)
        # two runs (5 on s, 3 on r) and a lone delete: three observations
        maintainer.apply_batch(
            [DeleteOp("s", tid) for tid in range(5)]
            + [DeleteOp("r", tid) for tid in range(3)])
        maintainer.delete("s", 7)
        metrics = maintainer.stats().metrics
        assert metrics["engine.delete_ns"]["count"] == 3
        assert metrics["engine.delete.graph_ns"]["count"] == 3
        # m > J: every delete purges, every run replenishes
        assert metrics["engine.delete.replenish_ns"]["count"] == 3
        assert metrics["engine.delete_ns"]["sum"] >= (
            metrics["engine.delete.graph_ns"]["sum"]
            + metrics["engine.delete.replenish_ns"]["sum"])
        assert metrics["table.s.delete_ns"]["count"] == 2
        assert metrics["table.r.delete_ns"]["count"] == 1
        assert metrics["deletes"] == 9
        assert metrics["synopsis.purges"]["value"] > 0

    def test_manager_timer_per_run_and_fanout_per_notification(self):
        manager = SynopsisManager(
            make_db(), MaintainerConfig(seed=1, obs=MetricsRegistry()))
        manager.register("q1", SQL)
        manager.register("self", "SELECT * FROM r AS r1, r AS r2, s "
                                 "WHERE r1.a = s.a AND r2.x = s.y")
        self.fill(manager)
        before = manager.stats().metrics["manager.r.fanout"]["value"]
        manager.apply_batch([DeleteOp("r", tid) for tid in range(4)])
        stats = manager.stats()
        assert stats.metrics["manager.r.delete_ns"]["count"] == 1
        # q1 hears each row once, the self-join under both its aliases
        assert stats.metrics["manager.r.fanout"]["value"] - before == 4 * 3
        assert stats.queries["q1"].metrics["engine.delete_ns"]["count"] == 1
        # several aliases of one table: per row and per alias, as before
        assert stats.queries["self"].metrics[
            "engine.delete_ns"]["count"] == 4 * 2


class TestInsertRunsAreObservedPerRun:
    """Consecutive inserts are one run whatever their tables; the same
    code runs with observability on or off, and the run's time goes to
    the tables it touched by their share of the rows."""

    def fk_manager(self, obs=None):
        from repro import ForeignKey

        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim"), Column("v")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        db.create_table(TableSchema("other", [Column("band")]))
        manager = SynopsisManager(db, MaintainerConfig(seed=1, obs=obs))
        manager.register(
            "fk", "SELECT * FROM fact, dim, other "
                  "WHERE fact.f_dim = dim.d_id AND dim.band = other.band",
            MaintainerConfig(spec=SynopsisSpec.fixed_size(20)))
        manager.register(
            "pairs", "SELECT * FROM other AS o1, other AS o2 "
                     "WHERE o1.band = o2.band",
            MaintainerConfig(spec=SynopsisSpec.fixed_size(20)))
        return manager

    #: 6 dims, 3 others, then facts with a new dim after every third
    RUN = ([InsertOp("dim", (d, d % 2)) for d in range(6)]
           + [InsertOp("other", (b % 2,)) for b in range(3)]
           + [op for i in range(12) for op in
              [InsertOp("fact", (i % 6, i))]
              + ([InsertOp("dim", (6 + i, 0))] if i % 3 == 2 else [])])

    def test_manager_time_by_row_share_and_fanout_per_row_and_alias(self):
        clock = FakeClock()
        obs = MetricsRegistry(clock=clock)
        manager = self.fk_manager(obs)
        # the run takes 2500 ticks: advance the clock at its last row
        last_row = manager.db.table("fact").insert

        def insert(row):
            if row == (5, 11):
                clock.now += 2500
            return last_row(row)

        manager.db.table("fact").insert = insert
        manager.apply_batch(self.RUN)
        metrics = manager.stats().metrics
        rows = {"dim": 10, "other": 3, "fact": 12}
        for table, count in rows.items():
            hist = metrics[f"manager.{table}.insert_ns"]
            assert hist["count"] == 1
            assert hist["sum"] == 2500 * count // 25
        # fk hears every row once; pairs hears ``other`` under two aliases
        assert metrics["manager.dim.fanout"]["value"] == 10
        assert metrics["manager.fact.fanout"]["value"] == 12
        assert metrics["manager.other.fanout"]["value"] == 3 * 3

    def test_members_never_cut_an_engine_segment(self):
        manager = self.fk_manager(MetricsRegistry())
        manager.apply_batch(self.RUN)
        stats = manager.stats()
        fk = stats.queries["fk"].metrics
        # dims open a segment, ``other`` cuts it, the facts cut again and
        # the four dims arriving among them ride along: three segments
        assert fk["engine.insert_ns"]["count"] == 3
        assert fk["engine.insert.graph_ns"]["count"] == 2
        assert fk["inserts"] == 25
        # o1, o2, o1, o2, ...: one table under two aliases cuts per row
        assert stats.queries["pairs"].metrics[
            "engine.insert_ns"]["count"] == 6

    def test_obs_does_not_change_what_a_run_does(self):
        plain, observed = self.fk_manager(), self.fk_manager(
            MetricsRegistry())
        for manager in (plain, observed):
            manager.apply_batch(self.RUN)
        for name in ("fk", "pairs"):
            assert observed.synopsis(name) == plain.synopsis(name)
            assert observed.maintainer(name).engine.rng.getstate() == \
                plain.maintainer(name).engine.rng.getstate()


@pytest.mark.parametrize("engine", ["sjoin-opt", "sjoin", "sj"])
class TestEngineStages:
    """Each insert segment and each delete run is one reported stage."""

    def test_one_report_per_segment_and_per_run(self, engine):
        obs, stages = armed()
        maintainer = JoinSynopsisMaintainer(make_db(), SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(100), engine=engine, seed=3,
            obs=obs))
        for i in range(24):
            maintainer.insert("r", (i % 4, i))
            maintainer.insert("s", (i * 7 % 4, i))
        seen = len(stages())
        assert seen == 2 * 24                  # runs of one, each reported
        # two delete runs, then one insert run cut where the alias changes
        maintainer.apply_batch(
            [DeleteOp("r", tid) for tid in range(5)]
            + [DeleteOp("s", tid) for tid in range(3)]
            + [InsertOp("r", (i % 4, 100 + i)) for i in range(5)]
            + [InsertOp("s", (i % 4, 100 + i)) for i in range(3)]
            + [InsertOp("r", (1, 200))])
        new = stages()[seen:]
        assert [(f["op"], f["target"], f["batch"]) for f in new] == [
            ("engine.delete_ns", "r", 5), ("engine.delete_ns", "s", 3),
            ("engine.insert_ns", "r", 5), ("engine.insert_ns", "s", 3),
            ("engine.insert_ns", "r", 1)]
        for fields in new:
            assert sum(fields["phases"].values()) <= fields["duration_ns"]
        for fields in new[:2]:
            # m = 100 of J = 144: the run purged and re-drew
            assert set(fields["phases"]) == {"engine.delete.graph_ns",
                                             "engine.delete.replenish_ns"}
            assert fields["removed_results"] > 0
        # the phase histograms heard once per stage too — SJ's as well
        metrics = maintainer.stats().metrics
        first = ("engine.insert.enumerate_ns" if engine == "sj"
                 else "engine.insert.graph_ns")
        assert metrics[first]["count"] == 2 * 24 + 3
        assert metrics["engine.delete.graph_ns"]["count"] == 2

    def test_a_run_no_entry_of_which_passed_the_filter_is_silent(
            self, engine):
        """The heap holds a row the engine's pre-filter refused; deleting
        it opens a delete run that does nothing — and reports nothing
        (the parent observed an empty ``engine.delete_ns``)."""
        manager = SynopsisManager(
            make_db(), MaintainerConfig(seed=1, obs=MetricsRegistry()))
        manager.register("q", SQL + " AND r.x > 5",
                         MaintainerConfig(engine=engine))
        refused = manager.insert("r", (1, 0))
        kept = manager.insert("r", (1, 9))
        manager.delete("r", refused)
        assert "engine.delete_ns" not in manager.stats().queries["q"].metrics
        manager.delete("r", kept)
        assert manager.stats().queries["q"].metrics[
            "engine.delete_ns"]["count"] == 1


class TestStackStages:
    """Above the engine: WAL append, snapshot write, ingest batch — and a
    recovered manager's engines, which report like fresh ones."""

    def test_wal_snapshot_and_a_recovered_engine_report(self, tmp_path):
        from repro.persist import PersistentManager

        obs, stages = armed()
        pm = PersistentManager(
            SynopsisManager(make_db(), MaintainerConfig(obs=obs)),
            str(tmp_path), obs=obs)
        pm.register("q", SQL, MaintainerConfig(seed=5))
        pm.insert("r", (1, 1))
        pm.checkpoint()
        pm.insert("r", (1, 2))
        pm.close()
        appends = [f for f in stages()
                   if f["op"] == "persist.wal.append_ns"]
        assert len(appends) == 3       # the register, the two inserts
        for fields in appends:
            assert fields["bytes"] > 0 and fields["fsyncs"] >= 0
        assert [f["wal_lsn"] for f in stages()
                if f["op"] == "persist.snapshot.write_ns"] == [0, 2]
        # the recovered query's engine sits on a child of ``obs`` again
        obs, stages = armed()
        recovered = PersistentManager.recover(
            str(tmp_path), obs=obs, manager_obs=obs)
        replayed = len(stages())
        recovered.insert("s", (1, 3))
        recovered.close()
        assert [f["op"] for f in stages()[replayed:]] == [
            "persist.wal.append_ns", "engine.insert_ns"]
        assert recovered.stats().queries["q"].metrics[
            "engine.insert_ns"]["count"] == 2   # the replayed op, the new

    def test_ingest_batch_is_timed_on_the_registry_clock(self):
        """Only the service reads this registry's clock: started 0,
        applied 10, published 20, reported at 30."""
        from repro.service import ServiceConfig, SynopsisService

        obs, stages = armed(clock=itertools.count(0, 10).__next__)
        manager = SynopsisManager(make_db())
        manager.register("q", SQL)
        with SynopsisService(manager, ServiceConfig(obs=obs)) as service:
            service.apply_batch([InsertOp("r", (1, 1)),
                                 InsertOp("s", (1, 2))])
            service.insert("r", (1, 3))
        assert [(f["op"], f["batch"], f["duration_ns"]) for f in stages()] \
            == [("service.ingest_batch_ns", 2, 30),
                ("service.ingest_batch_ns", 1, 30)]
        assert stages()[0]["phases"] == {"service.ingest_batch_ns": 10,
                                         "service.publish_ns": 10}
        snap = obs.snapshot()
        assert snap["service.ingest_batch_ns"]["sum"] == 20
        assert snap["service.publish_ns"]["sum"] == 20
        assert snap["service.publish_ns"]["count"] == 2

