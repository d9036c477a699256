"""repro.obs.trace: ring semantics, slow-op promotion, engine spans.

Clock-dependent behaviour (durations, thresholds) runs against an
injected fake clock so every assertion is deterministic; the engine and
persistence integrations then only assert structure (kinds, phases,
annotations), never wall-clock values.
"""

import logging
import random

import pytest

from repro import Database, DeleteOp, InsertOp, JoinSynopsisMaintainer, \
    MaintainerConfig, SynopsisSpec
from repro.errors import InvalidArgumentError
from repro.obs import NULL_TRACER, MetricsRegistry, NullTracer, Tracer, \
    as_tracer
from repro.obs import names as metric_names
from repro.obs.trace import TraceEvent, TraceRing

from conftest import make_tables, single_query

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    return db


class FakeClock:
    """Scripted nanosecond clock: each call returns now, then advances."""

    def __init__(self, step=10):
        self.now = 0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_event(seq, duration=1, **kw):
    return TraceEvent(seq=seq, kind=kw.get("kind", "insert"),
                      target=kw.get("target", "r"), start_ns=0,
                      duration_ns=duration, batch=1, phases={},
                      extra=None, slow=False)


# ----------------------------------------------------------------------
# ring
# ----------------------------------------------------------------------
class TestTraceRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            TraceRing(0)

    def test_retains_most_recent_in_order(self):
        ring = TraceRing(3)
        for seq in range(5):
            ring.append(make_event(seq))
        assert ring.recorded == 5
        assert ring.dropped == 2
        assert [e.seq for e in ring.snapshot()] == [2, 3, 4]

    def test_under_capacity_drops_nothing(self):
        ring = TraceRing(8)
        for seq in range(3):
            ring.append(make_event(seq))
        assert ring.dropped == 0
        assert [e.seq for e in ring.snapshot()] == [0, 1, 2]

    def test_capacity_one_keeps_latest(self):
        ring = TraceRing(1)
        for seq in range(4):
            ring.append(make_event(seq))
        assert [e.seq for e in ring.snapshot()] == [3]
        assert ring.dropped == 3


# ----------------------------------------------------------------------
# tracer + slow-op promotion (fake clock throughout)
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_measures_duration_with_injected_clock(self):
        tracer = Tracer(capacity=4, clock=FakeClock(step=100))
        span = tracer.start("insert", target="r")
        event = tracer.finish(span)
        assert event.duration_ns == 100
        assert event.kind == "insert"
        assert event.target == "r"
        assert not event.slow

    def test_promotion_threshold_is_inclusive(self):
        promoted = []
        tracer = Tracer(capacity=8, slow_op_threshold_ns=100,
                        sink=promoted.append, clock=FakeClock(step=100))
        tracer.finish(tracer.start("insert"))
        assert tracer.slow_ops == 1
        assert len(promoted) == 1
        assert promoted[0]["slow"] is True
        assert promoted[0]["duration_ns"] == 100

    def test_below_threshold_not_promoted(self):
        promoted = []
        tracer = Tracer(capacity=8, slow_op_threshold_ns=101,
                        sink=promoted.append, clock=FakeClock(step=100))
        event = tracer.finish(tracer.start("insert"))
        assert not event.slow
        assert tracer.slow_ops == 0
        assert promoted == []

    def test_zero_threshold_promotes_everything(self):
        promoted = []
        tracer = Tracer(capacity=8, slow_op_threshold_ns=0,
                        sink=promoted.append, clock=FakeClock(step=1))
        for _ in range(3):
            tracer.finish(tracer.start("insert"))
        assert tracer.slow_ops == 3
        assert len(promoted) == 3

    def test_none_threshold_never_promotes(self):
        promoted = []
        tracer = Tracer(capacity=8, sink=promoted.append,
                        clock=FakeClock(step=10 ** 12))
        tracer.finish(tracer.start("insert"))
        assert tracer.slow_ops == 0
        assert promoted == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Tracer(slow_op_threshold_ns=-1)

    def test_phases_accumulate_and_annotations_attach(self):
        tracer = Tracer(capacity=4, clock=FakeClock(step=5))
        span = tracer.start("insert", target="r")
        span.phase("graph_ns", 7)
        span.phase("graph_ns", 3)
        span.phase("sample_ns", 2)
        span.annotate(new_results=4)
        event = tracer.finish(span)
        assert event.phases == {"graph_ns": 10, "sample_ns": 2}
        assert event.extra == {"new_results": 4}
        payload = event.to_dict()
        assert payload["phases"]["graph_ns"] == 10
        assert payload["extra"] == {"new_results": 4}

    def test_default_sink_logs_one_structured_line(self, caplog):
        tracer = Tracer(capacity=4, slow_op_threshold_ns=0,
                        clock=FakeClock(step=1))
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            tracer.finish(tracer.start("insert", target="r"))
        assert len(caplog.records) == 1
        assert "slow op" in caplog.records[0].getMessage()
        assert '"kind": "insert"' in caplog.records[0].getMessage()

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.start("insert", target="r")
        span.phase("graph_ns", 5)
        span.annotate(x=1)
        assert NULL_TRACER.finish(span) is None
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.recorded == 0

    def test_as_tracer_normalises_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer(capacity=2)
        assert as_tracer(tracer) is tracer
        assert isinstance(as_tracer(None), NullTracer)


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["sjoin-opt", "sjoin", "sj"])
class TestEngineSpans:
    def drive(self, tracer, engine, n=40):
        maintainer = JoinSynopsisMaintainer(make_db(), SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10), engine=engine, seed=3,
            tracer=tracer))
        rng = random.Random(11)
        tids = []
        for i in range(n):
            tids.append(maintainer.insert("r", (rng.randrange(4), i)))
            maintainer.insert("s", (rng.randrange(4), i))
        for tid in tids[: n // 4]:
            maintainer.delete("r", tid)
        return maintainer

    def test_insert_and_delete_events_recorded(self, engine):
        tracer = Tracer(capacity=4096)
        self.drive(tracer, engine)
        events = tracer.events()
        kinds = {e.kind for e in events}
        assert kinds == {"insert", "delete"}
        targets = {e.target for e in events}
        assert targets <= {"r", "s"}
        inserts = [e for e in events if e.kind == "insert"]
        # every insert span carries the phase breakdown of its engine
        phase_keys = set()
        for event in inserts:
            phase_keys |= set(event.phases)
        assert phase_keys <= {"graph_ns", "sample_ns", "enumerate_ns"}
        assert any(event.phases for event in inserts)

    def test_one_delete_span_per_run_with_phase_sums(self, engine):
        tracer = Tracer(capacity=4096)
        maintainer = self.drive(tracer, engine, n=24)   # 6 lone deletes
        lone = [e for e in tracer.events() if e.kind == "delete"]
        assert [e.batch for e in lone] == [1] * 6
        # one run of five on r, one of three on s: two more spans
        maintainer.apply_batch(
            [DeleteOp("r", tid) for tid in range(6, 11)]
            + [DeleteOp("s", tid) for tid in range(3)])
        runs = [e for e in tracer.events() if e.kind == "delete"][6:]
        assert [(e.target, e.batch) for e in runs] == [("r", 5), ("s", 3)]
        for event in runs:
            # m = 10 > J's share per tuple: the run purged and re-drew
            assert set(event.phases) == {"graph_ns", "replenish_ns"}
            assert sum(event.phases.values()) <= event.duration_ns
            assert event.extra["removed_results"] > 0

    def test_one_insert_span_per_segment_of_a_run(self, engine):
        tracer = Tracer(capacity=4096)
        maintainer = self.drive(tracer, engine, n=8)
        seen = len(tracer.events())
        # one run, cut where the alias changes: three spans
        maintainer.apply_batch(
            [InsertOp("r", (i % 4, 100 + i)) for i in range(5)]
            + [InsertOp("s", (i % 4, 100 + i)) for i in range(3)]
            + [InsertOp("r", (1, 200))])
        spans = tracer.events()[seen:]
        assert [(e.kind, e.target, e.batch) for e in spans] == [
            ("insert", "r", 5), ("insert", "s", 3), ("insert", "r", 1)]
        for event in spans:
            assert sum(event.phases.values()) <= event.duration_ns

    def test_tracing_does_not_change_results(self, engine):
        traced = self.drive(Tracer(capacity=64), engine)
        plain = self.drive(None, engine)
        assert traced.total_results() == plain.total_results()
        assert sorted(traced.synopsis()) == sorted(plain.synopsis())

    def test_maintainer_publishes_trace_gauges(self, engine):
        obs = MetricsRegistry()
        tracer = Tracer(capacity=16)
        maintainer = JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(
                spec=SynopsisSpec.fixed_size(10), engine=engine, seed=3,
                obs=obs, tracer=tracer))
        maintainer.insert("r", (1, 1))
        maintainer.insert("s", (1, 2))
        metrics = maintainer.stats().metrics
        assert metrics[metric_names.TRACE_EVENTS]["value"] == \
            tracer.recorded
        assert metrics[metric_names.TRACE_DROPPED]["value"] == 0
        assert metrics[metric_names.TRACE_SLOW_OPS]["value"] == 0


# ----------------------------------------------------------------------
# persistence integration
# ----------------------------------------------------------------------
class TestPersistSpans:
    def test_wal_and_snapshot_spans(self, tmp_path):
        from repro.persist import PersistentManager

        tracer = Tracer(capacity=256)
        manager, _ = single_query(make_db(), SQL,
                                  MaintainerConfig(seed=5))
        pm = PersistentManager(manager, str(tmp_path), sync="batch",
                               tracer=tracer)
        pm.insert("r", (1, 1))
        pm.insert("s", (1, 2))
        pm.checkpoint()
        pm.close()
        events = tracer.events()
        appends = [e for e in events if e.kind == "wal.append"]
        snaps = [e for e in events if e.kind == "snapshot.write"]
        assert appends and snaps
        for event in appends:
            assert event.extra is not None
            assert event.extra["bytes"] > 0
            assert event.extra["fsyncs"] >= 0
        assert snaps[-1].extra["wal_lsn"] >= 0

    def test_recovered_maintainer_keeps_tracing_persist_layer(
            self, tmp_path):
        from repro.persist import PersistentManager

        manager, _ = single_query(make_db(), SQL,
                                  MaintainerConfig(seed=5))
        pm = PersistentManager(manager, str(tmp_path))
        pm.insert("r", (1, 1))
        pm.close()
        tracer = Tracer(capacity=64)
        recovered = PersistentManager.recover(str(tmp_path),
                                              tracer=tracer)
        recovered.insert("s", (1, 2))
        recovered.close()
        assert any(e.kind == "wal.append" for e in tracer.events())


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------
class TestServiceSpans:
    def test_ingest_batches_traced_with_phases(self):
        from repro.service import ServiceConfig, SynopsisService

        tracer = Tracer(capacity=64)
        manager, _ = single_query(make_db(), SQL,
                                  MaintainerConfig(seed=7))
        service = SynopsisService(manager,
                                  ServiceConfig(tracer=tracer))
        try:
            service.insert("r", (1, 1))
            service.insert("s", (1, 2))
        finally:
            service.close()
        batches = [e for e in tracer.events()
                   if e.kind == "ingest.batch"]
        assert batches
        for event in batches:
            assert event.batch >= 1
            assert set(event.phases) == {"apply_ns", "publish_ns"}
