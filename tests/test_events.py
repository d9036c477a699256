"""repro.obs.events: the structured JSON event log.

Ring mechanics (bounded overwrite, copy-on-read, prefix filtering), the
JSON-line logging sink, gauge publication, the null-object contract,
and the fan-in wiring: slow stages reported to a registry and
quality-monitor flags land in one shared log.
"""

import json
import logging

import pytest

from repro.errors import InvalidArgumentError
from repro.obs import names as metric_names
from repro.obs.events import (
    NULL_EVENTS,
    EventLog,
    NullEventLog,
    as_event_log,
)
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRing:
    def test_emit_records_seq_clock_kind_fields(self):
        clock = FakeClock(42.5)
        log = EventLog(clock=clock)
        event = log.emit("replicate.stall", staleness=7.0)
        assert (event.seq, event.at, event.kind) == \
            (0, 42.5, "replicate.stall")
        assert event.fields == {"staleness": 7.0}
        assert event.to_dict() == {
            "seq": 0, "at": 42.5, "kind": "replicate.stall",
            "fields": {"staleness": 7.0},
        }

    def test_bounded_ring_overwrites_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("k", i=i)
        assert log.emitted == 5
        assert log.dropped == 2
        assert [e.fields["i"] for e in log.events()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            EventLog(capacity=0)

    def test_kind_filter_matches_dotted_prefix(self):
        log = EventLog()
        log.emit("quality.flag")
        log.emit("quality.clear")
        log.emit("qualityx.other")
        log.emit("replicate.stall")
        kinds = [e.kind for e in log.events("quality")]
        assert kinds == ["quality.flag", "quality.clear"]
        # exact-kind match also works
        assert [e.kind for e in log.events("quality.flag")] == \
            ["quality.flag"]

    def test_payload_shape(self):
        log = EventLog(capacity=2, clock=FakeClock(1.0))
        log.emit("a.one")
        log.emit("a.two")
        log.emit("b.three")
        payload = log.payload()
        assert payload["emitted"] == 3
        assert payload["dropped"] == 1
        assert [e["kind"] for e in payload["events"]] == \
            ["a.two", "b.three"]
        assert log.payload("a") == {
            "events": [{"seq": 1, "at": 1.0, "kind": "a.two"}],
            "emitted": 3, "dropped": 1,
        }
        json.dumps(payload)  # JSON-shaped end to end

    def test_publish_sets_gauges(self):
        log = EventLog(capacity=1)
        log.emit("a")
        log.emit("b")
        obs = MetricsRegistry()
        log.publish(obs)
        snap = obs.snapshot()
        assert snap[metric_names.EVENTS_EMITTED]["value"] == 2
        assert snap[metric_names.EVENTS_DROPPED]["value"] == 1
        log.publish(NULL_REGISTRY)  # disabled registry: a no-op


class TestSink:
    def test_default_sink_logs_one_json_line(self, caplog):
        log = EventLog(clock=FakeClock(9.0))
        with caplog.at_level(logging.INFO, logger="repro.events"):
            log.emit("quality.flag", chi_square=12.0)
        (record,) = caplog.records
        parsed = json.loads(record.getMessage())
        assert parsed == {
            "seq": 0, "at": 9.0, "kind": "quality.flag",
            "fields": {"chi_square": 12.0},
        }


class TestNull:
    def test_null_contract(self):
        assert NULL_EVENTS.enabled is False
        assert EventLog().enabled is True
        assert NULL_EVENTS.emit("k", x=1) is None
        assert NULL_EVENTS.events() == []
        assert NULL_EVENTS.payload() == \
            {"events": [], "emitted": 0, "dropped": 0}
        assert NULL_EVENTS.publish(MetricsRegistry()) is None
        assert isinstance(NULL_EVENTS, NullEventLog)

    def test_as_event_log_normalisation(self):
        assert as_event_log(None) is NULL_EVENTS
        real = EventLog()
        assert as_event_log(real) is real


class TestFanIn:
    def test_slow_stages_of_a_registry_and_its_children_share_the_log(self):
        log = EventLog()
        obs = MetricsRegistry(clock=lambda: 7, events=log,
                              slow_op_threshold_ns=100)
        child = obs.child()
        assert child.clock() == 7 and child.events is log
        obs.report("engine.insert_ns", 250,
                   {"engine.insert.graph_ns": 200}, target="r", batch=4)
        obs.report("engine.insert_ns", 99, target="r")
        child.report("engine.delete_ns", 100, target="s",
                     removed_results=3)
        first, second = log.events("trace.slow_op")
        assert first.fields == {
            "op": "engine.insert_ns", "target": "r", "batch": 4,
            "duration_ns": 250,
            "phases": {"engine.insert.graph_ns": 200}}
        assert second.fields["removed_results"] == 3
        # a stage lands in its own registry, promotions count on the root
        assert "engine.delete_ns" in child and "engine.delete_ns" not in obs
        assert metric_names.TRACE_SLOW_OPS not in child
        assert obs.snapshot()[metric_names.TRACE_SLOW_OPS]["value"] == 2
