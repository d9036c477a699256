"""Per-query AQP accuracy auditing (repro.aqp.audit).

Ring and coverage mechanics on synthetic payloads, the labeled ``aqp.*``
metric series, and the seeded end-to-end contract: an honest estimator's
coverage flag stays quiet while a mis-calibrated one (overconfident CI)
is flagged within a handful of estimates — surfaced through the audit
payload, the coverage gauge, the event log, and ``GET
/queries/<name>/audit``.
"""

import http.client
import json
import math
import random
import sys
import threading
import urllib.request

import pytest

from repro import (
    Column,
    Database,
    InsertOp,
    MaintainerConfig,
    QueryRegistry,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.aqp import AccuracyAuditor
from repro.aqp import audit as audit_module
from repro.aqp.audit import Tally
from repro.aqp.registry import RegisteredQuery
from repro.obs import names as metric_names
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, format_label_key

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_manager(n=6, seed=7, names=("q",), obs=None):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    manager = SynopsisManager(db, MaintainerConfig(seed=seed, obs=obs))
    for name in names:
        manager.register(name, SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(50)))
    manager.apply_batch(
        [InsertOp("r", (a, a * 10)) for a in range(n)]
        + [InsertOp("s", (a, a % 2)) for a in range(n)])
    return db, manager


def payload_for(truth, *, covered, confidence=0.95, estimate=None):
    """A synthetic estimate payload whose CI does/does not contain
    ``truth``."""
    value = truth if estimate is None else estimate
    if covered:
        ci = [value - 1.0, value + 1.0]
    else:
        ci = [value + 2.0, value + 3.0]
    return {"agg": "count", "sample_size": 10, "confidence": confidence,
            "value": value, "ci": ci, "epoch": 4}


class TestAuditorMechanics:
    def test_observe_scores_coverage_and_relative_error(self):
        auditor = AccuracyAuditor(clock=lambda: 5.0)
        record = auditor.observe(
            "q", payload_for(100.0, covered=True, estimate=90.0),
            latency_ns=1234, truth=100.0)
        assert record.covered is False  # ci [89,91] misses truth 100
        assert record.relative_error == pytest.approx(0.1)
        assert record.latency_ns == 1234
        hit = auditor.observe("q", payload_for(100.0, covered=True),
                              latency_ns=1, truth=100.0)
        assert hit.covered is True
        audit = auditor.query_audit("q")
        assert (audit.estimates, audit.audited) == (2, 2)
        assert audit.coverage() == 0.5

    def test_unscored_without_truth(self):
        auditor = AccuracyAuditor()
        record = auditor.observe(
            "q", payload_for(10.0, covered=True), latency_ns=1)
        assert record.covered is None and record.truth is None
        audit = auditor.query_audit("q")
        assert audit.estimates == 1 and audit.audited == 0
        assert audit.coverage() is None

    def test_ring_is_bounded_per_query(self, monkeypatch):
        monkeypatch.setattr(audit_module, "CAPACITY", 4)
        auditor = AccuracyAuditor()
        for _ in range(9):
            auditor.observe("q", payload_for(10.0, covered=True),
                            latency_ns=1)
        audit = auditor.query_audit("q")
        assert audit.estimates == 9
        assert len(audit.ring) == 4

    def test_payload_limit(self):
        auditor = AccuracyAuditor()
        for i in range(5):
            auditor.observe("q", payload_for(float(i), covered=True),
                            latency_ns=1)
        body = auditor.payload("q", limit=2)
        assert body["estimates"] == 5
        assert [r["estimate"] for r in body["records"]] == [3.0, 4.0]
        json.dumps(body)

    def test_flag_trips_only_past_binomial_slack(self, monkeypatch):
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 10)
        auditor = AccuracyAuditor()
        # 9 scored misses: below min_events, must stay quiet
        for _ in range(9):
            auditor.observe("q", payload_for(10.0, covered=False),
                            latency_ns=1, truth=10.0)
        assert auditor.query_audit("q").coverage_flagged is False
        # the 10th miss crosses min_events with coverage 0 << nominal
        auditor.observe("q", payload_for(10.0, covered=False),
                        latency_ns=1, truth=10.0)
        assert auditor.query_audit("q").coverage_flagged is True

    def test_honest_coverage_keeps_flag_quiet(self, monkeypatch):
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 10)
        auditor = AccuracyAuditor()
        for _ in range(50):
            auditor.observe("q", payload_for(10.0, covered=True),
                            latency_ns=1, truth=10.0)
        audit = auditor.query_audit("q")
        assert audit.coverage() == 1.0
        assert audit.coverage_flagged is False

    def test_flag_transition_emits_event_once(self, monkeypatch):
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 3)
        events = EventLog()
        auditor = AccuracyAuditor(obs=MetricsRegistry(events=events))
        for _ in range(6):
            auditor.observe("q", payload_for(10.0, covered=False),
                            latency_ns=1, truth=10.0)
        drift = events.events("aqp.coverage_drift")
        assert len(drift) == 1  # rising edge only, not every estimate
        assert drift[0].fields["query"] == "q"
        assert auditor.query_audit("q").flag_count == 1

    def test_unscored_estimates_evicting_misses_drop_the_flag(
            self, monkeypatch):
        monkeypatch.setattr(audit_module, "CAPACITY", 5)
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 1)
        auditor = AccuracyAuditor()
        audit = auditor.query_audit("q")
        for _ in range(5):
            auditor.observe("q", payload_for(10.0, covered=False),
                            latency_ns=1, truth=10.0)
        assert audit.coverage_flagged is True
        # unscored estimates (filtered, say) push the misses out one by
        # one; the flag must follow the ring, not the last scored call
        for left in (4, 3, 2, 1):
            auditor.observe("q", payload_for(10.0, covered=True),
                            latency_ns=1)
            assert audit.tally().scored == left
            assert audit.coverage_flagged is True
        auditor.observe("q", payload_for(10.0, covered=True),
                        latency_ns=1)
        assert audit.tally() == Tally(0, 0, 0.0)
        assert audit.coverage_flagged is False
        assert auditor.payload("q")["coverage_flagged"] is False

    def test_kept_tally_equals_a_walk_of_the_ring(self, monkeypatch):
        """The running tally against a fresh walk of the ring after each
        of 2 000 seeded observes per ring size — scored and unscored
        records, two confidences, coverage that flips between long
        honest and long overconfident stretches: counts equal, nominal
        within 1e-12, and the flag makes the same transitions as a flag
        computed from the walk."""
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 5)
        for capacity in (7, 256):
            monkeypatch.setattr(audit_module, "CAPACITY", capacity)
            self.against_a_walk(random.Random(38 + capacity))

    @staticmethod
    def against_a_walk(rng):
        auditor = AccuracyAuditor()
        audit = auditor.query_audit("q")
        flagged = False
        rises = 0
        for number in range(2000):
            honest = (number // 300) % 2 == 0
            payload = payload_for(
                10.0, covered=rng.random() < (0.97 if honest else 0.5),
                confidence=rng.choice((0.9, 0.95)))
            if rng.random() < 0.1:
                payload["ci"] = None        # truth, but no verdict
            auditor.observe("q", payload, latency_ns=1,
                            truth=10.0 if rng.random() < 0.6 else None)
            scored = [r for r in audit.ring if r.covered is not None]
            kept = audit.tally()
            assert kept.scored == len(scored)
            assert kept.covered == sum(r.covered for r in scored)
            walked = 0.0
            for record in scored:
                walked += record.confidence
            if scored:
                assert abs(kept.nominal - walked / len(scored)) <= 1e-12
            # the flag off the walk, by update_flag's rule
            was = flagged
            flagged = False
            if len(scored) >= audit_module.MIN_EVENTS:
                nominal = walked / len(scored)
                flagged = kept.covered / len(scored) < nominal - (
                    audit_module.Z_SLACK * math.sqrt(
                        nominal * (1 - nominal) / len(scored)))
            rises += flagged and not was
            assert audit.coverage_flagged is flagged, number
            assert audit.flag_count == rises
        assert rises >= 3

    def test_labeled_metric_children_per_query(self):
        obs = MetricsRegistry()
        auditor = AccuracyAuditor(obs=obs)
        auditor.observe("q1", payload_for(10.0, covered=True),
                        latency_ns=7, truth=10.0)
        auditor.observe("q2", payload_for(10.0, covered=True),
                        latency_ns=7)
        snap = obs.snapshot()
        key = lambda name, q: format_label_key(name, {"query": q})
        assert snap[key(metric_names.AQP_ESTIMATES, "q1")]["value"] == 1
        assert snap[key(metric_names.AQP_ESTIMATES, "q2")]["value"] == 1
        assert snap[key(metric_names.AQP_AUDITED, "q1")]["value"] == 1
        assert key(metric_names.AQP_AUDITED, "q2") not in snap
        assert snap[key(metric_names.AQP_COVERAGE, "q1")]["value"] == 1.0
        assert snap[key(
            metric_names.AQP_ESTIMATE_NS, "q1")]["count"] == 1


class Overconfident(RegisteredQuery):
    """A mis-calibrated estimator: halves the answer, claims a
    hairline CI around it — its stated 95% intervals never contain
    the exact join count."""

    def _compute(self, snapshot, agg, **kwargs):
        payload = super()._compute(snapshot, agg, **kwargs)
        value = (payload.get("value") or 0.0) * 0.5
        payload["value"] = value
        payload["ci"] = [value - 0.01, value + 0.01]
        return payload


class TestEndToEnd:
    def test_honest_query_quiet_miscalibrated_query_flagged(
            self, monkeypatch):
        monkeypatch.setattr(audit_module, "MIN_EVENTS", 5)
        events = EventLog()
        obs = MetricsRegistry(events=events)
        _, manager = make_manager(names=("q", "q_bad"), obs=obs)
        registry = QueryRegistry(manager)
        honest = registry.get("q")
        bad = Overconfident(registry, "q_bad", honest.sql, honest.query)
        for _ in range(8):
            honest.estimate("count")
            bad.estimate("count")
        assert registry.audit.query_audit("q").coverage_flagged is False
        assert registry.audit.query_audit("q").coverage() == 1.0
        bad_audit = registry.audit.query_audit("q_bad")
        assert bad_audit.coverage() == 0.0
        assert bad_audit.coverage_flagged is True
        # the flag reaches the labeled gauge and the event log
        key = format_label_key(
            metric_names.AQP_COVERAGE_FLAGGED, {"query": "q_bad"})
        assert obs.snapshot()[key]["value"] == 1
        quiet_key = format_label_key(
            metric_names.AQP_COVERAGE_FLAGGED, {"query": "q"})
        assert obs.snapshot()[quiet_key]["value"] == 0
        (drift,) = events.events("aqp.coverage_drift")
        assert drift.fields["query"] == "q_bad"

    def test_audit_payload_via_registered_query(self):
        _, manager = make_manager()
        registry = QueryRegistry(manager)
        query = registry.get("q")
        query.estimate("count")
        body = query.audit()
        assert body["name"] == "q"
        assert body["audited"] == 1
        assert body["records"][-1]["covered"] is True

    def test_weighted_family_count_is_not_scored(self):
        # the weighted family's snapshot total is W, not the COUNT
        # truth: estimates must record unscored, never mis-scored
        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("x")]))
        db.create_table(TableSchema("s", [Column("a"), Column("y")]))
        manager = SynopsisManager(db, MaintainerConfig(seed=7))
        manager.register("qw", SQL, MaintainerConfig(
            spec=SynopsisSpec.weighted_with_replacement(50, "r.x")))
        manager.apply_batch(
            [InsertOp("r", (a, a + 1)) for a in range(4)]
            + [InsertOp("s", (a, a)) for a in range(4)])
        registry = QueryRegistry(manager)
        registry.get("qw").estimate("count")
        audit = registry.audit.query_audit("qw")
        assert audit.estimates == 1 and audit.audited == 0

    @pytest.mark.parametrize("family", ["uniform", "subset"])
    def test_residual_query_count_takes_no_free_truth(self, family):
        # the band triangle's cycle-closing edge is a residual filter:
        # J counts the tree join (a superset), so it is no COUNT truth
        # and a wrong answer would otherwise score "covered"
        from test_view_publication import BandWorkload, stream

        manager = SynopsisManager(BandWorkload.make_db(),
                                  MaintainerConfig(seed=3))
        registry = QueryRegistry(manager)
        if family == "uniform":
            query = registry.register(BandWorkload.sql, "band", size=64)
        else:
            # reached through adoption, as a replayed registration is
            manager.register("band", BandWorkload.sql, MaintainerConfig(
                spec=SynopsisSpec.subset(0.2, BandWorkload.weight_column)))
            query = registry.get("band")
        for batch in stream(BandWorkload, 5, 30):
            manager.apply_batch(batch)
        assert query.has_residuals
        assert manager.total_results("band") > 0
        for _ in range(3):
            query.estimate("count")
        body = query.audit()
        assert [r["truth"] for r in body["records"]] == [None] * 3
        assert body["eligible"] == body["audited"] == 0
        assert body["coverage"] is None

    def test_tree_query_count_keeps_its_free_truth(self):
        _, manager = make_manager()
        query = QueryRegistry(manager).get("q")
        assert not query.has_residuals
        query.estimate("count")
        record = query.audit()["records"][-1]
        assert record["truth"] == manager.total_results("q")


class TestHTTPEndpoint:
    def test_audit_endpoint_and_404(self):
        from repro import ServiceConfig, SynopsisService
        from repro.service import ServiceHTTPServer

        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("x")]))
        db.create_table(TableSchema("s", [Column("a"), Column("y")]))
        manager = SynopsisManager(db, MaintainerConfig(seed=7))
        service = SynopsisService(
            manager, ServiceConfig(obs=MetricsRegistry()))
        try:
            with ServiceHTTPServer(service, port=0) as server:
                host, port = server.address
                base = f"http://{host}:{port}"

                def post(path, body):
                    req = urllib.request.Request(
                        base + path, json.dumps(body).encode(),
                        {"Content-Type": "application/json"})
                    return json.loads(urllib.request.urlopen(req).read())

                post("/query", {"sql": SQL, "name": "q1"})
                for a in range(4):
                    post("/insert", {"table": "r", "row": [a, a]})
                    post("/insert", {"table": "s", "row": [a, a]})
                post("/query/q1/estimate", {"agg": "count"})
                body = json.loads(urllib.request.urlopen(
                    base + "/queries/q1/audit?limit=5").read())
                assert body["name"] == "q1"
                assert body["estimates"] == 1
                assert body["records"][-1]["covered"] is True
                # per-query labeled series appear in the scrape
                metrics = urllib.request.urlopen(
                    base + "/metrics").read().decode()
                assert 'repro_aqp_estimates{query="q1"} 1' in metrics
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(
                        base + "/queries/nope/audit")
                assert exc.value.code == 404
        finally:
            service.close()


class TestConcurrentEstimates:
    """The front door answers estimates on one thread per connection,
    so one query's audit ring takes appends from several threads at
    once while the audit endpoint walks it: every estimate must be
    counted and scored, and no walk may meet a ring mid-append."""

    THREADS = 4
    CALLS = 1500

    @staticmethod
    def hammered(work, threads):
        """Run ``work(i)`` on threads ``i = 0 .. threads - 1`` under a
        shortened switch interval; returns what they raised."""
        errors = []

        def run(i):
            try:
                work(i)
            except Exception as exc:  # collected, asserted empty
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(i,))
                   for i in range(threads)]
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(before)
        assert not any(worker.is_alive() for worker in workers)
        return errors

    def test_threads_lose_no_estimate(self):
        from repro import SynopsisService

        _, manager = make_manager()
        with SynopsisService(manager) as service:
            query = QueryRegistry(service).get("q")

            def work(i):
                for _ in range(self.CALLS):
                    query.estimate("count")
                    if i == 0:
                        query.audit(limit=1)

            assert self.hammered(work, self.THREADS) == []
            body = query.audit()
        total = self.THREADS * self.CALLS
        assert body["estimates"] == total
        assert body["eligible"] == body["audited"] == total

    def test_concurrent_http_estimates_get_no_500(self):
        from repro import SynopsisService
        from repro.service import ServiceHTTPServer

        _, manager = make_manager()
        statuses = []
        with SynopsisService(manager) as service, \
                ServiceHTTPServer(service, port=0) as server:
            host, port = server.address
            body = json.dumps({"agg": "count"}).encode()

            def work(i):
                conn = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    for i in range(self.CALLS // 5):
                        if i % 10 == 9:
                            conn.request("GET", "/queries/q/audit?limit=1")
                        else:
                            conn.request(
                                "POST", "/query/q/estimate", body,
                                {"Content-Type": "application/json"})
                        response = conn.getresponse()
                        response.read()
                        statuses.append(response.status)
                finally:
                    conn.close()

            assert self.hammered(work, 3) == []
            audit = json.loads(urllib.request.urlopen(
                f"http://{host}:{port}/queries/q/audit?limit=0").read())
        assert set(statuses) == {200}
        estimates = statuses.count(200) - 3 * (self.CALLS // 50)
        assert audit["estimates"] == audit["audited"] == estimates
