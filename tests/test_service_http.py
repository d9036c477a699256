"""The JSON/HTTP front end: endpoints answer (correctly) during ingest."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import (
    Column,
    Database,
    InsertOp,
    MaintainerConfig,
    ServiceConfig,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.service import LocalServiceClient, ServiceHTTPServer

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_service(**config):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    manager = SynopsisManager(db)
    manager.register(
        "q", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(50),
                                   seed=7))
    return SynopsisService(manager, ServiceConfig(**config))


@pytest.fixture()
def served():
    service = make_service()
    server = ServiceHTTPServer(service, port=0).start()
    host, port = server.address
    yield service, f"http://{host}:{port}"
    server.stop()
    service.close()


def get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class TestEndpoints:
    def test_healthz(self, served):
        import repro

        service, base = served
        status, body = get(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0
        # deployment satellite fields: version, uptime, view staleness
        # — and parity with the in-process client
        assert body["version"] == repro.__version__
        assert body["uptime_seconds"] >= 0.0
        assert "index_backend" not in body
        assert body["staleness_seconds"] >= 0.0
        local = LocalServiceClient(service).healthz()
        assert local["version"] == body["version"]
        assert set(local) == set(body)

    def test_insert_then_synopsis(self, served):
        _, base = served
        status, body = post(base + "/insert",
                            {"table": "r", "row": [1, 10]})
        assert status == 200 and body["tid"] == 0
        post(base + "/insert", {"table": "s", "row": [1, 20]})
        status, body = get(base + "/synopsis")
        assert status == 200
        assert body["total_results"] == 1
        assert body["synopsis"] == [[0, 0]]
        status, body = get(base + "/synopsis?limit=0")
        assert body["synopsis"] == []

    def test_delete(self, served):
        _, base = served
        _, ins = post(base + "/insert", {"table": "r", "row": [1, 10]})
        status, body = post(base + "/delete",
                            {"table": "r", "tid": ins["tid"]})
        assert status == 200 and body["ok"] is True

    def test_stats(self, served):
        _, base = served
        post(base + "/insert", {"table": "r", "row": [1, 10]})
        status, body = get(base + "/stats")
        assert status == 200
        assert body["stats"]["queries"]["q"]["algorithm"] == "sjoin-opt"
        assert body["stats"]["total_results"] == 0
        assert body["service"]["applied_ops"] == 1

    def test_unknown_path_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base + "/nope")
        assert err.value.code == 404

    def test_malformed_body_400(self, served):
        _, base = served
        for payload in ({"table": "r"}, {"table": "r", "row": 3}):
            with pytest.raises(urllib.error.HTTPError) as err:
                post(base + "/insert", payload)
            assert err.value.code == 400

    def test_domain_error_409(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base + "/delete", {"table": "r", "tid": 999})
        assert err.value.code == 409

    def test_closed_service_503(self, served):
        service, base = served
        service.close()
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base + "/insert", {"table": "r", "row": [1, 1]})
        assert err.value.code == 503
        # reads still answer from the last published view
        status, _ = get(base + "/synopsis")
        assert status == 200

    def test_answers_during_ingest(self, served):
        """/synopsis and /healthz respond while writers stream inserts
        (the acceptance scenario)."""
        service, base = served
        stop = threading.Event()
        failures = []

        def writer():
            n = 0
            while not stop.is_set():
                service.apply_batch([InsertOp("r", (n % 25, n)),
                                InsertOp("s", (n % 25, n))], wait=False)
                n += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                status, body = get(base + "/healthz")
                assert status == 200 and body["status"] == "ok"
                status, body = get(base + "/synopsis?limit=5")
                assert status == 200
                assert len(body["synopsis"]) <= 5
                assert body["total_results"] >= 0
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures


class TestUnnamedReads:
    """One rule: no ``?name=`` means the sole registered query; with
    several the reply is a typed 4xx listing them."""

    def test_one_registration_answers_unnamed(self, served):
        _, base = served
        post(base + "/insert", {"table": "r", "row": [1, 10]})
        post(base + "/insert", {"table": "s", "row": [1, 20]})
        _, unnamed = get(base + "/synopsis")
        _, named = get(base + "/synopsis?name=q")
        assert unnamed == named
        assert unnamed["name"] == "q" and unnamed["synopsis"] == [[0, 0]]

    def test_two_registrations_need_a_name(self, served):
        service, base = served
        service.register("q2", SQL)
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base + "/synopsis")
        assert 400 <= err.value.code < 500
        message = json.loads(err.value.read())["error"]
        assert "'q'" in message and "'q2'" in message
        status, body = get(base + "/synopsis?name=q2")
        assert status == 200 and body["name"] == "q2"


class TestLocalClientParity:
    def test_same_payload_shapes_as_http(self, served):
        service, base = served
        client = LocalServiceClient(service)
        assert client.insert("r", (1, 10)) == \
            {"tid": 0, "epoch": service.epoch}
        client.insert("s", (1, 20))
        _, http_synopsis = get(base + "/synopsis")
        assert client.synopsis() == http_synopsis
        _, http_stats = get(base + "/stats")
        local_stats = client.stats()
        assert local_stats["stats"] == http_stats["stats"]
        assert sorted(local_stats) == sorted(http_stats)
        local_health = client.healthz()
        http_health = get(base + "/healthz")[1]
        assert set(local_health) == set(http_health)
        for volatile in ("uptime_seconds", "staleness_seconds"):
            # wall-clock readings can't match exactly across two calls
            assert local_health.pop(volatile) >= 0.0
            assert http_health.pop(volatile) >= 0.0
        assert local_health == http_health

    def test_batch_insert_is_one_batch(self, served):
        from repro.core.stats_api import InsertOp

        service, _ = served
        result = service.apply_batch(
            [InsertOp("r", (k, 0)) for k in range(8)])
        assert list(result.tids) == list(range(8))
        assert service.service_metrics()["applied_batches"] == 1


class TestReviewRegressions:
    def test_negative_limit_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base + "/synopsis?limit=-1")
        assert err.value.code == 400

    def test_synopsis_reply_reads_exactly_one_view(self, served):
        """The reply must come from a single captured view, never from
        per-field service reads that could straddle a publication."""
        service, base = served
        client = LocalServiceClient(service)
        service.insert("r", (1, 10))
        service.insert("s", (1, 20))

        def bomb(*args, **kwargs):
            raise AssertionError("reply re-read live service state")

        service.total_results = bomb
        service.synopsis = bomb
        body = client.synopsis(limit=5)
        assert body["total_results"] == 1
        assert body["synopsis"] == [[0, 0]]
        status, http_body = get(base + "/synopsis?limit=5")
        assert status == 200 and http_body == body
