"""The shipped CLI server answers the AQP routes.

``repro serve`` builds its target through ``build_serve_target``: a
manager with the workload's query registered under its name, so ``POST
/query/QY/estimate`` works on the server the CLI starts, writes address
base tables, and ``GET /synopsis`` without a name means the sole query.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import (build_serve_service, build_workload_manager,
                       make_parser)
from repro.core.stats_api import InsertOp
from repro.obs import QualityConfig
from repro.replicate import FollowerService, WalShipper
from repro.service import ServiceHTTPServer


def serve_args(*extra):
    return make_parser().parse_args(
        ["serve", "--query", "QY", "--scale", "tiny",
         "--synopsis", "fixed:50", "--port", "0", *extra])


def get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class Served:
    """The CLI's serve wiring, minus ``serve_forever``."""

    def __init__(self, args):
        self.service, self._close = build_serve_service(args)
        self.target = self.service.target
        self.server = ServiceHTTPServer(self.service, port=0).start()
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def feed(self, start=0, stop=300, batch=300):
        """Stream a stretch of the workload through the front door, so
        the join is non-empty (the tiny preload alone joins nothing)."""
        _, _, stream = build_workload_manager(serve_args())
        ops = [InsertOp(event.alias, event.row)
               for event in stream[start:stop]]
        for i in range(0, len(ops), batch):
            self.service.apply_batch(ops[i:i + batch])

    def stop(self):
        self.server.stop()
        self.service.close()
        self._close()


def check_count_estimate(base):
    status, answer = post(base + "/query/QY/estimate", {"agg": "count"})
    assert status == 200
    assert answer["name"] == "QY"
    assert answer["total_results"] > 0
    lo, hi = answer["ci"]
    assert lo <= answer["value"] <= hi
    # an unfiltered COUNT on a uniform synopsis is exact: the CI covers J
    assert lo <= answer["total_results"] <= hi
    return answer


class TestCliServerAnswersAqp:
    def test_fresh_target(self):
        served = Served(serve_args())
        try:
            served.feed()
            answer = check_count_estimate(served.base)
            assert answer["total_results"] == \
                served.target.total_results("QY")
            listed = get(served.base + "/queries")
            assert [q["name"] for q in listed["queries"]] == ["QY"]
        finally:
            served.stop()

    def test_recovered_dir_target(self, tmp_path):
        args = serve_args("--dir", str(tmp_path / "state"))
        first = Served(args)
        try:
            first.feed()
            before = check_count_estimate(first.base)
        finally:
            first.stop()
        again = Served(args)       # same dir: recovered, not re-created
        try:
            assert again.target.recoveries == 1
            after = check_count_estimate(again.base)
            assert after["total_results"] == before["total_results"]
            assert after["value"] == before["value"]
        finally:
            again.stop()

    def test_writes_address_base_tables_and_unnamed_reads_work(self):
        served = Served(serve_args())
        try:
            unnamed = get(served.base + "/synopsis")
            assert unnamed["name"] == "QY"
            assert unnamed == get(served.base + "/synopsis?name=QY")
            # the workload's own stream, as the CLI addresses it
            _, _, stream = build_workload_manager(serve_args())
            event = stream[0]
            assert event.alias in served.target.db.table_names()
            status, body = post(
                served.base + "/insert",
                {"table": event.alias, "row": list(event.row)})
            assert status == 200 and body["tid"] >= 0
            assert body["epoch"] == get(served.base + "/synopsis")["epoch"]
            # a range-table alias is not a write address any more
            with pytest.raises(urllib.error.HTTPError) as err:
                post(served.base + "/insert",
                     {"table": "ss", "row": list(event.row)})
            assert 400 <= err.value.code < 500
        finally:
            served.stop()


class TestObservedDurableCliTarget:
    """``--quality`` and ``--slow-op-ms`` on ``serve --dir``: the
    service owns the monitor and the registry the threshold, so a
    target recovered after a restart is observed like a fresh one (at
    the parent it probed nothing and reported no engine stage)."""

    def serve(self, state, start, stop):
        args = serve_args("--dir", state, "--quality", "--slow-op-ms", "0")
        # the flag means QualityConfig(); 170 tiny ops need a denser one
        args.quality = QualityConfig(check_every=20, probes=16,
                                     min_results=1, min_samples=1)
        served = Served(args)
        try:
            served.feed(start, stop, batch=10)
            quality = get(served.base + "/healthz")["quality"]
            assert quality["flagged"] is False
            assert quality["probe_rounds"] >= (stop - start) // 20 - 1
            slow = get(served.base + "/events?kind=trace.slow_op")["events"]
            assert {"engine.insert_ns", "persist.wal.append_ns",
                    "service.ingest_batch_ns"} <= {
                        event["fields"]["op"] for event in slow}
            return served.target.recoveries
        finally:
            served.stop()

    def test_fresh_then_recovered_then_follower(self, tmp_path):
        state = str(tmp_path / "state")
        assert self.serve(state, 0, 100) == 0
        assert self.serve(state, 100, 170) == 1    # same dir: recovered
        WalShipper(state, str(tmp_path / "ship")).ship_once()
        follower = FollowerService(str(tmp_path / "ship"), quality=True)
        assert follower.quality is not None
        assert follower.healthz()["quality"]["flagged"] is False
        # the unnamed-read rule holds on the replica too
        assert follower.synopsis_payload()["name"] == "QY"
