"""CLI tests: argument parsing and end-to-end runs at tiny scale."""

import pytest

from repro.cli import (build_stack, main, make_parser, parse_scale,
                       parse_synopsis)
from repro.errors import ReproError


class TestParsing:
    def test_synopsis_specs(self):
        assert parse_synopsis("fixed:100").size == 100
        assert parse_synopsis("replacement:50").kind == "fixed_replacement"
        assert parse_synopsis("bernoulli:0.01").rate == 0.01

    def test_bad_synopsis(self):
        with pytest.raises(ReproError):
            parse_synopsis("fixed")
        with pytest.raises(ReproError):
            parse_synopsis("magic:3")

    def test_scales(self):
        assert parse_scale("tiny").store_sales < \
            parse_scale("bench").store_sales
        with pytest.raises(ReproError):
            parse_scale("huge")

    def test_parser_defaults(self):
        args = make_parser().parse_args(["stats"])
        assert args.query == "QY"
        assert args.algorithm == "sjoin-opt"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    @pytest.mark.parametrize("command", ["tpcds", "linear-road", "compare"])
    def test_figure_commands_are_gone(self, command, capsys):
        """16.0: the paper's figures are benchmarks/paper.py's record;
        ``stats`` runs one workload."""
        with pytest.raises(SystemExit) as exit_:
            make_parser().parse_args([command])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEndToEnd:
    def test_stats_pretty(self, capsys):
        code = main([
            "stats", "--query", "QY", "--scale", "tiny",
            "--synopsis", "fixed:20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.insert.graph_ns" in out
        assert "synopsis.accepts" in out

    def test_stats_json(self, capsys):
        import json

        code = main([
            "stats", "--query", "QY", "--scale", "tiny",
            "--synopsis", "fixed:20", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "sjoin-opt"
        metrics = payload["metrics"]
        # the per-phase insert-latency split must be populated
        assert metrics["engine.insert.graph_ns"]["count"] > 0
        assert metrics["engine.insert.sample_ns"]["count"] > 0
        assert metrics["synopsis.total_results"]["value"] > 0

    @pytest.mark.parametrize("workload", [
        ["--query", "QY", "--scale", "small", "--deletions"],
        ["--workload", "linear-road", "--d", "10", "--cars", "10",
         "--ticks", "4", "--algorithm", "sj"],
    ], ids=["tpcds-deletions", "linear-road"])
    def test_stats_plays_every_workload(self, workload, capsys):
        import json

        assert main(["stats", *workload, "--synopsis", "fixed:10",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operations"] > 0 and not payload["aborted"]
        if "--deletions" in workload:
            assert payload["metrics"]["engine.delete_ns"]["count"] > 0

    def test_stats_budget_stops_the_stream(self, capsys):
        import json

        assert main(["stats", "--query", "QY", "--scale", "tiny",
                     "--budget", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aborted"] and payload["operations"] == 0


TINY_QY = ["--query", "QY", "--scale", "tiny", "--synopsis", "fixed:20"]


@pytest.mark.parametrize("algorithm", ["sjoin-opt", "sjoin", "sj"])
class TestEngineCommandsOnEveryAlgorithm:
    """``stats`` / ``metrics`` drive one maintainer; every algorithm
    answers with the same output shape."""

    def test_stats_json_keys_and_insert_phase(self, algorithm, capsys):
        import json

        assert main(["stats", *TINY_QY, "--algorithm", algorithm,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"engine", "workload", "operations",
                                "elapsed_sec", "aborted", "metrics"}
        assert payload["engine"] == algorithm
        assert payload["workload"] == f"QY/{algorithm}"
        # SJ enumerates its delta join where SJoin propagates weights
        phase = ("engine.insert.enumerate_ns" if algorithm == "sj"
                 else "engine.insert.graph_ns")
        assert payload["metrics"][phase]["count"] > 0

    def test_metrics_exposition(self, algorithm, capsys):
        assert main(["metrics", *TINY_QY, "--algorithm", algorithm]) == 0
        assert "# TYPE repro_engine_insert_ns histogram" in \
            capsys.readouterr().out

    def test_stats_explain_prints_the_plan(self, algorithm, capsys):
        assert main(["stats", *TINY_QY, "--algorithm", algorithm,
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("plan for: SELECT")
        assert "plan nodes" in out and f"QY/{algorithm}" in out


class TestServe:
    def test_parser_defaults(self):
        args = make_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080 and args.overflow_policy == "block"
        assert args.preload is True and args.dir is None

    def test_build_serve_target_fresh(self):
        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20"])
        service, stream, close = build_stack(args)
        try:
            target = service.target
            # the workload's query, registered under its name
            assert target.names() == ["QY"]
            assert target.total_results("QY") >= 0
            assert target.stats().queries["QY"].algorithm == "sjoin-opt"
            # the rest of the workload, addressed by base table
            assert stream and {e.alias for e in stream} <= set(
                target.db.table_names())
        finally:
            close()

    def test_build_serve_target_durable_roundtrip(self, tmp_path):
        directory = str(tmp_path / "state")
        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20",
             "--dir", directory])
        service, _, close = build_stack(args)
        total = service.total_results("QY")
        service.checkpoint()
        close()
        # second build over the same dir must recover, not re-create
        service2, stream, close2 = build_stack(args)
        try:
            assert service2.target.recoveries == 1
            assert service2.total_results("QY") == total
            assert stream == []
        finally:
            close2()

    def test_serve_http_loop(self, tmp_path):
        """End-to-end: the serve wiring answers HTTP during ingest."""
        import json as jsonlib
        import urllib.request

        from repro.service import ServiceHTTPServer

        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20",
             "--port", "0"])
        service, _, close = build_stack(args)
        server = ServiceHTTPServer(service, host=args.host,
                                   port=args.port).start()
        try:
            host, port = server.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10) as resp:
                assert jsonlib.loads(resp.read())["status"] == "ok"
        finally:
            server.stop()
            close()


class TestCheckpointRestore:
    def test_round_trip_json(self, tmp_path, capsys):
        """``repro checkpoint`` -> ``repro restore --json`` (the CI
        recovery job's assertions, against the manager-backed CLI)."""
        import json

        directory = str(tmp_path / "ckpt")
        assert main(["checkpoint", "--dir", directory, "--query", "QY",
                     "--scale", "tiny", "--events", "300",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "checkpointed QY/sjoin-opt" in out and "query QY" in out
        assert main(["restore", "--dir", directory, "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert "index_backend" not in body
        assert body["algorithm"] == "sjoin-opt"
        assert body["persist"]["recoveries"] == 1
        assert body["persist"]["replay_failures"] == 0
        # restart is slow: is it the snapshot or the tail?
        assert body["persist"]["recovery_restore_s"] > 0
        assert body["persist"]["recovery_replay_s"] >= 0
        assert body["persist"]["replay_batches"] == 0  # checkpointed last
        assert list(body["queries"]) == ["QY"]
        assert body["total_results"] == \
            body["queries"]["QY"]["total_results"] > 0
        assert main(["restore", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "algorithm          sjoin-opt" in out
        for key in ("recovery_restore_s", "recovery_replay_s",
                    "replay_batches"):
            assert f"  {key} " in out


class TestObservabilityCli:
    def test_events_parser(self):
        args = make_parser().parse_args(
            ["events", "--url", "http://h:1", "--kind", "quality"])
        assert args.command == "events"
        assert args.url == "http://h:1"
        assert args.kind == "quality"

    def test_lag_parser(self):
        args = make_parser().parse_args(
            ["lag", "--ship", "/mnt/ship", "--json"])
        assert args.command == "lag"
        assert args.ship == "/mnt/ship"
        assert args.json

    def test_query_audit_parser(self):
        args = make_parser().parse_args(
            ["query", "audit", "q1", "--limit", "5"])
        assert args.action == "audit"
        assert args.name == "q1"
        assert args.limit == 5

    def test_format_lag_follower_body(self):
        from repro.cli import format_lag

        text = format_lag({
            "role": "follower", "status": "ok",
            "applied_lsn": 40, "acked_lsn": 44, "epoch_lag": 4,
            "staleness_seconds": 1.25,
            "lag_ms": 2500.0, "lag_samples": 40,
            "stalled": True, "stalls": 2,
        })
        assert "role follower" in text
        assert "applied_lsn 40  acked_lsn 44  epoch_lag 4" in text
        assert "staleness 1.250s" in text
        assert "record lag 2500.0ms (last of 40 samples)" in text
        assert "STALLED" in text and "transitions: 2" in text

    def test_format_lag_manifest_watermarks(self):
        from repro.cli import format_lag

        text = format_lag({
            "role": "leader", "status": "shipped", "acked_lsn": 9,
            "watermarks": [
                {"lsn": 5, "shipped_at": 1.0, "appended_at": 1.0},
                {"lsn": 9, "shipped_at": 2.5, "appended_at": 2.0},
            ],
        })
        assert "role leader" in text
        assert "watermarks 2  newest lsn 9  publish delay 500.0ms" in text

    def test_cmd_lag_ship_reads_manifest(self, tmp_path, capsys):
        from repro.replicate import DirectoryTransport
        from repro.replicate.transport import MANIFEST_VERSION

        DirectoryTransport(str(tmp_path)).publish_manifest({
            "version": MANIFEST_VERSION, "ship_seq": 3,
            "shipped_at": 10.0, "acked_lsn": 7,
            "snapshot": None, "segments": [],
            "watermarks": [
                {"lsn": 7, "shipped_at": 10.0, "appended_at": 10.0}],
        })
        assert main(["lag", "--ship", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "acked_lsn 7" in out
        assert "watermarks 1" in out

    def test_cmd_lag_ship_empty_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing shipped"):
            main(["lag", "--ship", str(tmp_path / "empty")])

    def test_error_replies_render_or_exit_per_command(self, tmp_path,
                                                      capsys):
        """One HTTP helper, two policies: ``top`` and ``lag`` render a
        4xx/5xx body (a bootstrapping replica answers ``/healthz`` 503
        and ``/stats`` 409), ``query`` and ``events`` exit nonzero with
        the body and its ``http_status``."""
        import json

        from repro.replicate import FollowerService
        from repro.service import ServiceHTTPServer

        replica = FollowerService(str(tmp_path / "nothing-shipped"))
        with ServiceHTTPServer(replica, port=0) as server:
            host, port = server.address
            base = f"http://{host}:{port}"
            assert main(["lag", "--url", base]) == 0
            assert "role follower  status bootstrapping" in \
                capsys.readouterr().out
            assert main(["top", "--url", base, "--iterations", "1"]) == 0
            assert "status bootstrapping" in capsys.readouterr().out
            with pytest.raises(SystemExit) as exited:
                main(["query", "audit", "ghost", "--url", base])
            body = json.loads(str(exited.value))
            assert body["http_status"] == 404 and "ghost" in body["error"]
            assert main(["events", "--url", base]) == 0
            assert json.loads(capsys.readouterr().out)["events"] == []
