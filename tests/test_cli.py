"""CLI tests: argument parsing and end-to-end runs at tiny scale."""

import pytest

from repro.cli import (build_serve_target, main, make_parser,
                       parse_scale, parse_synopsis)
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
        args = make_parser().parse_args(["tpcds"])
        assert args.query == "QY"
        assert args.algorithm == "sjoin-opt"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])


class TestEndToEnd:
    def test_tpcds_run(self, capsys):
        code = main([
            "tpcds", "--query", "QX", "--scale", "tiny",
            "--synopsis", "fixed:20", "--checkpoint", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "QX/sjoin-opt" in out
        assert "ops" in out

    def test_tpcds_with_deletions(self, capsys):
        code = main([
            "tpcds", "--query", "QY", "--scale", "tiny", "--deletions",
            "--synopsis", "fixed:10", "--checkpoint", "100",
        ])
        assert code == 0
        assert "QY/sjoin-opt" in capsys.readouterr().out

    def test_linear_road_run(self, capsys):
        code = main([
            "linear-road", "--d", "10", "--cars", "10", "--ticks", "4",
            "--algorithm", "sj", "--checkpoint", "50",
        ])
        assert code == 0
        assert "QB(d=10)/sj" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main([
            "compare", "--workload", "linear-road", "--d", "10",
            "--cars", "8", "--ticks", "4", "--checkpoint", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for algo in ("sjoin-opt", "sjoin", "sj"):
            assert algo in out

    def test_stats_pretty(self, capsys):
        code = main([
            "stats", "--query", "QY", "--scale", "tiny",
            "--synopsis", "fixed:20", "--checkpoint", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.insert.graph_ns" in out
        assert "synopsis.accepts" in out

    def test_stats_json(self, capsys):
        import json

        code = main([
            "stats", "--query", "QY", "--scale", "tiny",
            "--synopsis", "fixed:20", "--checkpoint", "100", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "sjoin-opt"
        metrics = payload["metrics"]
        # the per-phase insert-latency split must be populated
        assert metrics["engine.insert.graph_ns"]["count"] > 0
        assert metrics["engine.insert.sample_ns"]["count"] > 0
        assert metrics["synopsis.total_results"]["value"] > 0


class TestServe:
    def test_parser_defaults(self):
        args = make_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080 and args.overflow_policy == "block"
        assert args.preload is True and args.dir is None

    def test_build_serve_target_fresh(self):
        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20"])
        target, close = build_serve_target(args)
        try:
            # the workload's query, registered under its name
            assert target.names() == ["QY"]
            assert target.total_results("QY") >= 0
            assert target.stats().queries["QY"].algorithm == "sjoin-opt"
        finally:
            close()

    def test_build_serve_target_durable_roundtrip(self, tmp_path):
        directory = str(tmp_path / "state")
        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20",
             "--dir", directory])
        target, close = build_serve_target(args)
        total = target.total_results("QY")
        target.checkpoint()
        close()
        # second build over the same dir must recover, not re-create
        target2, close2 = build_serve_target(args)
        try:
            assert target2.recoveries == 1
            assert target2.total_results("QY") == total
        finally:
            close2()

    def test_serve_http_loop(self, tmp_path):
        """End-to-end: the serve wiring answers HTTP during ingest."""
        import json as jsonlib
        import urllib.request

        from repro.service import (ServiceConfig, ServiceHTTPServer,
                                   SynopsisService)

        args = make_parser().parse_args(
            ["serve", "--scale", "tiny", "--synopsis", "fixed:20",
             "--port", "0"])
        target, close = build_serve_target(args)
        service = SynopsisService(target, ServiceConfig())
        server = ServiceHTTPServer(service, host=args.host,
                                   port=args.port).start()
        try:
            host, port = server.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10) as resp:
                assert jsonlib.loads(resp.read())["status"] == "ok"
        finally:
            server.stop()
            service.close()
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
