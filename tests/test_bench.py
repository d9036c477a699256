"""Benchmark-harness tests: throughput runs, memory accounting, reports."""

from repro import (
    Column,
    Database,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisSpec,
    TableSchema,
)
from repro.bench.harness import run_stream
from repro.bench.memory import deep_size_bytes, engine_memory_bytes
from repro.bench.reporting import (
    format_ratio,
    format_series,
    format_table,
    human_bytes,
    throughput_series,
)
from repro.datagen.workload import DeleteOldest, Insert


def tiny_maintainer(engine="sjoin"):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("b")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    return JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(
            spec=SynopsisSpec.fixed_size(5), engine=engine, seed=0))


def tiny_events(n=60):
    events = []
    for i in range(n):
        events.append(Insert("r", (i % 4, i)))
        events.append(Insert("s", (i % 4, i)))
        if i % 10 == 9:
            events.append(DeleteOldest("r", 2))
    return events


class TestRunStream:
    def test_run_completes_and_checkpoints(self):
        maintainer = tiny_maintainer()
        run = run_stream(maintainer, tiny_events(), workload="tiny",
                         checkpoint_every=20)
        assert not run.aborted
        assert run.operations == run.planned_operations
        assert run.checkpoints
        assert run.average_throughput > 0
        first = run.checkpoints[0]
        assert first.instant_throughput > 0
        assert first.total_results is not None
        assert 0 < first.progress <= 1

    def test_time_budget_aborts(self):
        maintainer = tiny_maintainer()
        run = run_stream(maintainer, tiny_events(500), workload="tiny",
                         checkpoint_every=10, time_budget=0.0)
        assert run.aborted
        assert run.operations < run.planned_operations

    def test_synopsis_requests_simulated(self):
        maintainer = tiny_maintainer()
        run = run_stream(maintainer, tiny_events(), checkpoint_every=50,
                         synopsis_every=25)
        assert run.operations > 0

    def test_summary_readable(self):
        maintainer = tiny_maintainer()
        run = run_stream(maintainer, tiny_events(), workload="tiny")
        line = run.summary()
        assert "tiny" in line and "ops" in line


class TestMemory:
    def test_deep_size_counts_shared_once(self):
        shared = list(range(100))
        a = {"x": shared}
        b = {"y": shared}
        both = deep_size_bytes(a, b)
        assert both < deep_size_bytes(a) + deep_size_bytes(b)

    def test_deep_size_handles_slots(self):
        from repro.graph.vertex import Vertex
        v = Vertex(0, (1, 2), 2)
        v.ids.extend(range(10))
        assert deep_size_bytes(v) > 0

    def test_engine_memory_grows_with_data(self):
        maintainer = tiny_maintainer()
        empty = engine_memory_bytes(maintainer.engine)
        for i in range(200):
            maintainer.insert("r", (i % 10, i))
            maintainer.insert("s", (i % 10, i))
        assert engine_memory_bytes(maintainer.engine) > empty

    def test_sj_memory_measured_too(self):
        maintainer = tiny_maintainer(engine="sj")
        for i in range(50):
            maintainer.insert("r", (i % 5, i))
        assert engine_memory_bytes(maintainer.engine) > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ("name", "value"), [("a", 1), ("longer", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_format_series(self):
        text = format_series("fig", [0.0, 50.0], [100.0, 90.0])
        assert "fig" in text and "50.0" in text

    def test_format_ratio(self):
        assert format_ratio("x", 10, 2) == "x: 5.0x"
        assert "inf" in format_ratio("x", 10, 0)

    def test_human_bytes(self):
        assert human_bytes(512) == "512.0 B"
        assert human_bytes(2048) == "2.0 KB"
        assert human_bytes(3 * 1024**3) == "3.0 GB"

    def test_throughput_series_extraction(self):
        maintainer = tiny_maintainer()
        run = run_stream(maintainer, tiny_events(), checkpoint_every=20)
        series = throughput_series(run)
        assert len(series["progress"]) == len(series["throughput"])
        assert series["progress"] == sorted(series["progress"])
