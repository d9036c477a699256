"""Structure-memory accounting (Table 2's deep size)."""

from repro import (
    Column,
    Database,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisSpec,
    TableSchema,
)
from repro.bench.memory import deep_size_bytes, engine_memory_bytes


def tiny_maintainer(engine="sjoin"):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("b")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    return JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(
            spec=SynopsisSpec.fixed_size(5), engine=engine, seed=0))


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
