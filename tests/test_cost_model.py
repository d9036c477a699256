"""Cost-model checks (§4.4, §6): the work counters should reflect the
paper's analysis — SJoin touches vertices, SJ touches partial join
results, and on many-to-many data the former is far smaller.
"""

import random

from repro import (
    Column,
    Database,
    SJoinEngine,
    SymmetricJoinEngine,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import engine_insert


def duplicate_heavy_db():
    """Few distinct join values, many tuples per value: the many-to-many
    regime where vertex consolidation pays (§6 insertion-cost analysis)."""
    db = Database()
    for name in ("r", "s", "t"):
        db.create_table(TableSchema(name, [Column("a"), Column("b")]))
    return db


SQL = "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"


def test_sjoin_visits_far_fewer_vertices_than_sj_touches_tuples():
    rng = random.Random(1)
    db1 = duplicate_heavy_db()
    db2 = duplicate_heavy_db()
    q1 = parse_query(SQL, db1)
    q2 = parse_query(SQL, db2)
    sjoin = SJoinEngine(db1, q1, SynopsisSpec.fixed_size(5), seed=0)
    sj = SymmetricJoinEngine(db2, q2, SynopsisSpec.fixed_size(5), seed=0)
    # 2 distinct values of a / b -> huge fanout per vertex
    rows = [(rng.randrange(2), rng.randrange(2)) for _ in range(120)]
    for alias in ("r", "s", "t"):
        for row in rows:
            engine_insert(sjoin, alias, row)
            engine_insert(sj, alias, row)
    assert sjoin.total_results() == sj.total_results() > 10_000
    vertices = sjoin.graph.stats.vertices_visited
    tuples = sj.stats.tuples_accessed
    # §6: visited vertices ~ d1 d2 / (m1 m2); here m ~ 30-60 per vertex
    assert vertices * 20 < tuples, (vertices, tuples)


def test_sjoin_vertex_work_scales_with_distinct_values_not_tuples():
    """Doubling duplicates (same distinct values) must not double SJoin's
    per-insert vertex work."""
    def run(copies):
        db = duplicate_heavy_db()
        q = parse_query(SQL, db)
        engine = SJoinEngine(db, q, SynopsisSpec.fixed_size(5), seed=0)
        rng = random.Random(2)
        rows = [(rng.randrange(3), rng.randrange(3)) for _ in range(30)]
        for alias in ("r", "s", "t"):
            for row in rows * copies:
                engine_insert(engine, alias, row)
        inserts = engine.stats.inserts
        return engine.graph.stats.vertices_visited / inserts

    light = run(1)
    heavy = run(4)
    # 4x the tuples, same 9 possible vertices per table: per-insert vertex
    # visits stay flat (within noise)
    assert heavy < 2 * light


def test_sj_tuple_work_scales_with_join_fanout():
    """SJ's per-insert work is the delta-join size: double the matching
    tuples, roughly double (or more) the accesses per insert."""
    def run(n):
        db = Database()
        for name in ("r", "s"):
            db.create_table(TableSchema(name, [Column("a")]))
        q = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
        engine = SymmetricJoinEngine(db, q, SynopsisSpec.fixed_size(5),
                                     seed=0)
        for i in range(n):
            engine_insert(engine, "s", (1,))
        before = engine.stats.tuples_accessed
        engine_insert(engine, "r", (1,))
        return engine.stats.tuples_accessed - before

    assert run(40) == 40
    assert run(80) == 80
