"""SQL's NULL rule: a NULL never satisfies a predicate — nor a NaN.

A schema-valid NULL in a filter or join column used to reach a
comparison (``None <= 10``, ``None < 3`` inside the AVL, a range bound)
*after* the heap insert and after the WAL record: an untyped
``TypeError``, a heap row no engine held, and a durable directory no
later start could recover.  Now such a row is stored, rejected by the
engine like any pre-filtered row, and never joined — by the engines and
by the oracle alike.  A NaN in a FLOAT join column follows the same
rule: it equals nothing, itself included, and used to break the
aggregate tree's order silently.  So does a float infinity in a column a
band or inequality predicate reads: no range bound exists for it, and
computing one raised an untyped ``OverflowError`` after the WAL record.
"""

import os
import pickle
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    JoinQuery,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.catalog.schema import DataType
from repro.errors import PersistError
from repro.persist import (
    STATE_VERSION,
    PersistentManager,
    SnapshotStore,
    WriteAheadLog,
)
from repro.persist.runtime import encode_ops
from repro.persist.wal import list_segments, scan_frames
from repro.query.executor import JoinExecutor
from repro.query.planner import plan_query
from repro.query.predicates import MultiTableFilter

from conftest import random_query
from test_batch_differential import state_of

ENGINES = ("sjoin-opt", "sjoin", "sj")
PARENT_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "null_wal_parent")
INF_PARENT_DIR = os.path.join(os.path.dirname(__file__), "golden",
                              "inf_wal_parent")


def nullable_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a", nullable=True),
                                      Column("x", nullable=True)]))
    db.create_table(TableSchema("s", [Column("a", nullable=True),
                                      Column("y", nullable=True)]))
    return db


def config(engine="sjoin-opt"):
    return MaintainerConfig(spec=SynopsisSpec.fixed_size(50),
                            engine=engine, seed=3)


FILTER_SQL = "SELECT * FROM r, s WHERE r.a = s.a AND r.x <= 10"


def test_the_reproduction_a_null_in_a_filter_column_behind_a_wal(tmp_path):
    pm = PersistentManager(SynopsisManager(nullable_db()), str(tmp_path),
                           sync="batch")
    pm.register("q", FILTER_SQL, config())
    assert pm.apply_batch([InsertOp("s", (1, None)),
                           InsertOp("s", (1, 4))]).tids == (0, 1)
    # at the parent: TypeError, no ops_applied, the record already logged
    result = pm.apply_batch([InsertOp("r", (1, None)),
                             InsertOp("r", (1, 7))])
    assert result.tids == (0, 1)            # stored by the manager ...
    assert pm.total_results("q") == 2       # ... but only (1, 7) joins
    assert sorted(pm.synopsis("q")) == [(1, 0), (1, 1)]
    assert pm.maintainer("q").engine.stats.filtered_inserts == 1
    # a delete skips the row through the same check
    pm.apply_batch([DeleteOp("r", 0)])
    assert pm.total_results("q") == 2
    live = state_of(pm.maintainer("q"))
    pm.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert state_of(recovered.maintainer("q")) == live
    recovered.close()


def as_this_release(fixture, directory):
    """Copy a state directory an earlier release wrote and bring it to
    this release's format without changing what it holds: its snapshot
    is an empty manager state (versions 3 and 4 differ only in what a
    combined node keeps), relabelled; its WAL records, the point here,
    keep their content, re-encoded as plain values — read with
    ``pickle.loads`` because the fixture is trusted, then written
    through the log's own codec."""
    shutil.copytree(fixture, directory)
    store = SnapshotStore(os.path.join(directory, "snapshots"))
    payload, header = store.load_latest()
    assert payload["manager"]["queries"] == [] and header["wal_lsn"] == 0
    payload["database"]["version"] = STATE_VERSION
    payload["manager"]["version"] = STATE_VERSION
    store.write(payload, wal_lsn=header["wal_lsn"])
    wal_dir = os.path.join(directory, "wal")
    [(start, path)] = list_segments(wal_dir)
    assert start == 0
    with open(path, "rb") as fh:
        records = [pickle.loads(payload)
                   for payload in scan_frames(fh.read())[0]]
    os.remove(path)
    wal = WriteAheadLog(wal_dir)
    for entry in records:
        wal.append(("apply", encode_ops(entry[1]))
                   if entry[0] == "apply" else entry)
    wal.close()


@pytest.mark.parametrize("fixture, version",
                         [(PARENT_DIR, 3), (INF_PARENT_DIR, 4)])
def test_a_directory_an_earlier_release_wrote_is_refused_typed(
        tmp_path, fixture, version):
    directory = str(tmp_path / "state")
    shutil.copytree(fixture, directory)
    with pytest.raises(PersistError,
                       match=f"version {version} 'manager' state.*only "
                             f"version {STATE_VERSION}"):
        PersistentManager.recover(directory)


def test_a_wal_written_by_the_parent_with_such_a_record_recovers(tmp_path):
    """``golden/null_wal_parent`` is the directory the script above left
    behind at the parent commit (the apply record of ``r(1, NULL)``,
    ``r(1, 7)`` logged, then the ``TypeError``): every later start
    raised again."""
    directory = str(tmp_path / "state")
    as_this_release(PARENT_DIR, directory)
    recovered = PersistentManager.recover(directory)
    assert recovered.total_results("q") == 2
    assert sorted(recovered.synopsis("q")) == [(1, 0), (1, 1)]
    assert [tid for tid, _ in recovered.db.table("r").scan()] == [0, 1]
    recovered.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql", [
    "SELECT * FROM r, s WHERE r.a = s.a",       # a '<' inside the AVL
    "SELECT * FROM r, s WHERE r.a <= s.a",      # a range bound
    FILTER_SQL,
])
def test_a_null_is_stored_and_never_joined(engine, sql):
    db = nullable_db()
    manager = SynopsisManager(db)
    maintainer = manager.register("q", sql, config(engine))
    rows = {"r": [(None, 1), (1, None), (2, 3), (None, None)],
            "s": [(1, 5), (None, 5), (2, None), (3, 1)]}
    ops = [InsertOp(alias, row) for alias in rows for row in rows[alias]]
    assert manager.apply_batch(ops).tids == (0, 1, 2, 3) * 2
    routes = maintainer.engine.plan.routes
    rejected = sum(not routes[op.target].passes(op.row) for op in ops)
    assert maintainer.engine.stats.filtered_inserts == rejected >= 3
    exact = JoinExecutor(db, maintainer.query).results()
    assert maintainer.total_results() == len(exact) > 0
    assert sorted(maintainer.synopsis()) == sorted(exact)
    # the bare maintainer never stores what its pre-filter rejects
    bare = JoinSynopsisMaintainer(nullable_db(), sql, config(engine))
    assert bare.apply_batch(ops).rejected == rejected
    assert bare.total_results() == len(exact)


def test_null_equals_null_is_no_match_for_the_oracle():
    db = nullable_db()
    db.insert("r", (None, 1))
    db.insert("s", (None, 1))
    db.insert("r", (4, 1))
    db.insert("s", (4, None))
    query = JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a", config()).query
    assert JoinExecutor(db, query).results() == [(1, 1)]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_null_satisfies_no_residual_filter_either(engine):
    """A user-defined multi-table predicate is read-time filtering: the
    row joins on the tree predicates, and ``None < y`` is never asked."""
    db = nullable_db()
    parsed = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
    query = JoinQuery(parsed.range_tables, parsed.join_predicates,
                      multi_filters=[MultiTableFilter(
                          inputs=(("r", "x"), ("s", "y")),
                          predicate=lambda x, y: x < y)])
    maintainer = JoinSynopsisMaintainer(db, query, config(engine))
    for alias, row in [("r", (1, None)), ("r", (1, 2)), ("s", (1, 5)),
                       ("s", (1, None))]:
        assert maintainer.insert(alias, row) != -1
    assert maintainer.total_results() == 4      # the tree join
    assert maintainer.synopsis() == JoinExecutor(db, query).results() \
        == [(1, 0)]


def fk_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band", nullable=True)],
        primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim", nullable=True), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band")]))
    return db


FK_SQL = ("SELECT * FROM fact, dim, other "
          "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")


@pytest.mark.parametrize("engine", ENGINES)
def test_a_null_fk_is_a_silent_non_join_not_an_integrity_error(engine):
    db = fk_db()
    manager = SynopsisManager(db)
    maintainer = manager.register("q", FK_SQL, config(engine))
    ops = [InsertOp("other", (1,)), InsertOp("dim", (7, 1)),
           InsertOp("dim", (8, None)),      # a member the NULL rule drops
           InsertOp("fact", (7, 1)),
           InsertOp("fact", (None, 2)),     # NULL FK on the anchor
           InsertOp("fact", (8, 3))]        # its parent never joined
    assert manager.apply_batch(ops).tids == (0, 0, 1, 0, 1, 2)
    assert maintainer.total_results() == 1
    assert maintainer.synopsis() == JoinExecutor(
        db, maintainer.query).results()
    # and all of it can be deleted again, in any engine
    manager.apply_batch([DeleteOp("fact", 1), DeleteOp("fact", 2),
                         DeleteOp("dim", 1), DeleteOp("fact", 0)])
    assert maintainer.total_results() == 0


def test_tables_without_nullable_columns_compile_no_null_check():
    db, query = random_query(random.Random(5), 3)
    plan = plan_query(query, db)
    assert all(route.prefilter == () for route in plan.routes.values())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_rows_with_nulls_agree_with_the_oracle(seed, data):
    """``conftest.random_query`` shapes with every column nullable and a
    ``None`` drawn into any position, all three engines against the
    brute-force executor."""
    rng = random.Random(seed)
    plain, query = random_query(rng, 1 + rng.randrange(3))
    rows = []
    for alias in query.aliases:
        ncols = len(plain.table(alias).schema.columns)
        for _ in range(data.draw(st.integers(1, 6))):
            rows.append((alias, tuple(
                data.draw(st.one_of(st.none(), st.integers(0, 3)))
                for _ in range(ncols))))
    rng.shuffle(rows)
    ops = [InsertOp(alias, row) for alias, row in rows]
    for engine in ENGINES:
        db = Database()
        for alias in query.aliases:
            db.create_table(TableSchema(alias, [
                Column(col.name, nullable=True)
                for col in plain.table(alias).schema.columns]))
        manager = SynopsisManager(db)
        maintainer = manager.register("q", query, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10_000), engine=engine, seed=1))
        tids = manager.apply_batch(ops).tids
        exact = sorted(JoinExecutor(db, query).results())
        assert maintainer.total_results() == len(exact)
        assert sorted(maintainer.synopsis()) == exact
        # every row was stored, and deleting them all empties the join
        manager.apply_batch([DeleteOp(op.target, tid)
                             for op, tid in zip(ops, tids)])
        assert maintainer.total_results() == 0


# ----------------------------------------------------------------------
# NaN: the one FLOAT value unequal to itself joins nothing, like NULL
# ----------------------------------------------------------------------
NAN = float("nan")


def float_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a", DataType.FLOAT),
                                      Column("x")]))
    db.create_table(TableSchema("s", [Column("a", DataType.FLOAT),
                                      Column("y")]))
    return db


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql", [
    "SELECT * FROM r, s WHERE r.a = s.a",           # the hash step
    "SELECT * FROM r, s WHERE |r.a - s.a| <= 1",    # a band edge
    "SELECT * FROM r, s WHERE r.a = s.a AND r.x = s.y",
])
def test_a_nan_is_stored_and_never_joined(engine, sql):
    """At 10.0 ``r.a = s.a`` over {nan, 1.0, 0.5} on both sides reported
    J = 5 against the true 2 and sampled ``(nan, 0.5)`` pairs: a NaN
    broke the aggregate tree's order.  Now it is pre-filtered."""
    db = float_db()
    manager = SynopsisManager(db)
    maintainer = manager.register("q", sql, config(engine))
    ops = [InsertOp(alias, (value, 0)) for value in (NAN, 1.0, 0.5)
           for alias in ("r", "s")]
    assert manager.apply_batch(ops).tids == (0, 0, 1, 1, 2, 2)
    assert maintainer.engine.stats.filtered_inserts == 2
    exact = sorted(JoinExecutor(db, maintainer.query).results())
    assert maintainer.total_results() == len(exact) > 0
    assert sorted(maintainer.synopsis()) == exact
    if engine != "sj":
        maintainer.engine.graph.check_invariants()
    # deleting every row, the NaN ones included, empties the join
    manager.apply_batch([DeleteOp(alias, tid) for tid in range(3)
                         for alias in ("r", "s")])
    assert maintainer.total_results() == 0


def float_fk_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id", DataType.FLOAT), Column("band")],
        primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim", DataType.FLOAT), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band")]))
    return db


@pytest.mark.parametrize("engine", ENGINES)
def test_a_nan_fk_or_pk_is_a_silent_non_join(engine):
    """A NaN FK on an anchor and a NaN PK on a member: neither raises
    an IntegrityError, neither joins, both delete cleanly."""
    db = float_fk_db()
    manager = SynopsisManager(db)
    maintainer = manager.register("q", FK_SQL, config(engine))
    ops = [InsertOp("other", (1,)), InsertOp("dim", (7.0, 1)),
           InsertOp("dim", (NAN, 1)),       # a member the rule drops
           InsertOp("fact", (7.0, 1)),
           InsertOp("fact", (NAN, 2)),      # NaN FK on the anchor
           InsertOp("fact", (7.0, 3))]
    assert manager.apply_batch(ops).tids == (0, 0, 1, 0, 1, 2)
    assert maintainer.engine.stats.filtered_inserts == 2
    exact = sorted(JoinExecutor(db, maintainer.query).results())
    assert maintainer.total_results() == len(exact) == 2
    assert sorted(maintainer.synopsis()) == exact
    manager.apply_batch([DeleteOp("fact", 1), DeleteOp("dim", 1),
                         DeleteOp("fact", 0), DeleteOp("fact", 2)])
    assert maintainer.total_results() == 0


def test_only_float_join_columns_compile_a_nan_check():
    """INT join columns (every paper workload) and FLOAT columns no
    predicate joins on compile nothing new."""
    db = Database()
    db.create_table(TableSchema("r", [Column("a", DataType.FLOAT),
                                      Column("k"),
                                      Column("f", DataType.FLOAT)]))
    db.create_table(TableSchema("s", [Column("a", DataType.FLOAT),
                                      Column("k")]))
    plan = plan_query(parse_query(
        "SELECT * FROM r, s WHERE r.a = s.a AND r.k = s.k", db), db)
    assert [pos for pos, _ in plan.routes["r"].prefilter] == [0]
    assert [pos for pos, _ in plan.routes["s"].prefilter] == [0]
    test = plan.routes["r"].prefilter[0][1]
    assert [test(v) for v in (NAN, None, 0.5, 1, INF, -INF)] == [
        False, False, True, True, True, True]
    plan = plan_query(parse_query(
        "SELECT * FROM r, s WHERE r.k = s.k", db), db)
    assert all(route.prefilter == () for route in plan.routes.values())
    # a band edge: its FLOAT column refuses infinities too
    plan = plan_query(parse_query(
        "SELECT * FROM r, s WHERE |r.a - s.a| <= 1 AND r.k = s.k", db), db)
    assert [pos for pos, _ in plan.routes["r"].prefilter] == [0]
    test = plan.routes["r"].prefilter[0][1]
    assert [test(v) for v in (NAN, None, 0.5, 1, INF, -INF)] == [
        False, False, True, True, False, False]


# ----------------------------------------------------------------------
# infinity: no range bound exists for it, so a range column refuses it
# ----------------------------------------------------------------------
INF = float("inf")
RANGE_SQL = [
    "SELECT * FROM r, s WHERE |r.a - s.a| <= 1",    # a band edge
    "SELECT * FROM r, s WHERE r.a <= s.a + 1",      # an offset bound
    "SELECT * FROM r, s WHERE r.a < s.a",           # an open bound
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql", RANGE_SQL)
def test_an_infinity_in_a_range_column_is_stored_and_never_joined(engine,
                                                                   sql):
    """At 11.0 ``r.a = inf`` raised ``OverflowError: cannot convert
    Infinity to integer ratio`` from the range bound on every engine."""
    db = float_db()
    manager = SynopsisManager(db)
    maintainer = manager.register("q", sql, config(engine))
    ops = [InsertOp(alias, (value, 0)) for value in (INF, 1.0, -INF, 0.5)
           for alias in ("r", "s")]
    assert manager.apply_batch(ops).tids == (0, 0, 1, 1, 2, 2, 3, 3)
    assert maintainer.engine.stats.filtered_inserts == 4
    exact = sorted(JoinExecutor(db, maintainer.query).results())
    assert maintainer.total_results() == len(exact) > 0
    assert all(tid in (1, 3) for result in exact for tid in result)
    assert sorted(maintainer.synopsis()) == exact
    if engine != "sj":
        maintainer.engine.graph.check_invariants()
    manager.apply_batch([DeleteOp(alias, tid) for tid in range(4)
                         for alias in ("r", "s")])
    assert maintainer.total_results() == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_an_infinity_on_a_plain_equality_column_still_joins(engine):
    """``inf = inf`` is true: the hash step, the tree and the oracle
    agree, so an equality-only column keeps its infinities."""
    db = float_db()
    manager = SynopsisManager(db)
    maintainer = manager.register(
        "q", "SELECT * FROM r, s WHERE r.a = s.a", config(engine))
    manager.apply_batch([InsertOp(alias, (value, 0))
                         for value in (INF, INF, 1.0, -INF)
                         for alias in ("r", "s")])
    assert maintainer.engine.stats.filtered_inserts == 0
    exact = sorted(JoinExecutor(db, maintainer.query).results())
    assert maintainer.total_results() == len(exact) == 6
    assert sorted(maintainer.synopsis()) == exact


def test_an_infinity_behind_a_wal_recovers(tmp_path):
    """At 11.0 the row reached the heap and the WAL, then the range
    bound raised; every later ``recover`` raised the same error."""
    pm = PersistentManager(SynopsisManager(float_db()), str(tmp_path),
                           sync="batch")
    pm.register("q", RANGE_SQL[0], config())
    pm.apply_batch([InsertOp("s", (1.0, 0))])
    assert pm.apply_batch([InsertOp("r", (INF, 0)),
                           InsertOp("r", (1.5, 1))]).tids == (0, 1)
    assert pm.total_results("q") == 1
    live = state_of(pm.maintainer("q"))
    pm.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert state_of(recovered.maintainer("q")) == live
    recovered.close()


def test_a_wal_written_by_the_parent_with_an_infinity_recovers(tmp_path):
    """``golden/inf_wal_parent`` is the directory the script above left
    behind at 11.0 (the apply record of ``r(inf, 0)``, ``r(1.5, 1)``
    logged, then the ``OverflowError``): every later start raised."""
    directory = str(tmp_path / "state")
    as_this_release(INF_PARENT_DIR, directory)
    recovered = PersistentManager.recover(directory)
    assert recovered.total_results("q") == 1
    assert sorted(recovered.synopsis("q")) == [(1, 0)]
    assert [tid for tid, _ in recovered.db.table("r").scan()] == [0, 1]
    recovered.close()
