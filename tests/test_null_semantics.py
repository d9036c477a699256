"""SQL's NULL rule: a NULL never satisfies a predicate.

A schema-valid NULL in a filter or join column used to reach a
comparison (``None <= 10``, ``None < 3`` inside the AVL, a range bound)
*after* the heap insert and after the WAL record: an untyped
``TypeError``, a heap row no engine held, and a durable directory no
later start could recover.  Now such a row is stored, rejected by the
engine like any pre-filtered row, and never joined — by the engines and
by the oracle alike.
"""

import os
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
from repro.persist import PersistentManager
from repro.query.executor import JoinExecutor
from repro.query.planner import plan_query
from repro.query.predicates import MultiTableFilter

from conftest import random_query
from test_batch_differential import state_of

ENGINES = ("sjoin-opt", "sjoin", "sj")
PARENT_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "null_wal_parent")


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


def test_a_wal_written_by_the_parent_with_such_a_record_recovers(tmp_path):
    """``golden/null_wal_parent`` is the directory the script above left
    behind at the parent commit (the apply record of ``r(1, NULL)``,
    ``r(1, 7)`` logged, then the ``TypeError``): every later start
    raised again."""
    directory = str(tmp_path / "state")
    shutil.copytree(PARENT_DIR, directory)
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
