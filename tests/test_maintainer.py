"""Facade tests: SQL input, algorithm selection, residual filters and the
1/f synopsis enlargement (§5.1)."""

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinSynopsisMaintainer,
    SynopsisSpec,
    SynopsisError,
    TableSchema,
    parse_query,
)
from repro.core.sjoin import SJoinEngine
from repro.core.symmetric_join import SymmetricJoinEngine
from repro.query.executor import JoinExecutor
from repro.query.predicates import MultiTableFilter
from repro.query.query import JoinQuery


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    db.create_table(TableSchema("t", [Column("y"), Column("z")]))
    return db


class TestConstruction:
    def test_sql_or_query_object(self):
        db = make_db()
        sql = "SELECT * FROM r, s WHERE r.a = s.a"
        by_sql = JoinSynopsisMaintainer(db, sql, MaintainerConfig(seed=1))
        by_obj = JoinSynopsisMaintainer(db, parse_query(sql, db), MaintainerConfig(seed=1))
        assert str(by_sql.query) == str(by_obj.query)

    def test_algorithm_selection(self):
        db = make_db()
        sql = "SELECT * FROM r, s WHERE r.a = s.a"
        assert isinstance(
            JoinSynopsisMaintainer(db, sql, MaintainerConfig(engine="sj")).engine,
            SymmetricJoinEngine,
        )
        opt = JoinSynopsisMaintainer(db, sql, MaintainerConfig(engine="sjoin-opt"))
        assert isinstance(opt.engine, SJoinEngine)
        assert opt.engine.plan.fk_optimized
        plain = JoinSynopsisMaintainer(db, sql, MaintainerConfig(engine="sjoin"))
        assert not plain.engine.plan.fk_optimized

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SynopsisError):
            JoinSynopsisMaintainer(
                make_db(), "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(engine="magic"))

    def test_default_spec(self):
        m = JoinSynopsisMaintainer(
            make_db(), "SELECT * FROM r, s WHERE r.a = s.a"
        )
        assert m.requested_spec.kind == "fixed"
        assert m.requested_spec.size == 1000


class TestLifecycle:
    def test_insert_delete_synopsis(self):
        db = make_db()
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=0))
        m.insert("r", (1, 0))
        s_tid = m.insert("s", (1, 0))
        assert m.synopsis() == [(0, 0)]
        m.delete("s", s_tid)
        assert m.synopsis() == []
        assert m.total_results() == 0

    def test_synopsis_rows_materialise_payload(self):
        db = make_db()
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=0))
        m.insert("r", (1, 77))
        m.insert("s", (1, 88))
        (rows,) = m.synopsis_rows()
        assert rows == ((1, 77), (1, 88))

    def test_fixed_size_caps_output(self):
        db = make_db()
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(spec=SynopsisSpec.fixed_size(3), seed=0))
        for i in range(5):
            m.insert("r", (1, i))
            m.insert("s", (1, i))
        assert len(m.synopsis()) == 3
        assert m.synopsis_entries().drawn == 3
        # a prefix is the service's ``limit``, not the maintainer's
        with pytest.raises(TypeError):
            m.synopsis(limit=2)


class TestResidualFilters:
    def cyclic_query(self, db):
        # r-s, s-t, t-r: the t-r edge is demoted to a residual filter
        return parse_query(
            "SELECT * FROM r, s, t WHERE r.a = s.a AND s.y = t.y "
            "AND t.z <= r.x",
            db,
        )

    def test_demoted_predicate_filters_output(self):
        db = make_db()
        query = self.cyclic_query(db)
        m = JoinSynopsisMaintainer(
            db, query, MaintainerConfig(spec=SynopsisSpec.fixed_size(50), seed=0))
        m.insert("r", (1, 10))
        m.insert("s", (1, 5))
        m.insert("t", (5, 3))    # passes: 3 <= 10
        m.insert("t", (5, 99))   # fails: 99 > 10
        # tree results: 2; filtered synopsis: 1
        assert m.total_results() == 2
        assert m.synopsis() == [(0, 0, 0)]
        exact = JoinExecutor(db, query).results()
        assert m.synopsis() == exact

    def test_enlargement_applied(self):
        db = make_db()
        query = JoinQuery(
            parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
            .range_tables,
            parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
            .join_predicates,
            multi_filters=[MultiTableFilter(
                inputs=(("r", "x"), ("s", "y")),
                predicate=lambda x, y: x < y,
                selectivity_hint=0.25,
            )],
        )
        m = JoinSynopsisMaintainer(
            db, query, MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=0))
        # engine synopsis over-allocated by 1/0.25 = 4x
        assert m.engine.spec.size == 40
        for i in range(30):
            m.insert("r", (1, 0))
            m.insert("s", (1, i % 2))
        # the facade shows every plan-level sample that passes (§5.1),
        # about half of them here, and counts the 40 it selected them
        # from
        assert 10 < len(m.synopsis()) < 40
        assert all(r_row[1] < s_row[1] for r_row, s_row in m.synopsis_rows())
        assert m.synopsis_entries().drawn == 40

    def test_bernoulli_not_enlarged(self):
        db = make_db()
        query = self.cyclic_query(db)
        m = JoinSynopsisMaintainer(
            db, query, MaintainerConfig(spec=SynopsisSpec.bernoulli(0.5), seed=0))
        assert m.engine.spec.rate == 0.5
