"""API error-path tests: wrong usage must fail loudly and precisely."""

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinQuery,
    JoinSynopsisMaintainer,
    PlanError,
    QueryError,
    RangeTable,
    SchemaError,
    SJoinEngine,
    SynopsisSpec,
    TableSchema,
    TupleNotFoundError,
    parse_query,
)


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def make_maintainer(db=None):
    db = db or make_db()
    return db, JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a", MaintainerConfig(spec=SynopsisSpec.fixed_size(5), seed=0))


class TestEngineErrors:
    def test_delete_unknown_tid(self):
        db, m = make_maintainer()
        with pytest.raises(TupleNotFoundError):
            m.delete("r", 99)

    def test_delete_twice(self):
        db, m = make_maintainer()
        tid = m.insert("r", (1, 2))
        m.delete("r", tid)
        with pytest.raises(TupleNotFoundError):
            m.delete("r", tid)

    def test_insert_wrong_arity(self):
        db, m = make_maintainer()
        with pytest.raises(SchemaError):
            m.insert("r", (1, 2, 3))

    def test_insert_wrong_type(self):
        db, m = make_maintainer()
        with pytest.raises(SchemaError):
            m.insert("r", ("not-an-int", 2))

    def test_insert_unknown_alias(self):
        db, m = make_maintainer()
        with pytest.raises(QueryError):
            m.insert("zzz", (1, 2))


class TestQueryErrors:
    def test_query_over_missing_table(self):
        db = make_db()
        with pytest.raises(QueryError):
            JoinSynopsisMaintainer(db, "SELECT * FROM nope, r "
                                       "WHERE nope.a = r.a")

    def test_query_over_missing_column(self):
        db = make_db()
        with pytest.raises(Exception):  # ParseError or QueryError
            JoinSynopsisMaintainer(db, "SELECT * FROM r, s "
                                       "WHERE r.zzz = s.a")

    def test_duplicate_alias(self):
        with pytest.raises(QueryError):
            JoinQuery([RangeTable("r", "r"), RangeTable("r", "r")])

    def test_cartesian_product_rejected(self):
        db = make_db()
        query = JoinQuery(
            [RangeTable("r", "r"), RangeTable("s", "s")], []
        )
        with pytest.raises(PlanError):
            SJoinEngine(db, query, SynopsisSpec.fixed_size(5))

    def test_predicate_alias_validation(self):
        from repro import ComparisonOp, JoinPredicate
        with pytest.raises(QueryError):
            JoinQuery(
                [RangeTable("r", "r")],
                [JoinPredicate("r", "a", ComparisonOp.EQ, "ghost", "b")],
            )


class TestViewErrors:
    def test_join_number_out_of_range(self):
        from repro.graph.join_number import JoinNumberError, \
            map_join_number
        db, m = make_maintainer()
        m.insert("r", (1, 0))
        m.insert("s", (1, 0))
        graph = m.engine.graph
        assert map_join_number(graph, 0, 0) == (0, 0)
        with pytest.raises(JoinNumberError):
            map_join_number(graph, 0, 1)

    def test_graph_delete_unregistered(self):
        db, m = make_maintainer()
        with m.engine.delete_run("r") as unregister:
            with pytest.raises(TupleNotFoundError, match="tuple 5"):
                unregister(5, (1, 2))
