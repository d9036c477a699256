"""Planner tests: index layout, FK collapse, routes, result expansion."""

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    JoinExecutor,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    PlanError,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import StreamPlayer
from repro.query.planner import plan_query


def simple_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    db.create_table(TableSchema("t", [Column("b"), Column("y")]))
    return db


def fk_db():
    """fact -> dim on a declared FK / PK pair."""
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("payload")], primary_key=("d_id",)
    ))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),),
    ))
    db.create_table(TableSchema("other", [Column("payload"), Column("z")]))
    return db


class TestLayout:
    def test_unoptimized_nodes_are_range_tables(self):
        db = simple_db()
        q = parse_query(
            "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b", db
        )
        plan = plan_query(q, db)
        assert [n.alias for n in plan.nodes] == ["r", "s", "t"]
        assert all(not n.is_combined for n in plan.nodes)

    def test_one_index_per_directed_edge_plus_wfull(self):
        db = simple_db()
        q = parse_query(
            "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b", db
        )
        plan = plan_query(q, db)
        # 2 edges -> 4 directed indexes total (2n-2 with n=3)
        assert len(plan.indexes) == 4
        # each node's designated (first) index carries the w_full slot
        for node in plan.nodes:
            designated = plan.designated_index[node.idx]
            assert ("w_full", -1) in designated.slots
        # middle node s has 2 indexes, leaves 1 each
        assert len(plan.node_indexes[plan.node_idx("s")]) == 2
        assert len(plan.node_indexes[plan.node_idx("r")]) == 1

    def test_vertex_attrs_are_join_attrs(self):
        db = simple_db()
        q = parse_query(
            "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b", db
        )
        plan = plan_query(q, db)
        assert plan.node("s").vertex_attrs == ("a", "b")
        assert plan.node("r").vertex_attrs == ("a",)

    def test_single_table_plan(self):
        db = simple_db()
        plan = plan_query(parse_query("SELECT * FROM r", db), db)
        assert len(plan.indexes) == 1
        assert plan.indexes[0].slots == (("w_full", -1),)

    def test_expand_result_identity_without_collapse(self):
        db = simple_db()
        q = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
        plan = plan_query(q, db)
        assert plan.expand_result((3, 9)) == (3, 9)

    def test_slot_lookup_error(self):
        db = simple_db()
        q = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
        plan = plan_query(q, db)
        with pytest.raises(PlanError):
            plan.designated_index[0].slot_of("w_out", 42)


class TestFkCollapse:
    def test_fact_dim_collapses(self):
        db = fk_db()
        q = parse_query(
            "SELECT * FROM fact, dim, other "
            "WHERE fact.f_dim = dim.d_id AND dim.payload = other.payload",
            db,
        )
        plan = plan_query(q, db, fk_optimize=True)
        assert len(plan.nodes) == 2
        combined = plan.node("fact__dim")
        assert combined.is_combined
        assert [m.alias for m in combined.members] == ["fact", "dim"]
        assert combined.members[1].parent_alias == "fact"
        # routes
        assert plan.routes["fact"].kind == "anchor"
        assert plan.routes["dim"].kind == "member"
        assert plan.routes["other"].kind == "direct"

    def test_no_collapse_without_declared_fk(self):
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id")], primary_key=("d_id",)))
        db.create_table(TableSchema("fact", [Column("f_dim")]))
        q = parse_query(
            "SELECT * FROM fact, dim WHERE fact.f_dim = dim.d_id", db
        )
        plan = plan_query(q, db, fk_optimize=True)
        assert len(plan.nodes) == 2

    def test_no_collapse_on_range_edge(self):
        db = fk_db()
        q = parse_query(
            "SELECT * FROM fact, dim WHERE fact.f_dim <= dim.d_id", db
        )
        plan = plan_query(q, db, fk_optimize=True)
        assert len(plan.nodes) == 2

    def test_combined_schema_prefixes_and_tids(self):
        db = fk_db()
        q = parse_query(
            "SELECT * FROM fact, dim, other "
            "WHERE fact.f_dim = dim.d_id AND dim.payload = other.payload",
            db,
        )
        plan = plan_query(q, db, fk_optimize=True)
        combined = plan.node("fact__dim")
        names = combined.schema.column_names
        assert names[:2] == ("__tid_fact", "__tid_dim")
        assert "fact__f_dim" in names and "dim__payload" in names
        # remapped edge attr
        assert combined.vertex_attrs == ("dim__payload",)

    def test_qy_collapse_shape(self):
        setup = setup_query("QY", seed=0)
        q = parse_query(setup.sql, setup.db)
        plan = plan_query(q, setup.db, fk_optimize=True)
        assert sorted(n.alias for n in plan.nodes) == \
            ["c2__d2", "ss__c1__d1"]
        big = plan.node("ss__c1__d1")
        assert [m.alias for m in big.members] == ["ss", "c1", "d1"]
        assert big.member("d1").parent_alias == "c1"

    def test_qx_collapse_shape(self):
        setup = setup_query("QX", seed=0)
        q = parse_query(setup.sql, setup.db)
        plan = plan_query(q, setup.db, fk_optimize=True)
        assert sorted(n.alias for n in plan.nodes) == \
            ["cs__d2", "sr__ss__d1"]
        big = plan.node("sr__ss__d1")
        # d1 hangs off ss, which hangs off the anchor sr
        assert big.member("ss").parent_alias == "sr"
        assert big.member("d1").parent_alias == "ss"

    def test_qz_collapse_shape(self):
        setup = setup_query("QZ", seed=0)
        q = parse_query(setup.sql, setup.db)
        plan = plan_query(q, setup.db, fk_optimize=True)
        assert sorted(n.alias for n in plan.nodes) == \
            ["c2__d2", "i2", "ss__c1__i1__d1"]

    def test_expansion_restores_original_order(self):
        setup = setup_query("QY", TpcdsScale.tiny(), seed=0)
        maintainer = JoinSynopsisMaintainer(setup.db, setup.sql,
                                            MaintainerConfig(
            spec=SynopsisSpec.fixed_size(40), engine="sjoin-opt", seed=0))
        StreamPlayer(maintainer).run(setup.preload + setup.stream)
        engine = maintainer.engine
        plan = engine.plan
        big = plan.node("ss__c1__d1")
        small = plan.node("c2__d2")
        exact = set(JoinExecutor(setup.db, maintainer.query).results())
        samples = engine.raw_samples()
        assert samples
        for plan_result in samples:
            expanded = plan.expand_result(plan_result, engine._combined)
            # original aliases in declaration order: ss, c1, d1, d2, c2;
            # a combined row leads with its members' tids, anchor first
            ss, c1, d1, d2, c2 = expanded
            assert engine.row_of(big.idx, plan_result[big.idx])[:3] == (
                ss, c1, d1)
            assert engine.row_of(small.idx, plan_result[small.idx])[:2] == (
                c2, d2)
            assert (ss, c2) == (plan_result[big.idx],
                                plan_result[small.idx])
            assert expanded in exact
