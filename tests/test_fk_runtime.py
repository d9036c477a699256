"""Unit tests for the FK runtime pieces (MemberHash, CombinedNodeRuntime)."""

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    IntegrityError,
    TableSchema,
    parse_query,
)
from repro.core.fk_runtime import CombinedNodeRuntime, MemberHash
from repro.query.planner import CollapsedMember, plan_query


def member(alias="dim"):
    return CollapsedMember(alias=alias, orig_index=1, base_table="dim",
                           parent_alias="fact", fk_columns=("f_dim",),
                           pk_columns=("d_id",))


class TestMemberHash:
    def test_register_lookup_unregister(self):
        h = MemberHash(member(), filtered=False)
        h.register((5,), 0, (5, "x"))
        assert h.lookup((5,)) == (0, (5, "x"))
        assert len(h) == 1
        h.unregister((5,))
        assert h.lookup((5,)) is None

    def test_duplicate_key_raises(self):
        h = MemberHash(member(), filtered=False)
        h.register((5,), 0, (5, "x"))
        with pytest.raises(IntegrityError):
            h.register((5,), 1, (5, "y"))

    def test_unregister_missing_raises(self):
        h = MemberHash(member(), filtered=False)
        with pytest.raises(IntegrityError):
            h.unregister((5,))

    def test_refcount_blocks_unregister(self):
        h = MemberHash(member(), filtered=False)
        h.register((5,), 0, (5, "x"))
        h.add_reference((5,))
        with pytest.raises(IntegrityError):
            h.unregister((5,))
        h.drop_reference((5,))
        h.unregister((5,))

    def test_reference_underflow_raises(self):
        h = MemberHash(member(), filtered=False)
        with pytest.raises(IntegrityError):
            h.drop_reference((5,))

    def test_refcount_nesting(self):
        h = MemberHash(member(), filtered=False)
        h.register((5,), 0, (5, "x"))
        h.add_reference((5,))
        h.add_reference((5,))
        h.drop_reference((5,))
        with pytest.raises(IntegrityError):
            h.unregister((5,))
        h.drop_reference((5,))
        h.unregister((5,))


def build_runtime():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band")]))
    query = parse_query(
        "SELECT * FROM fact, dim, other "
        "WHERE fact.f_dim = dim.d_id AND dim.band = other.band", db)
    plan = plan_query(query, db, fk_optimize=True)
    node = plan.node("fact__dim")
    return db, CombinedNodeRuntime(node, db, frozenset())


class TestCombinedNodeRuntime:
    def test_assemble_layout(self):
        db, runtime = build_runtime()
        runtime.register_member("dim", 0, (7, 99))
        tid, row = runtime.assemble(3, (7, 42))
        # leading original tids, then fact columns, then dim columns
        assert row == (3, 0, 7, 42, 7, 99)
        assert runtime.has_combined(3)

    def test_assemble_missing_raises(self):
        db, runtime = build_runtime()
        with pytest.raises(IntegrityError):
            runtime.assemble(0, (12, 1))

    def test_disassemble_releases_references(self):
        db, runtime = build_runtime()
        runtime.register_member("dim", 0, (7, 99))
        runtime.assemble(3, (7, 42))
        combined_tid, row = runtime.disassemble(3)
        assert row[0] == 3
        assert not runtime.has_combined(3)
        runtime.unregister_member("dim", (7, 99))  # now allowed

    def test_disassemble_unknown_raises(self):
        db, runtime = build_runtime()
        with pytest.raises(IntegrityError):
            runtime.disassemble(123)

    def test_rejects_non_combined_node(self):
        db = Database()
        db.create_table(TableSchema("x", [Column("a")]))
        db.create_table(TableSchema("y", [Column("a")]))
        query = parse_query("SELECT * FROM x, y WHERE x.a = y.a", db)
        plan = plan_query(query, db)
        with pytest.raises(ValueError):
            CombinedNodeRuntime(plan.nodes[0], db, frozenset())


# ----------------------------------------------------------------------
# chain shapes the compiled loop must cover
# ----------------------------------------------------------------------
def chain_runtime(tables, sql, node, filtered=frozenset()):
    db = Database()
    for schema in tables:
        db.create_table(schema)
    plan = plan_query(parse_query(sql, db), db, fk_optimize=True)
    return CombinedNodeRuntime(plan.node(node), db, frozenset(filtered))


def depth3(filtered=frozenset()):
    """fact -> mid -> leaf, ``other`` keeping the query a join."""
    return chain_runtime([
        TableSchema("leaf", [Column("l_id"), Column("band")],
                    primary_key=("l_id",)),
        TableSchema("mid", [Column("m_id"), Column("m_leaf")],
                    primary_key=("m_id",),
                    foreign_keys=(ForeignKey(("m_leaf",), "leaf",
                                             ("l_id",)),)),
        TableSchema("fact", [Column("val"), Column("f_mid")],
                    foreign_keys=(ForeignKey(("f_mid",), "mid",
                                             ("m_id",)),)),
        TableSchema("other", [Column("band")]),
    ], "SELECT * FROM fact, mid, leaf, other WHERE fact.f_mid = mid.m_id "
       "AND mid.m_leaf = leaf.l_id AND leaf.band = other.band",
        "fact__mid__leaf", filtered)


class TestChainShapes:
    def test_depth_three_chain(self):
        runtime = depth3()
        runtime.register_member("leaf", 4, (30, 9))
        runtime.register_member("mid", 2, (20, 30))
        tid, row = runtime.assemble(7, (1, 20))
        # tids of fact, mid, leaf; then the three base rows
        assert row == (7, 2, 4, 1, 20, 20, 30, 30, 9)
        assert (runtime.lookups, runtime.assembles) == (2, 1)
        with pytest.raises(IntegrityError):     # both parents are held
            runtime.unregister_member("leaf", (30, 9))
        with pytest.raises(IntegrityError):
            runtime.unregister_member("mid", (20, 30))
        assert runtime.disassemble(7) == (tid, row)
        runtime.unregister_member("mid", (20, 30))
        runtime.unregister_member("leaf", (30, 9))

    def test_a_miss_after_k_hits_counts_k_plus_one_lookups(self):
        runtime = depth3(filtered={"leaf"})
        runtime.register_member("mid", 0, (20, 31))     # its leaf filtered
        before = runtime.state_dict()
        assert runtime.assemble(0, (1, 20)) is None     # hit, then a drop
        assert (runtime.lookups, runtime.assembly_drops,
                runtime.assembles) == (2, 1, 0)
        with pytest.raises(IntegrityError, match="no match in mid"):
            runtime.assemble(1, (1, 99))                # a miss at once
        assert runtime.lookups == 3
        # neither left a combined row, a mapping or a reference behind
        after = runtime.state_dict()
        for key in ("hashes", "anchor_to_combined", "table"):
            assert after[key] == before[key]
        runtime.unregister_member("mid", (20, 31))

    def test_two_members_under_one_parent(self):
        runtime = chain_runtime([
            TableSchema("da", [Column("a_id"), Column("band")],
                        primary_key=("a_id",)),
            TableSchema("db", [Column("b_id"), Column("x")],
                        primary_key=("b_id",)),
            TableSchema("fact", [Column("f_a"), Column("f_b")],
                        foreign_keys=(
                            ForeignKey(("f_a",), "da", ("a_id",)),
                            ForeignKey(("f_b",), "db", ("b_id",)))),
            TableSchema("other", [Column("band")]),
        ], "SELECT * FROM fact, da, db, other WHERE fact.f_a = da.a_id "
           "AND fact.f_b = db.b_id AND da.band = other.band",
            "fact__da__db")
        runtime.register_member("da", 0, (1, 5))
        runtime.register_member("db", 0, (2, 6))
        tid, row = runtime.assemble(3, (1, 2))
        assert row == (3, 0, 0, 1, 2, 1, 5, 2, 6)
        assert runtime.lookups == 2
        assert runtime.disassemble(3) == (tid, row)
        runtime.unregister_member("da", (1, 5))
        runtime.unregister_member("db", (2, 6))

    def test_composite_foreign_key(self):
        runtime = chain_runtime([
            TableSchema("dim", [Column("k1"), Column("band"), Column("k2")],
                        primary_key=("k1", "k2")),
            TableSchema("fact", [Column("f2"), Column("val"), Column("f1")],
                        foreign_keys=(ForeignKey(("f1", "f2"), "dim",
                                                 ("k1", "k2")),)),
            TableSchema("other", [Column("band")]),
        ], "SELECT * FROM fact, dim, other WHERE fact.f1 = dim.k1 "
           "AND fact.f2 = dim.k2 AND dim.band = other.band", "fact__dim")
        runtime.register_member("dim", 0, (1, 9, 2))
        tid, row = runtime.assemble(5, (2, 7, 1))
        assert row == (5, 0, 2, 7, 1, 1, 9, 2)
        with pytest.raises(IntegrityError):
            runtime.assemble(6, (1, 7, 2))      # the columns swapped
        assert runtime.disassemble(5) == (tid, row)
        runtime.unregister_member("dim", (1, 9, 2))
