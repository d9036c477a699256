"""Unit tests for the FK runtime pieces (MemberHash, CombinedNodeRuntime)."""

import os

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    InsertOp,
    IntegrityError,
    MaintainerConfig,
    RecoveryError,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.catalog.table import Table
from repro.core.fk_runtime import CombinedNodeRuntime, MemberHash
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.persist import PersistentManager
from repro.persist.snapshot import SnapshotStore
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
        h._refcount[(5,)] += 1
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
        h._refcount[(5,)] += 1
        h._refcount[(5,)] += 1
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
    return node, CombinedNodeRuntime(node, db, frozenset())


def held(tid, key):
    """The graph's delete, for an anchor that was assembled: it reports
    the tuple removed (here: its vertex key, so the test can compare
    it)."""
    return key


def not_held(tid, key):
    """The graph's delete for a tuple it does not hold."""
    return None


def check_entry(node, runtime, anchor_tid, anchor_row, row):
    """Assemble an anchor: its entry is ``(anchor_tid, vertex key,
    None)``, the key the plan's projection of the combined row, which
    is ``row`` and rebuilt from the anchor's (nothing is stored)."""
    tid, key, weight = runtime.assemble(anchor_tid, anchor_row)
    assert runtime.row_of(anchor_tid, anchor_row) == row
    assert (tid, key, weight) == (anchor_tid, node.vertex_key_of(row), None)
    assert runtime.key_of(anchor_tid, anchor_row) == key
    return key


class TestCombinedNodeRuntime:
    def test_assemble_layout(self):
        node, runtime = build_runtime()
        runtime.register_member("dim", 0, (7, 99))
        # leading original tids, then fact columns, then dim columns;
        # the graph reads dim.band
        key = check_entry(node, runtime, 3, (7, 42), (3, 0, 7, 42, 7, 99))
        assert key == (99,)

    def test_assemble_missing_raises(self):
        node, runtime = build_runtime()
        with pytest.raises(IntegrityError):
            runtime.assemble(0, (12, 1))

    def test_disassemble_releases_references(self):
        node, runtime = build_runtime()
        runtime.register_member("dim", 0, (7, 99))
        _, key, _ = runtime.assemble(3, (7, 42))
        assert runtime.disassemble(3, (7, 42), held) == key == (99,)
        runtime.unregister_member("dim", (7, 99))  # now allowed

    def test_disassemble_unknown_raises(self):
        """An anchor the graph does not hold was never assembled: it is
        released from nothing, whether its member is missing or has
        arrived — also when another anchor holds that member."""
        node, runtime = build_runtime()
        assert runtime.disassemble(123, (12, 1), held) is None
        runtime.register_member("dim", 0, (12, 5))
        assert runtime.disassemble(123, (12, 1), not_held) is None
        runtime.assemble(4, (12, 2))
        assert runtime.disassemble(123, (12, 1), not_held) is None
        with pytest.raises(IntegrityError):     # 4 still holds the dim
            runtime.unregister_member("dim", (12, 5))
        assert runtime.disassemble(4, (12, 2), held) is not None
        with pytest.raises(IntegrityError, match="underflow"):
            runtime.disassemble(4, (12, 2), held)   # released twice

    def test_disassemble_forgets_a_refused_anchor(self):
        """An anchor whose insert was refused stays in the heap; when it
        is deleted after its member arrived, it is in no graph and holds
        no reference."""
        node, runtime = build_runtime()
        with pytest.raises(IntegrityError):
            runtime.assemble(4, (12, 1))
        runtime.register_member("dim", 0, (12, 5))
        assert runtime.disassemble(4, (12, 1), not_held) is None
        runtime.unregister_member("dim", (12, 5))

    def test_a_refused_weight_takes_no_reference(self):
        node, runtime = build_runtime()
        weighed = []

        def weigh(node_idx, row):
            weighed.append(row)     # a weight reads the combined row
            if row[-3] <= 0:    # fact.val
                raise SynopsisError("bad weight")
            return row[-3]

        runtime._weigh = weigh
        runtime.register_member("dim", 0, (7, 99))
        with pytest.raises(SynopsisError):
            runtime.assemble(3, (7, 0))
        runtime.unregister_member("dim", (7, 99))
        runtime.register_member("dim", 1, (7, 99))
        assert runtime.assemble(4, (7, 2)) == (4, (99,), 2)
        assert weighed == [(3, 0, 7, 0, 7, 99), (4, 1, 7, 2, 7, 99)]
        assert runtime.row_of(4, (7, 2)) == weighed[-1]
        assert runtime.assembles == 2
        with pytest.raises(IntegrityError):     # 4 holds the dim
            runtime.unregister_member("dim", (7, 99))
        assert runtime.disassemble(4, (7, 2), held) == (99,)
        runtime.unregister_member("dim", (7, 99))

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
    node = plan.node(node)
    return node, CombinedNodeRuntime(node, db, frozenset(filtered))


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
        node, runtime = depth3()
        runtime.register_member("leaf", 4, (30, 9))
        runtime.register_member("mid", 2, (20, 30))
        # tids of fact, mid, leaf; then the three base rows; the graph
        # reads leaf.band, two hops from the anchor
        key = check_entry(node, runtime, 7, (1, 20),
                          (7, 2, 4, 1, 20, 20, 30, 30, 9))
        assert key == (9,)
        assert (runtime.lookups, runtime.assembles) == (2, 1)
        with pytest.raises(IntegrityError):     # both parents are held
            runtime.unregister_member("leaf", (30, 9))
        with pytest.raises(IntegrityError):
            runtime.unregister_member("mid", (20, 30))
        assert runtime.disassemble(7, (1, 20), held) == key
        runtime.unregister_member("mid", (20, 30))
        runtime.unregister_member("leaf", (30, 9))

    def test_a_miss_after_k_hits_counts_k_plus_one_lookups(self):
        _, runtime = depth3(filtered={"leaf"})
        runtime.register_member("mid", 0, (20, 31))     # its leaf filtered
        before = runtime.state_dict()
        assert runtime.assemble(0, (1, 20)) is None     # hit, then a drop
        assert (runtime.lookups, runtime.assembly_drops,
                runtime.assembles) == (2, 1, 0)
        with pytest.raises(IntegrityError, match="no match in mid"):
            runtime.assemble(1, (1, 99))                # a miss at once
        assert runtime.lookups == 3
        # neither left a reference behind, nor anything per anchor
        after = runtime.state_dict()
        assert after["hashes"] == before["hashes"]
        assert set(after) == {"assembles", "assembly_drops", "lookups",
                              "member_registrations", "hashes"}
        runtime.unregister_member("mid", (20, 31))

    def test_two_members_under_one_parent(self):
        node, runtime = chain_runtime([
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
        key = check_entry(node, runtime, 3, (1, 2),
                          (3, 0, 0, 1, 2, 1, 5, 2, 6))
        assert key == (5,)      # da.band
        assert runtime.lookups == 2
        assert runtime.disassemble(3, (1, 2), held) == key
        runtime.unregister_member("da", (1, 5))
        runtime.unregister_member("db", (2, 6))

    def test_composite_foreign_key(self):
        node, runtime = chain_runtime([
            TableSchema("dim", [Column("k1"), Column("band"), Column("k2")],
                        primary_key=("k1", "k2")),
            TableSchema("fact", [Column("f2"), Column("val"), Column("f1")],
                        foreign_keys=(ForeignKey(("f1", "f2"), "dim",
                                                 ("k1", "k2")),)),
            TableSchema("other", [Column("band")]),
        ], "SELECT * FROM fact, dim, other WHERE fact.f1 = dim.k1 "
           "AND fact.f2 = dim.k2 AND dim.band = other.band", "fact__dim")
        runtime.register_member("dim", 0, (1, 9, 2))
        key = check_entry(node, runtime, 5, (2, 7, 1),
                          (5, 0, 2, 7, 1, 1, 9, 2))
        assert key == (9,)      # dim.band
        with pytest.raises(IntegrityError):
            runtime.assemble(6, (1, 7, 2))      # the columns swapped
        assert runtime.disassemble(5, (2, 7, 1), held) == key
        runtime.unregister_member("dim", (1, 9, 2))

    def test_vertex_key_across_anchor_and_member(self):
        """A two-attribute vertex key, one attribute from the anchor and
        one from its member, in the node's vertex-attribute order."""
        node, runtime = chain_runtime([
            TableSchema("dim", [Column("d_id"), Column("band")],
                        primary_key=("d_id",)),
            TableSchema("fact", [Column("f_dim"), Column("val")],
                        foreign_keys=(ForeignKey(("f_dim",), "dim",
                                                 ("d_id",)),)),
            TableSchema("other", [Column("band")]),
            TableSchema("more", [Column("val")]),
        ], "SELECT * FROM fact, dim, other, more WHERE fact.f_dim = dim.d_id "
           "AND dim.band = other.band AND fact.val = more.val",
            "fact__dim")
        assert set(node.vertex_attrs) == {"dim__band", "fact__val"}
        runtime.register_member("dim", 0, (7, 99))
        key = check_entry(node, runtime, 3, (7, 42), (3, 0, 7, 42, 7, 99))
        assert key == ((99, 42) if node.vertex_attrs[0] == "dim__band"
                       else (42, 99))
        assert runtime.disassemble(3, (7, 42), held) == key
        runtime.unregister_member("dim", (7, 99))


class TestRestore:
    """A restored member hash holds the restored heap's own rows."""

    QY_TABLES = {"d1": "hd_d1", "d2": "hd_d2", "c1": "customer_c1",
                 "c2": "customer_c2", "ss": "store_sales"}

    def durable_qy(self, directory):
        setup = setup_query("QY", TpcdsScale.tiny(), seed=1)
        ops = [InsertOp(self.QY_TABLES[e.alias], e.row)
               for e in setup.preload + setup.stream]
        pm = PersistentManager(SynopsisManager(setup.db), directory)
        pm.register("QY", setup.sql, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(20), seed=3))
        half = len(ops) // 2
        pm.apply_batch(ops[:half])
        pm.checkpoint()
        pm.apply_batch(ops[half:])     # replayed from the log
        return pm

    def test_hash_row_is_table_row_after_recovery(self, tmp_path):
        directory = str(tmp_path / "state")
        pm = self.durable_qy(directory)
        pm.checkpoint()
        pm.close()
        recovered = PersistentManager.recover(directory)
        engine = recovered.maintainer("QY").engine
        entries = [(recovered.manager.db.table(h.member.base_table), tid,
                    row)
                   for runtime in engine._combined.values()
                   for h in runtime.hashes.values()
                   for tid, row in h._rows.values()]
        assert entries
        for table, tid, row in entries:
            assert row is table.get(tid)
        recovered.close()

    def test_a_snapshot_whose_hash_row_is_not_its_heap_row_is_refused(
            self, tmp_path):
        directory = str(tmp_path / "state")
        self.durable_qy(directory).close()
        store = SnapshotStore(os.path.join(directory, "snapshots"))
        payload, header = store.load_latest()
        [query] = payload["manager"]["queries"]
        [(_, runtime)] = query["maintainer"]["combined"][:1]
        rows = next(iter(runtime["hashes"].values()))["rows"]
        key, tid, row = rows[0]
        rows[0] = (key, tid, row[:-1] + (row[-1] + 1,))
        store.write(payload, wal_lsn=header["wal_lsn"])
        with pytest.raises(RecoveryError, match=f"at tid {tid}"):
            PersistentManager.recover(directory)

    def test_an_entry_at_a_dead_tid_is_refused(self):
        heap = Table(TableSchema("dim", [Column("d_id"), Column("band")]))
        heap.insert((5, 1))
        heap.insert((6, 1))
        heap.delete(1)
        h = MemberHash(member(), filtered=False)
        h.load_state({"rows": [((5,), 0, (5, 1))], "refcounts": []}, heap)
        assert h.lookup((5,))[1] is heap.get(0)
        for tid in (1, 2):
            with pytest.raises(RecoveryError):
                h.load_state({"rows": [((6,), tid, (6, 1))],
                              "refcounts": []}, heap)
