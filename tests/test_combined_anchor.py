"""A combined tuple is its anchor (§6).

A combined plan node keeps no row of its own: its TIDs are the anchor
table's, and its wide row is rebuilt from the anchor's row through the
member hashes whenever it is needed (``CombinedNodeRuntime.row_of``).
Nothing is kept per anchor: an anchor references its members exactly
while the join graph holds its tuple.  An anchor that got no tuple — a
pre-filtered member missed, or the insert was refused — rebuilds a row
once that member arrives, and its delete must still touch neither the
graph nor a reference count, live, after recovery and on a follower.
"""

import collections
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    MaintainerConfig,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.errors import PersistError, ReplicationError
from repro.persist import STATE_VERSION, PersistentManager, SnapshotStore
from repro.replicate import FollowerService, WalShipper

from conftest import graph_state

NAME = "q"
#: ``dim`` is pre-filtered, so a fact whose dim is missing is dropped
SQL = ("SELECT * FROM fact, dim, other "
       "WHERE fact.f_dim = dim.d_id AND dim.band = other.band "
       "AND dim.band < 4")
CONFIG = MaintainerConfig(spec=SynopsisSpec.fixed_size(5), seed=11)


def make_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band"), Column("z")]))
    return db


def make_manager():
    manager = SynopsisManager(make_db())
    manager.register(NAME, SQL, CONFIG)
    return manager


def runtime_of(maintainer):
    (runtime,) = maintainer.engine._combined.values()
    return runtime


def references(maintainer):
    """dim key -> the number of combined tuples holding it."""
    return dict(runtime_of(maintainer).hashes["dim"]._refcount)


def values(maintainer):
    """Samples as heap rows, ``J`` and the RNG state: what a twin whose
    TIDs are shifted must agree on."""
    engine = maintainer.engine
    return (engine.synopsis_entries().resolved, engine.total_results(),
            engine.rng.getstate())


def identity(maintainer):
    """What maintainer, recovery and follower agree on bit for bit."""
    engine = maintainer.engine
    return (engine.synopsis_entries().rows, values(maintainer),
            graph_state(engine.graph), runtime_of(maintainer).state_dict())


# ----------------------------------------------------------------------
# (a) a dropped anchor, its member arriving later, then its delete
# ----------------------------------------------------------------------
BEFORE = ([InsertOp("dim", (2, 3))]
          + [InsertOp("other", (3, z)) for z in range(4)]
          + [InsertOp("fact", (2, v)) for v in range(6)])
#: after the anchor is dropped: its member arrives, passing the filter
MEMBER = [InsertOp("dim", (1, 3))]
AFTER = ([InsertOp("fact", (1, v)) for v in range(3)]
         + [InsertOp("other", (3, 9)), DeleteOp("fact", 1)]
         + [InsertOp("fact", (2, v)) for v in range(4)])


def subject_ops(anchor_tid):
    return [DeleteOp("fact", anchor_tid)] + AFTER


def test_a_dropped_anchor_is_deleted_without_touching_the_graph(tmp_path):
    twin = make_manager()
    for batch in (BEFORE, MEMBER, AFTER):
        twin.apply_batch(batch)

    manager = make_manager()
    pm = PersistentManager(manager, str(tmp_path / "leader"))
    pm.apply_batch(BEFORE)
    (anchor,) = pm.apply_batch([InsertOp("fact", (1, 99))]).tids
    maintainer = pm.maintainer(NAME)
    runtime = runtime_of(maintainer)
    assert runtime.assembly_drops == 1
    pm.apply_batch(MEMBER)
    # the anchor's row rebuilds now; recovery and the follower start here
    pm.checkpoint()
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    follower = FollowerService(str(tmp_path / "ship"))

    engine = maintainer.engine
    before = (engine.graph.state_dict(), values(maintainer))
    pm.apply_batch(subject_ops(anchor)[:1])
    # nothing to remove from the graph, no reference to release
    assert (engine.graph.state_dict(), values(maintainer)) == before
    assert engine.stats.removed_results_total == 0
    assert references(maintainer) == {(2,): 6}
    pm.apply_batch(subject_ops(anchor)[1:])
    twin_maintainer = twin.maintainer(NAME)
    assert values(maintainer) == values(twin_maintainer)
    want = identity(maintainer)

    shipper.ship_once()
    follower.catch_up()
    assert follower.applied_lsn == pm.wal.next_lsn
    assert identity(follower.target.maintainer(NAME)) == want
    follower.close()
    pm.close()

    recovered = PersistentManager.recover(str(tmp_path / "leader"))
    assert not recovered.db.table("fact").is_live(anchor)
    assert identity(recovered.maintainer(NAME)) == want
    assert recovered.replay_failures == 0
    recovered.close()


#: the same join with ``dim`` unfiltered: a fact whose dim is missing
#: is refused, and the manager stops before the next registration
STRICT_SQL = ("SELECT * FROM fact, dim, other "
              "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")


def two_queries():
    manager = SynopsisManager(make_db())
    manager.register("strict", STRICT_SQL, CONFIG)
    manager.register(NAME, SQL, CONFIG)
    return manager


@pytest.mark.parametrize("held_by_another", [False, True])
def test_a_fact_one_query_refused_is_deleted_from_every_query(
        held_by_another):
    """``strict`` refuses the fact, so ``q`` never hears of it, yet the
    row stays in the heap.  Once its dim arrives the row rebuilds in
    both queries; its delete must release nothing — with no other fact on
    the dim, and without taking the reference of one that is there."""
    second = [InsertOp("fact", (1, 5))] if held_by_another else []
    twin = two_queries()
    for batch in (BEFORE, MEMBER, second):
        twin.apply_batch(batch)

    manager = two_queries()
    manager.apply_batch(BEFORE)
    with pytest.raises(SynopsisError, match="'strict'"):
        manager.apply_batch([InsertOp("fact", (1, 99))])
    refused = max(manager.db.table("fact").live_tids())
    manager.apply_batch(MEMBER + second)
    manager.apply_batch([DeleteOp("fact", refused)])
    for name in ("strict", NAME):
        maintainer = manager.maintainer(name)
        assert values(maintainer) == values(twin.maintainer(name))
        assert references(maintainer) == references(twin.maintainer(name))
        maintainer.engine.graph.check_invariants()
    if held_by_another:
        with pytest.raises(SynopsisError, match="still referenced"):
            manager.apply_batch([DeleteOp("dim", 1)])
        manager.apply_batch([DeleteOp("fact", refused + 1)])
    manager.apply_batch([DeleteOp("dim", 1)])
    assert not manager.db.table("dim").is_live(1)


# ----------------------------------------------------------------------
# (b) the property over FK streams with a filtered member
# ----------------------------------------------------------------------
@st.composite
def fk_streams(draw):
    """A seed for an op stream over a four-key domain (dims come and
    go, so facts are dropped and their dims arrive later) and the op
    after which the leader checkpoints."""
    return (draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.integers(20, 120)), draw(st.floats(0, 1)))


def generate(seed, length):
    """Concrete ops, kept valid against a model: a dim key is live at
    most once, and a dim referenced by an assembled fact stays."""
    rng = random.Random(seed)
    dims = {}       # key -> (tid, passes the filter)
    facts = {}      # tid -> key if assembled, else None
    others = []
    tids = {"dim": 0, "fact": 0, "other": 0}
    ops = []

    def insert(table, row):
        ops.append(InsertOp(table, row))
        tids[table] += 1
        return tids[table] - 1

    for _ in range(length):
        roll = rng.random()
        free = [k for k in range(4) if k not in dims]
        held = {key for key in facts.values() if key is not None}
        if roll < 0.2 and free:
            key, band = rng.choice(free), rng.randrange(6)
            dims[key] = (insert("dim", (key, band)), band < 4)
        elif roll < 0.3 and [k for k in dims if k not in held]:
            key = rng.choice([k for k in dims if k not in held])
            ops.append(DeleteOp("dim", dims.pop(key)[0]))
        elif roll < 0.65:
            key = rng.randrange(4)
            assembled = dims.get(key, (None, False))[1]
            tid = insert("fact", (key, rng.randrange(50)))
            facts[tid] = key if assembled else None
        elif roll < 0.85 and facts:
            tid = rng.choice(sorted(facts))
            del facts[tid]
            ops.append(DeleteOp("fact", tid))
        elif roll < 0.95 or not others:
            others.append(insert("other", (rng.randrange(4),
                                           rng.randrange(9))))
        else:
            ops.append(DeleteOp("other",
                                others.pop(rng.randrange(len(others)))))
    return ops, facts


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fk_streams())
def test_a_combined_tuple_is_its_anchor(stream):
    seed, length, checkpoint_at = stream
    ops, facts = generate(seed, length)
    cut = int(checkpoint_at * len(ops))
    with tempfile.TemporaryDirectory() as directory:
        leader_dir = os.path.join(directory, "leader")
        pm = PersistentManager(make_manager(), leader_dir, sync="never")
        maintainer = pm.maintainer(NAME)
        engine = maintainer.engine
        runtime = runtime_of(maintainer)
        node = engine.plan.node("fact__dim")
        built = {}      # anchor tid -> (vertex key, combined row)
        assemble = runtime.assemble

        def recording(anchor_tid, anchor_row):
            assembled = assemble(anchor_tid, anchor_row)
            if assembled is not None:
                built[anchor_tid] = (assembled[1], runtime.row_of(
                    anchor_tid, anchor_row))
            return assembled

        runtime.assemble = recording
        for op in ops[:cut]:
            pm.apply_batch([op])
        pm.checkpoint()
        shipper = WalShipper(leader_dir, os.path.join(directory, "ship"))
        shipper.ship_once()
        follower = FollowerService(os.path.join(directory, "ship"))
        for op in ops[cut:]:
            pm.apply_batch([op])

        fact = pm.db.table("fact")
        assembled = {tid for tid, key in facts.items() if key is not None}
        # plan-level TIDs of the combined node are the anchors' TIDs
        assert node.table is fact
        assert {tid for ids, _, _, _ in (
            value for (idx, _), value in graph_state(engine.graph).items()
            if idx == node.idx) for tid in ids} == assembled
        assert all(sample[node.idx] in assembled
                   for sample in engine.raw_samples())
        # a dim is held once per assembled fact on it, by nothing else
        assert references(maintainer) == dict(collections.Counter(
            (key,) for key in facts.values() if key is not None))
        # the graph got the vertex key of the row a rebuild gives
        for tid in assembled:
            key, row = built[tid]
            assert key == node.vertex_key_of(row)
            assert runtime.row_of(tid, fact.get(tid)) == row
            assert engine.row_of(node.idx, tid) == row
            assert engine.key_of(node.idx, tid) == key
        want = identity(maintainer)

        shipper.ship_once()
        follower.catch_up()
        assert identity(follower.target.maintainer(NAME)) == want
        follower.close()
        pm.close()
        recovered = PersistentManager.recover(leader_dir)
        assert identity(recovered.maintainer(NAME)) == want
        recovered.close()


# ----------------------------------------------------------------------
# the format gate: a version-3 directory is another format
# ----------------------------------------------------------------------
def as_written_by_8_0(payload):
    """Rewrite a fresh snapshot payload into what 4.0–8.x wrote: format
    version 3, every combined runtime keeping a combined heap and an
    anchor→combined map."""
    payload["database"]["version"] = 3
    payload["manager"]["version"] = 3
    for query in payload["manager"]["queries"]:
        maintainer = query["maintainer"]
        maintainer["version"] = 3
        for _, runtime in maintainer["combined"]:
            runtime["table"] = {"rows": [], "live": []}
            runtime["anchor_to_combined"] = []


def test_a_version_3_directory_is_refused_typed(tmp_path):
    pm = PersistentManager(make_manager(), str(tmp_path / "leader"))
    pm.apply_batch(BEFORE + [InsertOp("fact", (1, 99))] + MEMBER)
    pm.checkpoint()
    pm.close()
    store = SnapshotStore(str(tmp_path / "leader" / "snapshots"))
    payload, header = store.load_latest()
    assert payload["database"]["version"] == STATE_VERSION == 5
    as_written_by_8_0(payload)
    store.write(payload, wal_lsn=header["wal_lsn"])
    with pytest.raises(PersistError,
                       match="version 3 'manager' state.*only version 5"):
        PersistentManager.recover(str(tmp_path / "leader"))
    WalShipper(str(tmp_path / "leader"),
               str(tmp_path / "ship")).ship_once()
    with pytest.raises(ReplicationError,
                       match="version 3 'manager' state.*only version 5"):
        FollowerService(str(tmp_path / "ship"))
