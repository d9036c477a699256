"""Recovery reaches the engine's batched path, and lands where it did.

A restore is the static case: ``WeightedJoinGraph.load_state`` loads
each plan node as one batch instead of re-inserting tuple by tuple, and
``PersistentManager.recover`` merges consecutive ``apply`` records of
the WAL tail into batches of ``REPLAY_BATCH_OPS`` ops.  Checked here:

* the restored graph equals the live one — every vertex's IDs and
  weights, the tree invariants, and Algorithm 2 from every root (tie
  allocation) — for the uniform, weighted and subset families on an
  FK-collapsed QY and on a band join, and the restored manager keeps
  drawing the same stream; a follower bootstrapped from the same
  snapshot agrees with the leader;
* ``load_state`` never calls ``insert_tuples`` (it loads each node
  through ``_insert_batch``, with no view placements), and recovery makes at
  most ``ceil(ops / cap)`` + one per other record + one per failing
  record ``apply_batch`` calls;
* tails that are longer than the cap, made of one-op records, that
  interleave ``register`` (with backfill) / ``unregister`` with the
  ``apply`` records, and that hold a failing record in the middle all
  recover to what a record-by-record replay (kept here) arrives at:
  synopsis, ``J``, RNG, ``replayed_ops``, ``replay_failures`` and the
  samples of the next 500 ops.
"""

import dataclasses
import math
import os
import shutil
from collections import deque

import pytest

from repro import (
    DeleteOp,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisSpec,
)
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, interleave_deletions
from repro.errors import PersistError, ReproError
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.persist import (
    PersistentManager,
    capture_database,
    capture_manager,
    replay_manager_entry,
    restore_database,
    restore_manager,
)
from repro.persist import runtime as persist_runtime
from repro.persist.runtime import SNAPSHOT_SUBDIR, WAL_SUBDIR
from repro.persist.snapshot import SnapshotStore
from repro.persist.wal import WriteAheadLog
from repro.query.parser import parse_query
from repro.replicate import FollowerService, WalShipper

from conftest import graph_state
from test_batch_differential import chunk, state_of

NAME = "q"
M = 40


# ----------------------------------------------------------------------
# workloads: the ladder's two shapes, small
# ----------------------------------------------------------------------
def qy_workload():
    """FK-collapsed QY (anchor ``ss``, member chain c1 - d1, direct d2 /
    c2) with §7.3-style deletions."""
    scale = dataclasses.replace(TpcdsScale.tiny(), customers=90,
                                store_sales=1100)
    setup = setup_query("QY", scale, seed=4)
    events = setup.preload + interleave_deletions(
        setup.stream, delete_every={"ss": 60, "c2": 12},
        delete_count={"ss": 30, "c2": 6})
    return setup.sql, setup.db, events, "ss.ss_quantity"


def qb_workload():
    """Linear Road band join with sliding-window expiry."""
    config = LinearRoadConfig(lanes=3, cars_per_lane=25, ticks=14)
    setup = setup_qb(150, config, seed=4)
    # lane2's car ids start at cars_per_lane: positive integer weights
    return setup.sql, setup.db, setup.events, "lane2.car_id"


WORKLOADS = {"qy": qy_workload, "qb": qb_workload}


def by_table(sql, db, events):
    """Alias-addressed events -> base-table ops (TIDs are sequential per
    table, so ``DeleteOldest`` resolves without running anything)."""
    query = parse_query(sql, db)
    table_of = {rt.alias: rt.table_name for rt in query.range_tables}
    next_tid = dict.fromkeys(table_of.values(), 0)
    live = {alias: deque() for alias in table_of}
    ops = []
    for event in events:
        table = table_of[event.alias]
        if isinstance(event, Insert):
            live[event.alias].append(next_tid[table])
            next_tid[table] += 1
            ops.append(InsertOp(table, event.row))
        else:
            fifo = live[event.alias]
            for _ in range(min(event.count, len(fifo))):
                ops.append(DeleteOp(table, fifo.popleft()))
    return ops


def spec_of(family, weight_column):
    return {"uniform": SynopsisSpec.fixed_size(M),
            "weighted": SynopsisSpec.weighted_with_replacement(
                M, weight_column),
            "subset": SynopsisSpec.subset(0.01, weight_column)}[family]


def build(workload, family="uniform"):
    """``(manager, ops)``: the query registered on an empty database."""
    sql, db, events, weight_column = WORKLOADS[workload]()
    manager = SynopsisManager(db, MaintainerConfig(seed=1))
    manager.register(NAME, sql, MaintainerConfig(
        spec=spec_of(family, weight_column), engine="sjoin-opt", seed=9))
    return manager, by_table(sql, db, events)


def engine_of(target):
    return target.maintainer(NAME).engine


def every_root(graph, probes=400):
    """Algorithm 2 from every root at ``probes`` numbers spread over its
    domain (weighted units on a weighted graph): equal keys rank by
    insertion order, so this pins the tie allocation."""
    out = []
    for root in range(len(graph.plan.nodes)):
        total = graph.total_results(root)
        out.append([map_join_number(graph, root, number)
                    for number in range(0, total, total // probes + 1)])
    return out


def fingerprint(target):
    maintainer = target.maintainer(NAME)
    return (state_of(maintainer), graph_state(maintainer.engine.graph),
            dataclasses.asdict(maintainer.engine.stats))


def cap():
    return persist_runtime.REPLAY_BATCH_OPS


# ----------------------------------------------------------------------
# restore: one batched load per plan node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["uniform", "weighted", "subset"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_restored_graph_equals_the_live_graph(workload, family):
    live, ops = build(workload, family)
    cut = len(ops) - 500
    for piece in chunk(ops[:cut], 64):
        live.apply_batch(piece)
    assert live.total_results(NAME) > 10 * M
    restored = restore_manager(
        restore_database(capture_database(live.db)), capture_manager(live))
    graph = engine_of(restored).graph
    graph.check_invariants()
    assert fingerprint(restored) == fingerprint(live)
    assert every_root(graph) == every_root(engine_of(live).graph)
    # the load's own work counters do not leak into the restored ones
    assert graph.stats == engine_of(live).graph.stats
    # and the same future: the next 500 ops draw the same samples
    for piece in chunk(ops[cut:], 7):
        live.apply_batch(piece)
        restored.apply_batch(piece)
    assert fingerprint(restored) == fingerprint(live)
    assert every_root(graph) == every_root(engine_of(live).graph)


def test_load_state_never_inserts_tuple_by_tuple(monkeypatch):
    live, ops = build("qy")
    live.apply_batch(ops)
    database, state = capture_database(live.db), capture_manager(live)
    tuples = sum(len(ids) for vertices in
                 state["queries"][0]["maintainer"]["graph"]["nodes"]
                 for _, ids in vertices)
    assert tuples > 300

    def refuse(*args):
        raise AssertionError("a restore must not insert tuple by tuple")

    monkeypatch.setattr(WeightedJoinGraph, "insert_tuples", refuse)
    restored = restore_manager(restore_database(database), state)
    assert fingerprint(restored) == fingerprint(live)


def test_a_snapshot_that_disagrees_with_the_heap_is_refused():
    """The per-vertex mismatch check survived the batched load."""
    from repro.errors import TupleNotFoundError

    live, ops = build("qb")
    live.apply_batch(ops)
    state = capture_manager(live)
    nodes = state["queries"][0]["maintainer"]["graph"]["nodes"]
    key, ids = nodes[1][0]
    nodes[1][0] = ((key[0] + 1,) + tuple(key[1:]), ids)
    with pytest.raises(TupleNotFoundError, match="graph restore mismatch"):
        restore_manager(restore_database(capture_database(live.db)), state)


# ----------------------------------------------------------------------
# replay: merged runs against a record-by-record replay kept here
# ----------------------------------------------------------------------
def replay_record_by_record(directory):
    """Recovery as it was before records were merged — one
    ``apply_batch`` per logged record: the reference.  Works on a copy,
    so the directory under test is read by nobody else."""
    copy = directory + ".reference"
    shutil.copytree(directory, copy)
    payload, header = SnapshotStore(
        os.path.join(copy, SNAPSHOT_SUBDIR)).load_latest()
    manager = restore_manager(restore_database(payload["database"]),
                              payload["manager"])
    wal = WriteAheadLog(os.path.join(copy, WAL_SUBDIR), sync="never")
    replayed = failures = records = 0
    for _, entry in wal.replay(from_lsn=header["wal_lsn"]):
        records += 1
        try:
            replayed += replay_manager_entry(manager, entry)
        except PersistError:
            raise
        except ReproError:
            failures += 1
    wal.abandon()
    shutil.rmtree(copy)
    return manager, replayed, failures, records


def recover_counting(directory, monkeypatch):
    """``recover`` with every ``SynopsisManager.apply_batch`` counted."""
    calls = []
    apply_batch = SynopsisManager.apply_batch

    def counted(self, ops):
        ops = list(ops)
        calls.append(len(ops))
        return apply_batch(self, ops)

    with monkeypatch.context() as patch:
        patch.setattr(SynopsisManager, "apply_batch", counted)
        recovered = PersistentManager.recover(directory)
    return recovered, calls


def assert_same_recovery(directory, monkeypatch, more, other_records=0,
                         live=None):
    """Merged recovery == the reference (== the ``live`` fingerprint of
    the process that crashed), now and 500 ops on; returns the recovered
    manager's counters."""
    reference, replayed, failures, records = \
        replay_record_by_record(directory)
    recovered, calls = recover_counting(directory, monkeypatch)
    if live is not None:
        assert fingerprint(recovered) == live
    assert recovered.replayed_ops == replayed
    assert recovered.replay_failures == failures
    ops = sum(calls)
    assert len(calls) <= (math.ceil(ops / cap())
                          + other_records + failures)
    assert recovered.replay_batches == len(calls)
    assert set(recovered.names()) == set(reference.names())
    for piece in [[]] + chunk(more, 50):
        recovered.apply_batch(piece)
        reference.apply_batch(piece)
        for name in reference.names():
            assert state_of(recovered.maintainer(name)) == \
                state_of(reference.maintainer(name))
            assert graph_state(recovered.maintainer(name).engine.graph) \
                == graph_state(reference.maintainer(name).engine.graph)
    counters = recovered.persist_metrics()
    recovered.close()
    return counters, calls, records


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_op_records_longer_than_the_cap(workload, tmp_path,
                                            monkeypatch):
    """The log ``POST /insert`` writes: one op per commit."""
    monkeypatch.setattr(persist_runtime, "REPLAY_BATCH_OPS", 128)
    manager, ops = build(workload)
    cut, end = len(ops) // 3, len(ops) - 500
    assert end - cut > 3 * 128
    manager.apply_batch(ops[:cut])
    durable = PersistentManager(manager, str(tmp_path / "d"))
    for op in ops[cut:end]:
        durable.apply_batch([op])
    durable.abandon()
    counters, calls, records = assert_same_recovery(
        str(tmp_path / "d"), monkeypatch, ops[end:])
    assert records == end - cut
    assert calls == [128] * ((end - cut) // 128) + [(end - cut) % 128]
    assert counters["replayed_ops"] == end - cut
    assert counters["replay_batches"] == len(calls)


def test_records_are_never_split(tmp_path, monkeypatch):
    """64-op records under a cap of 100: the record that reaches the
    mark closes the batch."""
    monkeypatch.setattr(persist_runtime, "REPLAY_BATCH_OPS", 100)
    manager, ops = build("qy")
    durable = PersistentManager(manager, str(tmp_path / "d"))
    tail = ops[:len(ops) - 500]
    for piece in chunk(tail, 64):
        durable.apply_batch(piece)
    durable.abandon()
    _, calls, _ = assert_same_recovery(
        str(tmp_path / "d"), monkeypatch, ops[len(tail):])
    assert set(calls[:-1]) == {128}


OTHER_SQL = {
    "qy": ("SELECT * FROM store_sales ss, customer_c1 c1 "
           "WHERE ss.ss_customer_sk = c1.c_customer_sk"),
    "qb": "SELECT * FROM lane1, lane2 WHERE |lane1.pos - lane2.pos| <= 15",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_register_and_unregister_between_apply_records(workload, tmp_path,
                                                       monkeypatch):
    manager, ops = build(workload)
    quarter = (len(ops) - 500) // 4
    durable = PersistentManager(manager, str(tmp_path / "d"))

    def stream(part):
        for piece in chunk(ops[part * quarter:(part + 1) * quarter], 5):
            durable.apply_batch(piece)

    stream(0)
    # a query over tables that already hold rows: backfilled on replay
    durable.register("late", OTHER_SQL[workload], MaintainerConfig(
        spec=SynopsisSpec.fixed_size(10), engine="sjoin-opt"))
    stream(1)
    durable.register("brief", OTHER_SQL[workload], MaintainerConfig(
        spec=SynopsisSpec.with_replacement(5), engine="sjoin", seed=3))
    stream(2)
    durable.unregister("brief")
    stream(3)
    assert durable.total_results("late") > 0
    durable.abandon()
    counters, calls, records = assert_same_recovery(
        str(tmp_path / "d"), monkeypatch, ops[4 * quarter:][:500],
        other_records=3)
    assert records > 4 * (quarter // 5)
    assert counters["replay_batches"] <= 4 + 4 * quarter // cap()
    assert counters["replayed_ops"] == 4 * quarter + 3


def test_a_failing_record_in_the_middle(tmp_path, monkeypatch):
    """Three records fail, each at another op and for another reason;
    what each applied before failing stays, the rest of it is lost, the
    records around them are merged as if nothing had happened."""
    manager, ops = build("qy")
    end = len(ops) - 500
    durable = PersistentManager(manager, str(tmp_path / "d"))
    known = next(op for op in ops if op.target == "customer_c1")
    bad = {
        10: known,                                  # duplicate member key
        25: DeleteOp("store_sales", 10 ** 6),       # no such tuple
        40: InsertOp("store_sales", ("short",)),    # arity
    }
    failed = 0
    for position, piece in enumerate(chunk(ops[:end], 20)):
        if position in bad:
            piece = piece[:7] + [bad[position]] + piece[7:]
            with pytest.raises(ReproError) as refused:
                durable.apply_batch(piece)
            assert refused.value.ops_applied == 7
            # the ops behind the bad one never ran: their effects must
            # not exist, so the script re-issues them in the next record
            durable.apply_batch(piece[8:])
            failed += 1
        else:
            durable.apply_batch(piece)
    assert failed == 3
    live = fingerprint(durable)
    durable.abandon()
    counters, calls, records = assert_same_recovery(
        str(tmp_path / "d"), monkeypatch, ops[end:], live=live)
    assert counters["replay_failures"] == 3
    # a failing record counts for nothing, its seven applied ops included
    assert counters["replayed_ops"] == end - 3 * 7
    assert len(calls) <= 4 + end // cap()


def test_recovery_reports_where_its_time_went(tmp_path):
    manager, ops = build("qb")
    durable = PersistentManager(manager, str(tmp_path / "d"))
    fresh = durable.persist_metrics()
    assert (fresh["recovery_restore_s"], fresh["recovery_replay_s"],
            fresh["replay_batches"]) == (0.0, 0.0, 0)
    for piece in chunk(ops, 64):
        durable.apply_batch(piece)
    durable.abandon()
    recovered = PersistentManager.recover(str(tmp_path / "d"))
    counters = recovered.persist_metrics()
    recovered.close()
    assert counters["recovery_restore_s"] > 0.0
    assert counters["recovery_replay_s"] > 0.0
    assert counters["replay_batches"] == \
        math.ceil(len(ops) / 64 / (cap() // 64))


# ----------------------------------------------------------------------
# the follower goes through the same restore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_follower_bootstrap_from_the_same_snapshot(workload, tmp_path):
    manager, ops = build(workload)
    half = len(ops) // 2
    manager.apply_batch(ops[:half])
    leader = PersistentManager(manager, str(tmp_path / "leader"))
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    follower = FollowerService(str(tmp_path / "ship"))
    try:
        # bootstrap alone: the snapshot's graph, batch-loaded
        assert fingerprint(follower.target) == fingerprint(leader)
        for piece in chunk(ops[half:], 64):
            leader.apply_batch(piece)
        shipper.ship_once()
        follower.catch_up()
        assert fingerprint(follower.target) == fingerprint(leader)
        # one record per epoch: the follower's epoch is the LSN
        assert follower.applied_lsn == leader.wal.next_lsn
    finally:
        follower.close()
        leader.close()
