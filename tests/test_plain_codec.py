"""Durable bytes hold plain values, under one class-refusing codec.

An ``apply`` WAL record logs ``("insert", table, row)`` /
``("delete", table, tid)`` tuples, not op objects.  The log, the
snapshots and the follower's shipped segments and bootstrap all go
through :func:`repro.persist.wal.dump_plain` /
:func:`~repro.persist.wal.load_plain`: the encoder refuses, typed and
before a byte is written, any value whose pickle would name a class; the
decoder refuses every class reference, so CRC-valid bytes that name a
callable are an error, never a call.
"""

import datetime
import decimal
import enum
import os
import pickle
import random

import pytest

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)
from repro.errors import InvalidArgumentError, PersistError, ReplicationError
from repro.persist import PersistentManager, SnapshotStore, WriteAheadLog
from repro.persist import snapshot as snapshot_module
from repro.persist import wal as wal_module
from repro.persist.runtime import decode_ops, encode_ops
from repro.persist.snapshot import decode_snapshot_bytes
from repro.persist.state import spec_to_dict
from repro.persist.wal import decode_record, dump_plain, load_plain
from repro.replicate import DirectoryTransport, FollowerService, WalShipper
from repro.service import SynopsisService

NAME = "q"
SQL = "SELECT * FROM fact, dim WHERE fact.f_dim = dim.d_id"
#: the five kinds, weighted ones on the fact's weight column
SPECS = [
    SynopsisSpec.fixed_size(6),
    SynopsisSpec.with_replacement(6),
    SynopsisSpec.bernoulli(0.5),
    SynopsisSpec.weighted_with_replacement(6, weight_column="fact.w"),
    SynopsisSpec.subset(0.5, weight_column="fact.w"),
]


def make_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("w")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    return db


def make_durable(directory, spec=SPECS[0], engine="sjoin-opt"):
    pm = PersistentManager(SynopsisManager(make_db()), str(directory))
    pm.register(NAME, SQL, MaintainerConfig(spec=spec, engine=engine,
                                            seed=5))
    return pm


def drive(target, rng, n):
    """Dims first, then facts over them with weights 1-4 and a delete
    now and then."""
    target.apply_batch([InsertOp("dim", (k, k % 3)) for k in range(6)])
    facts = []
    for _ in range(n):
        if facts and rng.random() < 0.25:
            target.apply_batch(
                [DeleteOp("fact", facts.pop(rng.randrange(len(facts))))])
        else:
            facts += target.apply_batch([InsertOp(
                "fact", (rng.randrange(6), rng.randrange(1, 5)))]).tids


def state_of(pm, name=NAME):
    engine = pm.maintainer(name).engine
    return (sorted(pm.synopsis(name)), pm.total_results(name),
            engine.rng.getstate())


def heap_of(pm):
    return [(name, list(pm.db.table(name).scan()))
            for name in pm.db.table_names()]


# ----------------------------------------------------------------------
# the record format
# ----------------------------------------------------------------------
OPS = [InsertOp("fact", (1, -2**70, 2.5, float("inf"), "x", None, True)),
       DeleteOp("dim", 3), InsertOp("dim", ())]
RECORDS = {
    "apply": ("apply", encode_ops(OPS)),
    "register with a spec": ("register", NAME, SQL, spec_to_dict(SPECS[3]),
                             "sjoin-opt", 7),
    "register without a spec": ("register", NAME, SQL, None, "sjoin", None),
    "unregister": ("unregister", NAME),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_every_record_kind_round_trips_through_the_codec(kind):
    entry = RECORDS[kind]
    assert load_plain(dump_plain(entry)) == entry


def test_an_apply_record_is_tuples_of_primitives_and_decodes_to_the_ops():
    plain = encode_ops(OPS)
    assert plain == [("insert", "fact", OPS[0].row), ("delete", "dim", 3),
                     ("insert", "dim", ())]
    ops = decode_ops(load_plain(dump_plain(plain)))
    assert ops == OPS
    assert [type(op) for op in ops] == [InsertOp, DeleteOp, InsertOp]
    with pytest.raises(PersistError, match="unknown op kind 'update'"):
        decode_ops([("update", "fact", 1)])
    with pytest.raises(PersistError, match="malformed apply record"):
        decode_ops([("insert", "fact")])


def test_the_log_replays_what_each_record_kind_did(tmp_path):
    pm = PersistentManager(SynopsisManager(make_db()), str(tmp_path))
    pm.register("a", SQL, MaintainerConfig(spec=SPECS[3], seed=1))
    pm.register("b", SQL, MaintainerConfig(engine="sjoin"))
    drive(pm, random.Random(2), 30)
    pm.unregister("b")
    live = (state_of(pm, "a"), pm.names())
    logged = [entry[0] for _, entry in pm.wal.replay()]
    assert set(logged) == {"register", "apply", "unregister"}
    pm.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert (state_of(recovered, "a"), recovered.names()) == live
    recovered.close()


# ----------------------------------------------------------------------
# the value domain: refused, typed, before the log sees it
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


NOT_PLAIN = {
    "IntEnum": Colour.RED,
    "str subclass": Label("x"),
    "datetime": datetime.datetime(2020, 1, 1),
    "Decimal": decimal.Decimal("1.5"),
    "object": object(),
}


@pytest.mark.parametrize("via", ["PersistentManager", "SynopsisService"])
@pytest.mark.parametrize("value", NOT_PLAIN, ids=list(NOT_PLAIN))
def test_a_value_the_format_cannot_carry_is_refused_before_the_log(
        tmp_path, via, value):
    pm = make_durable(tmp_path)
    drive(pm, random.Random(3), 20)
    lsn, heap, state = pm.wal.next_lsn, heap_of(pm), state_of(pm)
    # a good op ahead of the bad one: the batch is refused whole
    batch = [InsertOp("dim", (40, 1)),
             InsertOp("fact", (40, NOT_PLAIN[value]))]
    target = SynopsisService(pm) if via == "SynopsisService" else pm
    try:
        with pytest.raises(InvalidArgumentError,
                           match=type(NOT_PLAIN[value]).__name__):
            target.apply_batch(batch)
    finally:
        if target is not pm:
            target.close()
    assert pm.wal.next_lsn == lsn
    assert heap_of(pm) == heap
    assert state_of(pm) == state
    pm.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert heap_of(recovered) == heap
    assert state_of(recovered) == state
    recovered.close()


def test_an_object_that_is_not_an_op_is_refused_before_the_log(tmp_path):
    pm = make_durable(tmp_path)
    lsn = pm.wal.next_lsn
    with pytest.raises(InvalidArgumentError,
                       match="expected InsertOp or DeleteOp"):
        pm.apply_batch([InsertOp("dim", (1, 1)), ("dim", (2, 1))])
    assert pm.wal.next_lsn == lsn
    assert len(pm.db.table("dim")) == 0
    pm.close()


# ----------------------------------------------------------------------
# snapshots: every state PersistentManager accepts is plain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["sjoin-opt", "sjoin"])
@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_every_accepted_state_snapshots_through_the_codec(
        tmp_path, engine, spec):
    pm = make_durable(tmp_path, spec, engine)
    drive(pm, random.Random(4), 40)
    # checkpoint encodes through the refusing Pickler: a class anywhere
    # in the state would raise here instead of writing a snapshot
    path = pm.checkpoint()
    live = state_of(pm)
    pm.close()
    with open(path, "rb") as fh:
        assert decode_snapshot_bytes(fh.read()) is not None
    recovered = PersistentManager.recover(str(tmp_path))
    assert recovered.replayed_ops == 0
    assert state_of(recovered) == live
    recovered.close()


# ----------------------------------------------------------------------
# hostile bytes: a CRC-valid pickle that names a callable
# ----------------------------------------------------------------------
FIRED = []


def sentinel(*args):
    """Stands for any callable hostile bytes could name."""
    FIRED.append(args)
    return ("apply", [])


#: GLOBAL <this module> sentinel, MARK, TUPLE, REDUCE, STOP: the bytes
#: any object whose ``__reduce__`` names a callable pickles to
HOSTILE = (b"c" + sentinel.__module__.encode() + b"\nsentinel\n" + b"(tR.")


def hostile_wal_record(pm, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(wal_module, "dump_plain", lambda entry: HOSTILE)
        pm.wal.append(("apply", []))


def hostile_snapshot(directory, monkeypatch):
    """A header- and CRC-valid snapshot whose payload is HOSTILE."""
    with monkeypatch.context() as patch:
        patch.setattr(snapshot_module, "dump_plain", lambda obj: HOSTILE)
        path = SnapshotStore(directory).write({}, wal_lsn=0)
    with open(path, "rb") as fh:
        return fh.read()


def recover_wal(tmp_path, monkeypatch):
    pm = make_durable(tmp_path / "leader")
    drive(pm, random.Random(5), 10)
    hostile_wal_record(pm, monkeypatch)
    pm.close()
    return PersistentManager.recover(str(tmp_path / "leader"))


def follow_segment(tmp_path, monkeypatch):
    pm = make_durable(tmp_path / "leader")
    drive(pm, random.Random(5), 10)
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    follower = FollowerService(str(tmp_path / "ship"))
    hostile_wal_record(pm, monkeypatch)
    shipper.ship_once()
    pm.close()
    return follower.catch_up()


def load_snapshot(tmp_path, monkeypatch):
    return decode_snapshot_bytes(
        hostile_snapshot(str(tmp_path / "snapshots"), monkeypatch))


def bootstrap_snapshot(tmp_path, monkeypatch):
    pm = make_durable(tmp_path / "leader")
    WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship")).ship_once()
    pm.close()
    # the shipped copy of the leader's snapshot, replaced in transit
    transport = DirectoryTransport(str(tmp_path / "ship"))
    (shipped,) = os.listdir(transport.snapshot_dir)
    transport.put_snapshot(
        shipped, hostile_snapshot(str(tmp_path / "other"), monkeypatch))
    return FollowerService(str(tmp_path / "ship"))


SCENARIOS = {
    "recover a WAL frame": (recover_wal, PersistError),
    "follow a shipped segment": (follow_segment, ReplicationError),
    "bootstrap from a shipped snapshot": (bootstrap_snapshot,
                                          ReplicationError),
}


@pytest.mark.parametrize("gate", ["codec", "pickle.loads"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_hostile_bytes_are_refused_and_never_run(
        tmp_path, monkeypatch, scenario, gate):
    """With the codec the bytes are a typed error and the sentinel never
    runs; with ``pickle.loads`` patched back in, the same bytes call it —
    the check can fail."""
    run, error = SCENARIOS[scenario]
    if gate == "pickle.loads":
        monkeypatch.setattr(wal_module, "load_plain", pickle.loads)
        monkeypatch.setattr(snapshot_module, "load_plain", pickle.loads)
    FIRED.clear()
    try:
        run(tmp_path, monkeypatch)
    except Exception as exc:
        raised = exc
    else:
        raised = None
    if gate == "pickle.loads":
        assert FIRED, "the sentinel must fire once the gate is open"
        return
    assert isinstance(raised, error), raised
    assert FIRED == []


def test_a_hostile_snapshot_is_skipped_and_never_run(tmp_path, monkeypatch):
    FIRED.clear()
    assert load_snapshot(tmp_path, monkeypatch) is None
    with pytest.raises(PersistError, match="no valid snapshot"):
        PersistentManager.recover(str(tmp_path))
    with pytest.raises(PersistError, match="failed to decode"):
        decode_record(HOSTILE, "a record")
    assert FIRED == []
    monkeypatch.setattr(snapshot_module, "load_plain", pickle.loads)
    assert load_snapshot(tmp_path, monkeypatch) is not None
    assert FIRED


# ----------------------------------------------------------------------
# the log's size bookkeeping
# ----------------------------------------------------------------------
def test_the_synced_size_is_the_file_size_after_every_sync_and_rotation(
        tmp_path):
    seen = []

    def hook(phase, path, fileobj, synced_size):
        if phase == "after":
            seen.append(synced_size == os.path.getsize(path))

    wal = WriteAheadLog(str(tmp_path), segment_max_bytes=300,
                        sync_hook=hook)
    rng = random.Random(6)
    for _ in range(80):
        before = wal.rotations
        wal.append(("apply", encode_ops(
            [InsertOp("fact", (rng.randrange(100), "x" * rng.randrange(30)))
             for _ in range(rng.randrange(1, 4))])))
        if wal.rotations != before:
            assert wal._synced_size == 0 == os.path.getsize(wal._tail_path)
        assert wal._synced_size == os.path.getsize(wal._tail_path)
    assert wal.rotations > 3 and len(seen) == wal.syncs and all(seen)
    wal.close()
    reopened = WriteAheadLog(str(tmp_path))
    assert reopened.next_lsn == wal.next_lsn
    assert reopened._synced_size == os.path.getsize(reopened._tail_path)
    reopened.close()
