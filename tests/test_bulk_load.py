"""Recovery and follower bootstrap run as one bulk load, and end typed.

``repro.persist.state.bulk_load`` keeps the cyclic collector out of the
two one-shot phases that rebuild a whole state: ``PersistentManager.recover``
from the snapshot decode to its last replayed batch, and
``FollowerService`` bootstrap from the snapshot decode to the restored
manager.  Checked here:

* a ``gc.callbacks`` probe sees no collection from ``recover``'s entry to
  its return (and does see them when the same restore runs unpaused);
* the collector is left as the caller had it — after a recovery that
  succeeds, after each failing path (no snapshot, a ``verify`` mismatch,
  a malformed WAL record, a corrupt shipped snapshot), and when the
  caller had disabled it itself; two overlapping bulk loads on two
  threads re-enable it only once both are out;
* byte-level robustness: a byte flipped, or the file truncated, at
  seeded positions of the newest snapshot and of the WAL tail segment,
  ends ``recover`` either in a typed ``PersistError`` / ``RecoveryError``
  or on an acked prefix whose synopsis, ``J`` and RNG state equal the
  live run's at that LSN — never in another exception, never elsewhere;
* the sites fixed for it: a fallback to an older snapshot whose log a
  newer checkpoint truncated (every damaged-snapshot case of the sweep
  used to recover, silently, to a state no process was ever in), and two
  header flips outside the payload's CRC that the sweep can land on — a
  ``wal_lsn`` that disagrees with the payload's copy (a replay from the
  wrong record) and a missing field (a ``KeyError``).
"""

import gc
import json
import os
import random
import shutil
import sys
import threading

import pytest

from repro.errors import PersistError, RecoveryError, ReplicationError
from repro.persist import PersistentManager
from repro.persist.runtime import SNAPSHOT_SUBDIR, WAL_SUBDIR
from repro.persist.snapshot import SnapshotStore
from repro.persist.state import bulk_load, restore_database, restore_manager
from repro.persist.wal import WriteAheadLog, list_segments
from repro.replicate import FollowerService, WalShipper

from test_batch_differential import chunk, state_of
from test_recovery_batched import NAME, build

#: positions per (file, damage) case of the byte-level sweep
POSITIONS = 32


@pytest.fixture
def collector():
    """Leave the collector as the test found it, whatever the test did."""
    was, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    if was:
        gc.enable()
    else:
        gc.disable()


class Collections:
    """Counts the collector's runs until ``stop``; reading ``runs``
    allocates nothing, so the count ends where the caller reads it."""

    def __init__(self):
        self.runs = 0
        gc.callbacks.append(self._probe)

    def _probe(self, phase, info):
        if phase == "start":
            self.runs += 1

    def stop(self):
        gc.callbacks.remove(self._probe)


def fingerprint(target):
    """Synopsis, ``J`` and RNG state."""
    return state_of(target.maintainer(NAME))


def write_state(directory):
    """A durable QY run: the constructor's snapshot, half the stream,
    a checkpoint, the other half as the WAL tail.  Returns the live
    fingerprint at every LSN a record boundary reached."""
    manager, ops = build("qy")
    pm = PersistentManager(manager, str(directory), sync="never")
    at_lsn = {pm.wal.next_lsn: fingerprint(pm)}
    cut = len(ops) // 2
    for piece in chunk(ops[:cut], 64):
        pm.apply_batch(piece)
    pm.checkpoint()
    at_lsn[pm.wal.next_lsn] = fingerprint(pm)
    for piece in chunk(ops[cut:], 32):
        pm.apply_batch(piece)
        at_lsn[pm.wal.next_lsn] = fingerprint(pm)
    pm.close()
    return at_lsn


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("state")
    return directory, write_state(directory)


def copy_of(state_dir, tmp_path):
    source, at_lsn = state_dir
    target = tmp_path / "copy"
    shutil.copytree(source, target)
    return target, at_lsn


def newest_snapshot(directory):
    names = sorted(os.listdir(os.path.join(directory, SNAPSHOT_SUBDIR)))
    return os.path.join(directory, SNAPSHOT_SUBDIR, names[-1])


def wal_tail(directory):
    return list_segments(os.path.join(directory, WAL_SUBDIR))[-1][1]


def recover(directory):
    pm = PersistentManager.recover(str(directory), sync="never")
    pm.close()
    return pm


# ----------------------------------------------------------------------
# no sweep between the snapshot decode and the last replayed record
# ----------------------------------------------------------------------
def test_recover_runs_no_collection(state_dir, tmp_path, collector):
    directory, at_lsn = copy_of(state_dir, tmp_path)
    gc.enable()
    # a low first threshold, so that however warm the process's free
    # lists are, the probe sees collections when the restore runs unpaused
    gc.set_threshold(50)
    payload, _ = SnapshotStore(
        os.path.join(directory, SNAPSHOT_SUBDIR)).load_latest()
    probe = Collections()
    restore_manager(restore_database(payload["database"]),
                    payload["manager"])
    unpaused = probe.runs
    probe.stop()
    assert unpaused > 0
    del payload
    probe = Collections()
    pm = PersistentManager.recover(str(directory), sync="never")
    paused = probe.runs
    probe.stop()
    pm.close()
    assert paused == 0
    assert gc.isenabled()
    assert pm.replayed_ops > 500
    assert fingerprint(pm) == at_lsn[pm.wal.next_lsn]


# ----------------------------------------------------------------------
# the collector is left as the caller had it, on every path
# ----------------------------------------------------------------------
def no_snapshot(directory):
    shutil.rmtree(os.path.join(directory, SNAPSHOT_SUBDIR))
    os.makedirs(os.path.join(directory, SNAPSHOT_SUBDIR))
    return PersistError


def verify_mismatch(directory):
    store = SnapshotStore(os.path.join(directory, SNAPSHOT_SUBDIR))
    payload, header = store.load_latest()
    verify = payload["manager"]["queries"][0]["maintainer"]["verify"]
    verify["total_results"] += 1
    store.write(payload, wal_lsn=header["wal_lsn"])
    return RecoveryError


def malformed_wal_record(directory):
    wal = WriteAheadLog(os.path.join(directory, WAL_SUBDIR), sync="never")
    wal.append(("apply", [("upsert", "store_sales", 1)]))
    wal.close()
    return PersistError


FAILURES = [no_snapshot, verify_mismatch, malformed_wal_record]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_recovery_restores_the_collector(state_dir, tmp_path, collector,
                                         enabled):
    directory, _ = copy_of(state_dir, tmp_path)
    gc.enable() if enabled else gc.disable()
    recover(directory)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("damage", FAILURES,
                         ids=[f.__name__ for f in FAILURES])
def test_failed_recovery_restores_the_collector(state_dir, tmp_path,
                                                collector, damage, enabled):
    directory, _ = copy_of(state_dir, tmp_path)
    expected = damage(directory)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(expected):
        recover(directory)
    assert gc.isenabled() is enabled


def shipped(directory, tmp_path):
    transport = tmp_path / "shipped"
    WalShipper(str(directory), str(transport)).ship_once()
    return transport


def shipped_snapshot(transport):
    return next((transport / "snapshots").iterdir())


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_follower_bootstrap_restores_the_collector(state_dir, tmp_path,
                                                   collector, enabled):
    directory, at_lsn = copy_of(state_dir, tmp_path)
    transport = shipped(directory, tmp_path)
    gc.enable() if enabled else gc.disable()
    follower = FollowerService(str(transport))
    assert gc.isenabled() is enabled
    assert follower.replayed_records > 0
    assert fingerprint(follower.target) == at_lsn[follower.applied_lsn]
    follower.close()
    # a corrupt shipped snapshot fails its bootstrap, typed
    snap = shipped_snapshot(transport)
    data = bytearray(snap.read_bytes())
    data[-10] ^= 0x5A
    snap.write_bytes(bytes(data))
    with pytest.raises(ReplicationError, match="CRC"):
        FollowerService(str(transport))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("first_out", ["first", "second"])
def test_overlapping_bulk_loads_enable_once_both_are_out(collector,
                                                         first_out):
    gc.enable()
    entered = [threading.Event(), threading.Event()]
    leave = [threading.Event(), threading.Event()]
    seen = {}

    def load(me):
        with bulk_load():
            entered[me].set()
            leave[me].wait(10)
            seen[f"inside {me}"] = gc.isenabled()

    threads = [threading.Thread(target=load, args=(i,)) for i in (0, 1)]
    threads[0].start()
    assert entered[0].wait(10)
    threads[1].start()
    assert entered[1].wait(10)
    order = (0, 1) if first_out == "first" else (1, 0)
    leave[order[0]].set()
    threads[order[0]].join(10)
    seen["between"] = gc.isenabled()
    leave[order[1]].set()
    threads[order[1]].join(10)
    assert seen == {"inside 0": False, "inside 1": False, "between": False}
    assert gc.isenabled()


def test_many_threads_never_see_the_collector_on_inside(collector):
    """A lost update of the depth count would re-enable the collector
    under a thread still inside, or leave it off after the last one."""
    gc.enable()
    inside_on = []

    def churn(seed):
        rng = random.Random(seed)
        for _ in range(300):
            with bulk_load():
                if rng.random() < 0.5:
                    with bulk_load():
                        if gc.isenabled():
                            inside_on.append(seed)
                if gc.isenabled():
                    inside_on.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert inside_on == []
    assert gc.isenabled()


# ----------------------------------------------------------------------
# byte-level robustness: typed, or the acked prefix
# ----------------------------------------------------------------------
def positions(path, seed):
    """``POSITIONS`` seeded offsets of ``path``: a snapshot's header line
    is outside its payload's CRC, so it gets a quarter of them."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        header = len(fh.readline()) if path.endswith(".snap") else 0
    rng = random.Random(seed)
    picks = set()
    if header:
        picks.update(rng.sample(range(header), POSITIONS // 4))
    while len(picks) < POSITIONS:
        picks.add(rng.randrange(size))
    return sorted(picks)


def flip(path, offset, rng):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ rng.randrange(1, 256)]))


def truncate(path, offset, rng):
    with open(path, "r+b") as fh:
        fh.truncate(offset)


@pytest.mark.parametrize("damage", [flip, truncate],
                         ids=["flip", "truncate"])
@pytest.mark.parametrize("target", [newest_snapshot, wal_tail],
                         ids=["snapshot", "wal_tail"])
def test_damaged_state_recovers_typed_or_to_the_acked_prefix(
        state_dir, tmp_path, collector, target, damage):
    gc.enable()
    source, at_lsn = state_dir
    outcomes = {"typed": 0, "prefix": 0}
    rng = random.Random(41)
    for n, offset in enumerate(positions(target(str(source)), 41)):
        directory = tmp_path / f"case{n}"
        shutil.copytree(source, directory)
        damage(target(str(directory)), offset, rng)
        try:
            pm = recover(directory)
        except (PersistError, RecoveryError):
            outcomes["typed"] += 1
        else:
            assert fingerprint(pm) == at_lsn[pm.wal.next_lsn], offset
            outcomes["prefix"] += 1
        assert gc.isenabled()
        shutil.rmtree(directory)
    assert sum(outcomes.values()) == POSITIONS
    if target is wal_tail:
        # a damaged tail frame is a torn tail: the log ends before it
        assert outcomes["prefix"] == POSITIONS


# ----------------------------------------------------------------------
# the sites fixed for the sweep
# ----------------------------------------------------------------------
def test_older_snapshot_without_its_log_is_a_recovery_error(state_dir,
                                                            tmp_path):
    """The newest snapshot's payload fails its CRC, so ``load_latest``
    falls back to the constructor's; the checkpoint truncated the
    records between the two, and replaying the tail onto the older state
    would land where no process ever was."""
    directory, _ = copy_of(state_dir, tmp_path)
    snap = newest_snapshot(directory)
    flip(snap, os.path.getsize(snap) - 100, random.Random(1))
    with pytest.raises(RecoveryError, match="gap"):
        recover(directory)


def rewrite_header(path, edit):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    edit(header)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(payload)


def test_header_lsn_that_disagrees_with_its_payload_is_refused(
        state_dir, tmp_path):
    directory, _ = copy_of(state_dir, tmp_path)
    rewrite_header(newest_snapshot(directory),
                   lambda header: header.update(wal_lsn=header["wal_lsn"]
                                                + 2))
    with pytest.raises(RecoveryError, match="payload says"):
        recover(directory)


def test_shipped_header_lsn_that_disagrees_is_refused(state_dir, tmp_path):
    directory, _ = copy_of(state_dir, tmp_path)
    transport = shipped(directory, tmp_path)
    rewrite_header(str(shipped_snapshot(transport)),
                   lambda header: header.update(wal_lsn=header["wal_lsn"]
                                                + 2))
    with pytest.raises(ReplicationError, match="payload says"):
        FollowerService(str(transport))


def test_header_missing_its_lsn_is_not_a_snapshot(state_dir, tmp_path):
    directory, _ = copy_of(state_dir, tmp_path)
    for name in os.listdir(os.path.join(directory, SNAPSHOT_SUBDIR)):
        rewrite_header(
            os.path.join(directory, SNAPSHOT_SUBDIR, name),
            lambda header: header.update(wal_lsm=header.pop("wal_lsn")))
    assert SnapshotStore(
        os.path.join(directory, SNAPSHOT_SUBDIR)).newest() is None
    with pytest.raises(PersistError, match="no valid snapshot"):
        recover(directory)
