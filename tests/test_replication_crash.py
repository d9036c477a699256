"""Replication crash matrix.

Two failure domains, exercised exhaustively on small streams:

* **Follower crashes** — the tailer dies mid-replay at *every* record
  position (which by construction covers every segment boundary and
  every mid-segment point), both during the bootstrap tail and during
  steady-state tailing.  A restarted follower (fresh
  :class:`FollowerService` — followers keep no durable state) must land
  on an acked prefix, bit-identical to the leader at that LSN, with no
  record lost or applied twice.

* **Shipper crashes** — the ship pipeline dies between any two steps
  (segment bytes copied but manifest not flipped, torn tail bytes,
  stray snapshot temp files).  Followers trust only the manifest, so
  every such wreck must replay exactly the previously acked prefix.
"""

import copy
import json
import os
import random

import pytest

from repro import Database, SynopsisSpec
from repro.core.config import MaintainerConfig
from repro.persist import PersistentManager
from repro.replicate import DirectoryTransport, FollowerService, WalShipper
from repro.replicate.transport import MANIFEST_NAME

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"


def make_leader(directory, seed=21, segment_max_bytes=512):
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    manager, _ = single_query(
        db, SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(32),
                                  seed=seed))
    return PersistentManager(manager, str(directory),
                             segment_max_bytes=segment_max_bytes)


def fingerprint_of_leader(pm):
    return (tuple(tuple(r) for r in pm.synopsis(QUERY)),
            pm.total_results(QUERY),
            pm.maintainer(QUERY).engine.rng.getstate())


def fingerprint_of_follower(f):
    return (tuple(f.synopsis()), f.total_results(),
            f.target.maintainer(QUERY).engine.rng.getstate())


def drive_recording(pm, rng, n, live, fingerprints):
    """Drive n ops, recording the leader fingerprint at every LSN."""
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < 0.35:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            pm.delete(alias, tid)
        else:
            tid = pm.insert(alias, (rng.randrange(8), rng.randrange(8)))
            if tid >= 0:
                live[alias].append(tid)
        fingerprints[pm.wal.next_lsn] = fingerprint_of_leader(pm)


class FollowerKilled(Exception):
    """Stands in for SIGKILL mid-replay; deliberately NOT a ReproError
    so nothing in the replication stack can swallow it."""


class CrashingFollower(FollowerService):
    """A follower whose replay dies after ``crash_after`` records."""

    def __init__(self, transport, crash_after, **kw):
        self.crash_after = crash_after
        self.killed = False
        try:
            super().__init__(transport, **kw)
        except FollowerKilled:
            # the "process" died mid-constructor-bootstrap; the object
            # survives here only so the test can inspect the wreck
            self.killed = True

    def _apply_record(self, payload, segment_name):
        if self.crash_after == 0:
            raise FollowerKilled()
        self.crash_after -= 1
        super()._apply_record(payload, segment_name)


# ----------------------------------------------------------------------
# follower crash matrix
# ----------------------------------------------------------------------
class TestFollowerCrashMatrix:
    """Kill the tailer at every record position and restart it."""

    @pytest.fixture(scope="class")
    def shipped_stream(self, tmp_path_factory):
        """A leader stream of 80 ops shipped once, with the leader
        fingerprint recorded at every LSN.

        segment_max_bytes=512 rotates every handful of records, so
        crash positions 0..80 cover many segment boundaries and every
        mid-segment offset.
        """
        base = tmp_path_factory.mktemp("crash-matrix")
        pm = make_leader(base / "leader")
        fingerprints = {0: fingerprint_of_leader(pm)}
        live = {"r": [], "s": [], "t": []}
        drive_recording(pm, random.Random(2), 80, live, fingerprints)
        shipper = WalShipper(str(base / "leader"), str(base / "ship"))
        manifest = shipper.ship_once()
        n_segments = len(manifest["segments"])
        assert n_segments >= 5, "stream too small to exercise rotation"
        pm.close()
        return str(base / "ship"), fingerprints, manifest

    def test_crash_at_every_record_position(self, shipped_stream):
        ship_dir, fingerprints, manifest = shipped_stream
        acked = manifest["acked_lsn"]
        for crash_at in range(acked + 1):
            wreck = CrashingFollower(ship_dir, crash_at)
            if crash_at < acked:
                assert wreck.killed, crash_at
            # the wreck stopped exactly where it was killed: no record
            # beyond the crash point applied, none before it lost
            assert wreck.applied_lsn == crash_at
            if crash_at > 0:
                assert fingerprint_of_follower(wreck) == \
                    fingerprints[crash_at], \
                    f"wreck at {crash_at} is not the leader prefix"
            # restart: a fresh follower over the same transport
            restarted = FollowerService(ship_dir)
            assert restarted.applied_lsn == acked
            assert fingerprint_of_follower(restarted) == \
                fingerprints[acked], \
                f"restart after crash at {crash_at} diverged"

    def test_crashed_follower_can_resume_in_place(self, shipped_stream):
        """The cursor bookkeeping survives the crash: resuming the SAME
        instance replays only the missing suffix (no double apply)."""
        ship_dir, fingerprints, manifest = shipped_stream
        acked = manifest["acked_lsn"]
        for crash_at in (0, 1, acked // 3, acked // 2, acked - 1):
            wreck = CrashingFollower(ship_dir, crash_at)
            assert wreck.applied_lsn == crash_at
            wreck.crash_after = -1  # disarm
            applied = wreck.catch_up()
            assert applied == acked - crash_at
            assert wreck.applied_lsn == acked
            assert fingerprint_of_follower(wreck) == fingerprints[acked]

    def test_crash_during_steady_state_tail(self, tmp_path):
        """Same matrix, but the crash interrupts an incremental tail
        (cursors mid-segment) rather than the bootstrap tail."""
        pm = make_leader(tmp_path / "leader")
        fingerprints = {0: fingerprint_of_leader(pm)}
        live = {"r": [], "s": [], "t": []}
        drive_recording(pm, random.Random(3), 30, live, fingerprints)
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        shipper.ship_once()
        for offset in range(1, 30, 3):
            follower = CrashingFollower(str(tmp_path / "ship"), -1)
            base = follower.applied_lsn
            assert base == pm.wal.next_lsn
            drive_recording(pm, random.Random(100 + offset), 30, live,
                            fingerprints)
            shipper.ship_once()
            follower.crash_after = offset
            with pytest.raises(FollowerKilled):
                follower.catch_up()
            crash_at = base + offset
            assert follower.applied_lsn == crash_at
            assert fingerprint_of_follower(follower) == \
                fingerprints[crash_at]
            # in-place resume AND fresh restart both converge
            follower.crash_after = -1
            follower.catch_up()
            assert fingerprint_of_follower(follower) == \
                fingerprints[pm.wal.next_lsn]
            restarted = FollowerService(str(tmp_path / "ship"))
            assert fingerprint_of_follower(restarted) == \
                fingerprints[pm.wal.next_lsn]
        pm.close()


# ----------------------------------------------------------------------
# shipper crash matrix
# ----------------------------------------------------------------------
def snapshot_ship_dir(ship_dir):
    """Capture the full shipped-directory state into memory."""
    state = {}
    for sub in ("wal", "snapshots"):
        directory = os.path.join(ship_dir, sub)
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as fh:
                state[f"{sub}/{name}"] = fh.read()
    with open(os.path.join(ship_dir, MANIFEST_NAME), "rb") as fh:
        state[MANIFEST_NAME] = fh.read()
    return state


def materialize_ship_dir(target, state):
    os.makedirs(os.path.join(target, "wal"), exist_ok=True)
    os.makedirs(os.path.join(target, "snapshots"), exist_ok=True)
    for rel, data in state.items():
        with open(os.path.join(target, rel), "wb") as fh:
            fh.write(data)
    return target


class TestShipperCrashMatrix:
    @pytest.fixture(scope="class")
    def ship_rounds(self, tmp_path_factory):
        """10 ship rounds of 10 ops each; the shipped-directory state
        and leader fingerprint captured at every round."""
        base = tmp_path_factory.mktemp("shipper-crash")
        pm = make_leader(base / "leader")
        fingerprints = {0: fingerprint_of_leader(pm)}
        live = {"r": [], "s": [], "t": []}
        shipper = WalShipper(str(base / "leader"), str(base / "ship"))
        rounds = []
        rng = random.Random(4)
        for round_no in range(10):
            drive_recording(pm, rng, 10, live, fingerprints)
            if round_no == 6:
                pm.checkpoint()
            manifest = shipper.ship_once()
            rounds.append((copy.deepcopy(manifest),
                           snapshot_ship_dir(str(base / "ship"))))
        pm.close()
        return rounds, fingerprints, str(base)

    def test_every_published_round_is_a_replayable_acked_prefix(
            self, ship_rounds, tmp_path):
        """A follower pointed at the wreck of ANY ship round lands
        exactly on that round's acked prefix, bit-identically."""
        rounds, fingerprints, _ = ship_rounds
        for i, (manifest, state) in enumerate(rounds):
            target = materialize_ship_dir(str(tmp_path / f"cut{i}"),
                                          state)
            f = FollowerService(target)
            assert f.applied_lsn == manifest["acked_lsn"]
            assert fingerprint_of_follower(f) == \
                fingerprints[manifest["acked_lsn"]]

    def test_torn_copy_beyond_manifest_is_never_replayed(
            self, ship_rounds, tmp_path):
        """Shipper died AFTER copying new segment bytes but BEFORE
        flipping the manifest: the follower replays only the old acked
        prefix — the acknowledged boundary, not the visible bytes."""
        rounds, fingerprints, _ = ship_rounds
        for i in range(len(rounds) - 1):
            old_manifest, old_state = rounds[i]
            _, new_state = rounds[i + 1]
            # new artifact bytes on disk, OLD manifest still published;
            # pruning happens after publication, so the wreck holds the
            # union of both rounds' files (new bytes win: shipped
            # segments are grow-only)
            wreck_state = dict(old_state)
            wreck_state.update(new_state)
            wreck_state[MANIFEST_NAME] = old_state[MANIFEST_NAME]
            # plus half-shipped junk: a torn tail on the newest segment
            # and a stray snapshot temp file
            newest_seg = max(name for name in wreck_state
                             if name.startswith("wal/"))
            wreck_state[newest_seg] += b"\xde\xad" * 11
            wreck_state["snapshots/snapshot-999.snap.tmp"] = b"half"
            target = materialize_ship_dir(
                str(tmp_path / f"torn{i}"), wreck_state)
            f = FollowerService(target)
            assert f.applied_lsn == old_manifest["acked_lsn"]
            assert fingerprint_of_follower(f) == \
                fingerprints[old_manifest["acked_lsn"]]
            # when the manifest finally flips, the follower advances
            # over those very bytes without re-bootstrapping
            materialize_ship_dir(target, {
                MANIFEST_NAME: new_state[MANIFEST_NAME]})
            bootstraps_before = f.bootstraps
            f.catch_up()
            new_manifest = rounds[i + 1][0]
            assert f.applied_lsn == new_manifest["acked_lsn"]
            assert fingerprint_of_follower(f) == \
                fingerprints[new_manifest["acked_lsn"]]
            if new_manifest["snapshot"] == old_manifest["snapshot"]:
                assert f.bootstraps == bootstraps_before

    def test_interrupted_transport_round_keeps_old_prefix(self,
                                                          tmp_path):
        """Kill the transport mid-round at every put operation: until
        publish_manifest succeeds, followers replay the old prefix."""

        class TransportKilled(Exception):
            pass

        class FlakyTransport(DirectoryTransport):
            puts_until_crash = -1

            def _maybe_crash(self):
                if self.puts_until_crash == 0:
                    raise TransportKilled()
                if self.puts_until_crash > 0:
                    self.puts_until_crash -= 1

            def put_segment_bytes(self, name, offset, data):
                self._maybe_crash()
                super().put_segment_bytes(name, offset, data)

            def put_snapshot(self, name, data):
                self._maybe_crash()
                super().put_snapshot(name, data)

            def publish_manifest(self, manifest):
                self._maybe_crash()
                super().publish_manifest(manifest)

        pm = make_leader(tmp_path / "leader")
        fingerprints = {0: fingerprint_of_leader(pm)}
        live = {"r": [], "s": [], "t": []}
        transport = FlakyTransport(str(tmp_path / "ship"))
        drive_recording(pm, random.Random(6), 25, live, fingerprints)
        WalShipper(str(tmp_path / "leader"), transport).ship_once()
        old_acked = transport.read_manifest()["acked_lsn"]
        drive_recording(pm, random.Random(7), 25, live, fingerprints)
        crash_at = 0
        while True:
            transport.puts_until_crash = crash_at
            # a fresh shipper each time: the crashed one is "dead"
            shipper = WalShipper(str(tmp_path / "leader"), transport)
            try:
                shipper.ship_once()
                transport.puts_until_crash = -1
                break  # the round completed: every put got through
            except TransportKilled:
                pass
            f = FollowerService(str(tmp_path / "ship"))
            assert f.applied_lsn == old_acked, \
                f"transport crash at put #{crash_at} leaked state"
            assert fingerprint_of_follower(f) == fingerprints[old_acked]
            crash_at += 1
        assert crash_at >= 1  # the matrix actually exercised crashes
        f = FollowerService(str(tmp_path / "ship"))
        assert f.applied_lsn == pm.wal.next_lsn
        assert fingerprint_of_follower(f) == \
            fingerprints[pm.wal.next_lsn]
        pm.close()

    def test_manifest_pointing_at_vanished_snapshot_is_loud(
            self, ship_rounds, tmp_path):
        """A wreck that lost its snapshot file cannot silently serve an
        empty synopsis: bootstrap fails loudly and retries later."""
        from repro.errors import ReplicationError

        rounds, _, _ = ship_rounds
        manifest, state = rounds[0]
        state = {rel: data for rel, data in state.items()
                 if not rel.startswith("snapshots/")}
        target = materialize_ship_dir(str(tmp_path / "lost"), state)
        with pytest.raises(ReplicationError, match="missing"):
            FollowerService(target)

    def test_corrupt_shipped_snapshot_refuses_bootstrap(
            self, ship_rounds, tmp_path):
        from repro.errors import ReplicationError

        rounds, _, _ = ship_rounds
        manifest, state = rounds[0]
        name = "snapshots/" + manifest["snapshot"]["name"]
        state = dict(state)
        state[name] = state[name][:-3] + bytes(
            b ^ 0xFF for b in state[name][-3:])
        target = materialize_ship_dir(str(tmp_path / "corrupt"), state)
        with pytest.raises(ReplicationError, match="validation"):
            FollowerService(target)

    def test_manifest_is_json_and_versioned(self, ship_rounds):
        """The wire format itself is a contract: manifests must parse as
        plain JSON with the documented keys (ops tooling reads them)."""
        rounds, _, _ = ship_rounds
        for manifest, state in rounds:
            parsed = json.loads(state[MANIFEST_NAME])
            assert parsed == manifest
            assert set(parsed) == {"version", "ship_seq", "shipped_at",
                                   "acked_lsn", "snapshot", "segments",
                                   "watermarks"}
            for seg in parsed["segments"]:
                assert set(seg) == {"name", "start_lsn", "size",
                                    "records"}
            for mark in parsed["watermarks"]:
                assert set(mark) == {"lsn", "shipped_at", "appended_at"}
