"""repro.persist units: WAL framing, snapshot store, state round trips."""

import os
import random

import pytest

from repro import MaintainerConfig
from repro import Column, Database, ForeignKey, TableSchema
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.synopsis import SynopsisSpec
from repro.errors import PersistError, RecoveryError
from repro.obs.metrics import MetricsRegistry
from repro.core.manager import SynopsisManager
from repro.persist import (
    PersistentManager,
    SnapshotStore,
    WriteAheadLog,
    capture_database,
    capture_maintainer,
    restore_database,
    restore_maintainer,
)
from repro.persist.runtime import replay_manager_entry
from repro.persist.state import (STATE_VERSION, capture_manager,
                                 restore_manager)
from repro.persist.wal import dump_plain, load_plain
from repro.replicate import FollowerService, WalShipper

from conftest import as_written_by_3_0, make_tables
from test_batch_differential import state_of

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"
# the planner demotes ``t.c1 <= r.c1`` to a residual filter with no hint
CYCLIC_SQL = ("SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c0 = t.c0 "
              "AND t.c1 <= r.c1")


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    return db


def loaded_db(rows=200):
    db = make_db()
    rng = random.Random(2)
    for name in ("r", "s", "t"):
        for _ in range(rows):
            db.insert(name, (rng.randrange(10), rng.randrange(100)))
    return db


def sampled_state(manager, name="q"):
    """Effective spec, then J, samples and RNG state of one query."""
    maintainer = manager.maintainer(name)
    return maintainer.engine.spec, state_of(maintainer)


def persistent_query(db, directory, config=None, **kwargs):
    """One maintained query behind the durable stack: a manager with
    the single registration ``"q"`` (tables double as their aliases)."""
    pm = PersistentManager(SynopsisManager(db), directory, **kwargs)
    pm.register("q", SQL, config)
    return pm


def drive(target, rng, n, domain=6):
    """Random inserts/deletes against anything with insert/delete."""
    live = {"r": [], "s": [], "t": []}
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < 0.3:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            target.delete(alias, tid)
        else:
            tid = target.insert(
                alias, (rng.randrange(domain), rng.randrange(domain)))
            if tid >= 0:
                live[alias].append(tid)
    return live


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        entries = [("apply", [i]) for i in range(20)]
        lsns = [wal.append(entry) for entry in entries]
        assert lsns == list(range(20))
        assert wal.next_lsn == 20
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.next_lsn == 20
        assert [e for _, e in reopened.replay()] == entries
        assert [lsn for lsn, _ in reopened.replay()] == lsns
        reopened.close()

    def test_replay_from_lsn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(10):
            wal.append(i)
        assert [e for _, e in wal.replay(from_lsn=7)] == [7, 8, 9]
        wal.close()

    def test_rotation_preserves_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=64)
        for i in range(30):
            wal.append(("entry", i))
        assert wal.rotations > 0
        assert len(os.listdir(tmp_path)) > 1
        assert [e for _, e in wal.replay()] == [("entry", i)
                                               for i in range(30)]
        wal.close()

    def test_truncate_through_drops_only_covered_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=64)
        for i in range(30):
            wal.append(i)
        checkpoint_lsn = 15
        wal.rotate()
        wal.truncate_through(checkpoint_lsn - 1)
        surviving = [lsn for lsn, _ in wal.replay()]
        # everything from the checkpoint on must survive; only whole
        # segments below it may be dropped
        assert all(lsn < checkpoint_lsn or lsn in surviving
                   for lsn in range(30))
        assert set(range(checkpoint_lsn, 30)) <= set(surviving)
        wal.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for entry in ("a", "b", "c"):
            wal.append(entry)
        wal.close()
        seg = os.path.join(str(tmp_path), os.listdir(tmp_path)[0])
        size = os.path.getsize(seg)
        with open(seg, "ab") as fh:  # simulate a torn trailing record
            fh.write(b"\x99\x00\x00\x00\x12\x34\x56\x78partial")
        reopened = WriteAheadLog(str(tmp_path))
        assert [e for _, e in reopened.replay()] == ["a", "b", "c"]
        assert os.path.getsize(seg) == size
        # appends continue from the cut point with correct LSNs
        assert reopened.append("d") == 3
        assert [e for _, e in reopened.replay()] == ["a", "b", "c", "d"]
        reopened.close()

    def test_corrupted_crc_cuts_replay_at_last_valid_record(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for entry in ("a", "b", "c"):
            wal.append(entry)
        wal.close()
        seg = os.path.join(str(tmp_path), os.listdir(tmp_path)[0])
        data = open(seg, "rb").read()
        # flip a byte inside the last record's payload
        corrupted = data[:-2] + bytes([data[-2] ^ 0xFF]) + data[-1:]
        with open(seg, "wb") as fh:
            fh.write(corrupted)
        reopened = WriteAheadLog(str(tmp_path))
        assert [e for _, e in reopened.replay()] == ["a", "b"]
        reopened.close()

    def test_sync_policy_validation(self, tmp_path):
        with pytest.raises(PersistError):
            WriteAheadLog(str(tmp_path), sync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        with pytest.raises(PersistError):
            wal.append("x")


# ----------------------------------------------------------------------
# snapshot store
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_write_load_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        payload = {"x": [1, 2, 3], "nested": {"y": (4, 5)}}
        store.write(payload, wal_lsn=17)
        loaded, header = store.load_latest()
        assert loaded == payload
        assert header["wal_lsn"] == 17

    def test_latest_wins(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=3)
        for i in range(3):
            store.write({"gen": i}, wal_lsn=i)
        loaded, header = store.load_latest()
        assert loaded == {"gen": 2} and header["wal_lsn"] == 2

    def test_retention_prunes_old_snapshots(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for i in range(5):
            store.write({"gen": i}, wal_lsn=i)
        snaps = [n for n in os.listdir(tmp_path) if n.endswith(".snap")]
        assert len(snaps) == 2
        assert store.load_latest()[0] == {"gen": 4}

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=3)
        store.write({"gen": 0}, wal_lsn=0)
        path = store.write({"gen": 1}, wal_lsn=1)
        with open(path, "r+b") as fh:  # tear the newest snapshot
            fh.truncate(os.path.getsize(path) - 5)
        loaded, header = store.load_latest()
        assert loaded == {"gen": 0} and header["wal_lsn"] == 0

    def test_all_corrupt_returns_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.write({"gen": 0}, wal_lsn=0)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        assert store.load_latest() is None


# ----------------------------------------------------------------------
# state capture / restore
# ----------------------------------------------------------------------
class TestStateRoundTrip:
    def test_database_round_trip_preserves_tids_and_tombstones(self):
        db = make_db()
        tids = [db.table("r").insert((i, i)) for i in range(5)]
        db.table("r").delete(tids[2])
        restored = restore_database(capture_database(db))
        assert sorted(restored.table_names()) == ["r", "s", "t"]
        assert list(restored.table("r").scan()) == \
            list(db.table("r").scan())
        # a fresh insert gets the same next TID in both worlds
        assert restored.table("r").insert((9, 9)) == \
            db.table("r").insert((9, 9))

    @pytest.mark.parametrize("algorithm", ["sjoin", "sjoin-opt"])
    @pytest.mark.parametrize("spec", [
        SynopsisSpec.fixed_size(12),
        SynopsisSpec.with_replacement(12),
        SynopsisSpec.bernoulli(0.3),
    ], ids=["fixed", "replacement", "bernoulli"])
    def test_maintainer_round_trip_is_bit_identical(self, algorithm,
                                                    spec):
        db = make_db()
        maintainer = JoinSynopsisMaintainer(db, SQL, MaintainerConfig(spec=spec, engine=algorithm, seed=7))
        rng = random.Random(1)
        drive(maintainer, rng, 150)
        state = capture_maintainer(maintainer)
        state = load_plain(dump_plain(state))  # as snapshots do
        restored = restore_maintainer(
            restore_database(capture_database(db)), state)
        assert restored.total_results() == maintainer.total_results()
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.synopsis() == maintainer.synopsis()
        assert restored.stats() == maintainer.stats()
        # future randomness is shared: both worlds draw the same stream
        stream = random.Random(2)
        drive(maintainer, stream, 150)
        drive(restored, random.Random(2), 150)
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.engine.rng.getstate() == \
            maintainer.engine.rng.getstate()

    def test_fk_combined_node_round_trip(self):
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("k"), Column("x")], primary_key=("k",)))
        db.create_table(TableSchema(
            "fact", [Column("k"), Column("v")],
            foreign_keys=(ForeignKey(("k",), "dim", ("k",)),)))
        for k in range(6):
            db.table("dim").insert((k, k))
        maintainer = JoinSynopsisMaintainer(
            db, "SELECT * FROM fact, dim WHERE fact.k = dim.k", MaintainerConfig(spec=SynopsisSpec.fixed_size(8), engine="sjoin-opt", seed=3))
        with maintainer.engine.open_insert_run() as run:
            for tid, row in db.table("dim").scan():
                run.notify("dim", tid, row)
        rng = random.Random(4)
        fact_tids = []
        for _ in range(80):
            if fact_tids and rng.random() < 0.3:
                maintainer.delete(
                    "fact", fact_tids.pop(rng.randrange(len(fact_tids))))
            else:
                fact_tids.append(
                    maintainer.insert("fact", (rng.randrange(6),
                                               rng.randrange(9))))
        assert len(maintainer.engine._combined) == 1
        restored = restore_maintainer(
            restore_database(capture_database(db)),
            capture_maintainer(maintainer))
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.synopsis() == maintainer.synopsis()
        runtime = restored.engine._combined[
            next(iter(restored.engine._combined))]
        original = maintainer.engine._combined[
            next(iter(maintainer.engine._combined))]
        assert runtime.state_dict() == original.state_dict()

    def test_sj_engine_is_not_persistable(self):
        db = make_db()
        maintainer = JoinSynopsisMaintainer(db, SQL, MaintainerConfig(engine="sj", seed=0))
        with pytest.raises(PersistError, match="sj"):
            capture_maintainer(maintainer)

    def test_tampered_verify_block_raises_recovery_error(self):
        db = make_db()
        maintainer = JoinSynopsisMaintainer(
            db, SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(8), seed=0))
        drive(maintainer, random.Random(0), 60)
        state = capture_maintainer(maintainer)
        state["verify"]["total_results"] += 1
        with pytest.raises(RecoveryError, match="total_results"):
            restore_maintainer(
                restore_database(capture_database(db)), state)

    def test_unknown_state_version_rejected(self):
        db = make_db()
        maintainer = JoinSynopsisMaintainer(db, SQL, MaintainerConfig(seed=0))
        state = capture_maintainer(maintainer)
        state["version"] = 999
        with pytest.raises(PersistError, match="version"):
            restore_maintainer(db, state)

    def test_manager_round_trip_with_seed_rng(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=5))
        manager.register("q1", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(8)))
        rng = random.Random(6)
        for _ in range(100):
            manager.insert("r", (rng.randrange(5), rng.randrange(5)))
            manager.insert("s", (rng.randrange(5), rng.randrange(5)))
            manager.insert("t", (rng.randrange(5), rng.randrange(5)))
        state = capture_manager(manager)
        db_state = capture_database(db)
        restored = restore_manager(restore_database(db_state), state)
        assert restored.names() == manager.names()
        assert restored.synopsis("q1") == manager.synopsis("q1")
        # the seed RNG continues identically: both sides derive the same
        # seed for the next registration
        q2 = "SELECT * FROM r, s WHERE r.c1 = s.c1"
        ma = manager.register("q2a", q2)
        mb = restored.register("q2a", q2)
        assert ma.engine.rng.getstate() == mb.engine.rng.getstate()


# ----------------------------------------------------------------------
# persistent wrappers (WAL + checkpoint + recover)
# ----------------------------------------------------------------------
class TestPersistentMaintainer:
    """One maintained query through the durable stack (the class keeps
    its pre-3.0 name; the unit under test is a ``PersistentManager``
    holding a single registration)."""

    def test_recover_replays_wal_tail(self, tmp_path):
        pm = persistent_query(
            make_db(), str(tmp_path),
            MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=1))
        rng = random.Random(2)
        drive(pm, rng, 80)
        pm.checkpoint()
        drive(pm, rng, 40)  # tail beyond the checkpoint, WAL only
        expected = (pm.total_results("q"), pm.synopsis("q"))
        pm.abandon()
        recovered = PersistentManager.recover(str(tmp_path))
        assert recovered.replayed_ops == 40
        assert recovered.total_results("q") == expected[0]
        assert recovered.synopsis("q") == expected[1]
        # the recovery split: 40 one-op records went in as one batch
        split = recovered.persist_metrics()
        assert split["replay_batches"] == 1
        assert split["recovery_restore_s"] > 0
        assert split["recovery_replay_s"] > 0
        assert pm.persist_metrics()["replay_batches"] == 0

    def test_fresh_wrapper_over_existing_state_is_rejected(self,
                                                           tmp_path):
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=0))
        pm.close()
        with pytest.raises(PersistError, match="recover"):
            PersistentManager(SynopsisManager(make_db()), str(tmp_path))

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(PersistError, match="no valid snapshot"):
            PersistentManager.recover(str(tmp_path))

    def test_checkpoint_truncates_wal(self, tmp_path):
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=1),
                              segment_max_bytes=256)
        drive(pm, random.Random(3), 120)
        wal_dir = os.path.join(str(tmp_path), "wal")
        before = len(os.listdir(wal_dir))
        pm.checkpoint()
        after = len(os.listdir(wal_dir))
        assert after < before
        pm.close()
        recovered = PersistentManager.recover(str(tmp_path))
        assert recovered.replayed_ops == 0

    def test_obs_metrics_published(self, tmp_path):
        from repro.obs import names as metric_names

        obs = MetricsRegistry()
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=1), obs=obs)
        drive(pm, random.Random(4), 30)
        pm.checkpoint()
        pm.close()
        snapshot = obs.snapshot()
        # 30 update records + the registration
        assert snapshot[metric_names.PERSIST_WAL_APPENDS]["value"] == 31
        assert snapshot[metric_names.PERSIST_SNAPSHOT_WRITES]["value"] == 2
        assert snapshot[metric_names.PERSIST_WAL_APPEND_NS]["count"] == 31
        obs2 = MetricsRegistry()
        recovered = PersistentManager.recover(str(tmp_path), obs=obs2)
        snap2 = obs2.snapshot()
        assert snap2[metric_names.PERSIST_RECOVERIES]["value"] == 1
        assert snap2[metric_names.PERSIST_RECOVERY_NS]["count"] == 1
        assert snap2[metric_names.PERSIST_RECOVERY_REPLAYED_OPS][
            "value"] == recovered.replayed_ops


class TestPersistentManager:
    def test_register_and_updates_survive_recovery(self, tmp_path):
        db = make_db()
        pm = PersistentManager(SynopsisManager(db, MaintainerConfig(seed=9)),
                               str(tmp_path))
        pm.register("q1", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(8)))
        rng = random.Random(10)
        for _ in range(60):
            pm.insert("r", (rng.randrange(5), rng.randrange(5)))
            pm.insert("s", (rng.randrange(5), rng.randrange(5)))
            pm.insert("t", (rng.randrange(5), rng.randrange(5)))
        pm.checkpoint()
        # post-checkpoint: another registration plus more updates,
        # recovered purely from the WAL tail
        pm.register("q2", "SELECT * FROM r, s WHERE r.c1 = s.c1")
        for _ in range(30):
            pm.insert("r", (rng.randrange(5), rng.randrange(5)))
        expected = {name: pm.synopsis(name) for name in pm.names()}
        totals = {name: pm.total_results(name) for name in pm.names()}
        pm.abandon()
        recovered = PersistentManager.recover(str(tmp_path))
        assert sorted(recovered.names()) == ["q1", "q2"]
        for name in expected:
            assert recovered.synopsis(name) == expected[name], name
            assert recovered.total_results(name) == totals[name], name

    def test_unregister_is_replayed(self, tmp_path):
        db = make_db()
        pm = PersistentManager(SynopsisManager(db, MaintainerConfig(seed=9)),
                               str(tmp_path))
        pm.register("q1", SQL)
        pm.checkpoint()
        pm.unregister("q1")
        pm.abandon()
        recovered = PersistentManager.recover(str(tmp_path))
        assert recovered.names() == []

    def test_effective_spec_registration_refused(self, tmp_path):
        """``effective_spec`` changes the sample and is not among the
        ``register`` record's fields: a durable registration carrying
        it would recover — and replicate — at another size."""
        pm = PersistentManager(SynopsisManager(make_db()), str(tmp_path))
        logged = pm.wal.next_lsn
        with pytest.raises(PersistError, match="effective_spec"):
            pm.register("q", SQL, MaintainerConfig(
                spec=SynopsisSpec.fixed_size(10), seed=3,
                effective_spec=SynopsisSpec.fixed_size(40)))
        assert pm.wal.next_lsn == logged
        assert pm.names() == []
        # fields that do not change the sample stay accepted
        pm.register("q", SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10), seed=3, name="shown",
            obs=MetricsRegistry()))
        assert pm.wal.next_lsn == logged + 1
        pm.close()

    def test_estimated_size_survives_recovery_and_shipping(self, tmp_path):
        """A cyclic query registered over already-loaded data is sized
        from column statistics (§5.1); replaying the registration at its
        log position re-estimates from the identical data, so recovery
        and a follower land on the same over-allocated synopsis."""
        leader_dir, ship_dir = str(tmp_path / "leader"), str(tmp_path / "ship")
        pm = PersistentManager(SynopsisManager(loaded_db()), leader_dir)
        pm.register("q", CYCLIC_SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10), seed=3))
        drive(pm, random.Random(4), 40, domain=10)
        want = sampled_state(pm)
        assert want[0].size > 10 and pm.synopsis("q")
        WalShipper(leader_dir, ship_dir).ship_once()
        follower = FollowerService(ship_dir)
        follower.catch_up()
        assert sampled_state(follower.target) == want
        follower.stop()
        pm.abandon()
        recovered = PersistentManager.recover(leader_dir)
        assert sampled_state(recovered) == want
        recovered.close()

    def test_sj_registration_rejected(self, tmp_path):
        pm = PersistentManager(SynopsisManager(make_db(), MaintainerConfig(seed=0)),
                               str(tmp_path))
        with pytest.raises(PersistError, match="sj"):
            pm.register("q", SQL, MaintainerConfig(engine="sj"))
        pm.close()


class TestFormatGate:
    """One on-disk format: anything this release did not write is
    refused with a typed error naming the version, never half-decoded."""

    def _state_dir(self, tmp_path):
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=1))
        drive(pm, random.Random(5), 20)
        pm.checkpoint()
        pm.close()
        return SnapshotStore(os.path.join(str(tmp_path), "snapshots"))

    def _rewrite_newest(self, store, edit):
        payload, header = store.load_latest()
        edit(payload)
        store.write(payload, wal_lsn=header["wal_lsn"])

    def test_v1_snapshot_rejected(self, tmp_path):
        store = self._state_dir(tmp_path)

        def to_v1(payload):
            payload["database"]["version"] = 1
            payload["manager"]["version"] = 1
        self._rewrite_newest(store, to_v1)
        with pytest.raises(
                PersistError,
                match=f"version 1 .*only version {STATE_VERSION}"):
            PersistentManager.recover(str(tmp_path))

    def test_v2_snapshot_rejected(self, tmp_path):
        store = self._state_dir(tmp_path)
        self._rewrite_newest(store, as_written_by_3_0)
        with pytest.raises(
                PersistError,
                match=f"version 2 .*only version {STATE_VERSION}"):
            PersistentManager.recover(str(tmp_path))

    def test_maintainer_kind_snapshot_rejected(self, tmp_path):
        """What a 2.x ``PersistentMaintainer`` left behind."""
        store = self._state_dir(tmp_path)

        def to_maintainer_kind(payload):
            payload["kind"] = "maintainer"
            payload["database"]["version"] = 1
            payload["maintainer"] = payload.pop(
                "manager")["queries"][0]["maintainer"]
        self._rewrite_newest(store, to_maintainer_kind)
        with pytest.raises(PersistError,
                           match="version 1 'maintainer' state"):
            PersistentManager.recover(str(tmp_path))

    def test_4_0_snapshot_restores_bit_identically(self, tmp_path):
        """4.0 wrote a ``use_statistics`` flag into every query's state
        (same format version); it was only ever read back beside the
        pinned ``effective_spec``, so ignoring it changes nothing."""
        pm = PersistentManager(SynopsisManager(loaded_db()), str(tmp_path))
        pm.register("q", CYCLIC_SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10), seed=3))
        pm.checkpoint()
        want = sampled_state(pm)
        pm.close()

        def as_written_by_4_0(payload):
            for query in payload["manager"]["queries"]:
                query["maintainer"]["use_statistics"] = True
        self._rewrite_newest(
            SnapshotStore(os.path.join(str(tmp_path), "snapshots")),
            as_written_by_4_0)
        recovered = PersistentManager.recover(str(tmp_path))
        assert sampled_state(recovered) == want
        recovered.close()

    @pytest.mark.parametrize("arity", [5, 7, 8],
                             ids=["shorter", "3.0-backend-pin", "longer"])
    def test_register_record_of_other_arity_rejected(self, arity):
        entry = ("register", "q", SQL, None, "sjoin-opt", 3, "avl",
                 "extra")[:arity]
        manager = SynopsisManager(make_db())
        with pytest.raises(PersistError, match="register WAL record"):
            replay_manager_entry(manager, entry)
        assert manager.names() == []

    def test_undecodable_wal_record_stops_recovery(self, tmp_path):
        """A foreign record in the tail is not counted as an ordinary
        replay failure and skipped: recovery refuses the directory."""
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=1))
        pm.wal.append(("register", "old", SQL, None, "sjoin-opt", 3, "avl"))
        pm.abandon()
        with pytest.raises(PersistError, match="register WAL record"):
            PersistentManager.recover(str(tmp_path))

    @pytest.mark.parametrize("record", [
        5,
        ("register", "q2", SQL, 7, "sjoin", 1),
        (),
        ("unregister",),
    ], ids=["int", "register-spec-int", "empty", "unregister-no-name"])
    def test_wrong_shaped_wal_record_is_a_persist_error(self, tmp_path,
                                                        record):
        """A decoded record of a shape this release never writes stops
        recovery typed, before anything indexes into it."""
        pm = persistent_query(make_db(), str(tmp_path),
                              MaintainerConfig(seed=1))
        pm.insert("r", (1, 2))
        pm.wal.append(record)
        pm.abandon()
        with pytest.raises(PersistError):
            PersistentManager.recover(str(tmp_path))
