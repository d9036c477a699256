"""repro.replicate units: transport, shipper rounds, follower serving.

The differential leader/follower identity properties live in
``test_replication_identity.py`` and the follower crash matrix in
``test_replication_crash.py``; this module covers the mechanics each of
those builds on.
"""

import json
import os
import random

import pytest

from repro import Database
from repro.core.config import MaintainerConfig
from repro.errors import FollowerReadOnlyError, ReplicationError
from repro.obs import names as metric_names
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, format_label_key
from repro.persist import PersistentManager
from repro.replicate import (
    DirectoryTransport,
    FollowerService,
    WalShipper,
    as_transport,
)
from repro.replicate.shipper import WATERMARK_CAPACITY
from repro.replicate.transport import MANIFEST_VERSION

from conftest import QUERY, as_written_by_3_0, make_tables, single_query

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    return db


def make_leader(directory, seed=7, segment_max_bytes=1024, **kw):
    """A durable leader maintaining the one query ``QUERY`` (registered
    before the wrapper, so it is part of the initial snapshot and every
    WAL record is an update)."""
    manager, _ = single_query(make_db(), SQL, MaintainerConfig(seed=seed))
    return PersistentManager(manager, str(directory),
                             segment_max_bytes=segment_max_bytes, **kw)


def drive(pm, rng, n, live=None, domain=6):
    live = live if live is not None else {"r": [], "s": [], "t": []}
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < 0.3:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            pm.delete(alias, tid)
        else:
            tid = pm.insert(
                alias, (rng.randrange(domain), rng.randrange(domain)))
            if tid >= 0:
                live[alias].append(tid)
    return live


# ----------------------------------------------------------------------
# DirectoryTransport
# ----------------------------------------------------------------------
class TestDirectoryTransport:
    def test_layout_and_round_trip(self, tmp_path):
        t = DirectoryTransport(str(tmp_path / "ship"))
        assert os.path.isdir(t.wal_dir)
        assert os.path.isdir(t.snapshot_dir)
        t.put_segment_bytes("wal-0.seg", 0, b"abc")
        t.put_segment_bytes("wal-0.seg", 3, b"def")
        assert t.read_segment_bytes("wal-0.seg", 0, 10) == b"abcdef"
        assert t.read_segment_bytes("wal-0.seg", 3, 2) == b"de"
        t.put_snapshot("snap-1.snap", b"payload")
        assert t.fetch_snapshot("snap-1.snap") == b"payload"
        assert t.segment_names() == ["wal-0.seg"]
        t.remove_segment("wal-0.seg")
        assert t.segment_names() == []
        t.remove_segment("wal-0.seg")  # idempotent
        t.remove_snapshot("snap-1.snap")
        t.remove_snapshot("snap-1.snap")

    def test_manifest_round_trip_and_absence(self, tmp_path):
        t = DirectoryTransport(str(tmp_path))
        assert t.read_manifest() is None
        manifest = {"version": MANIFEST_VERSION, "ship_seq": 1,
                    "shipped_at": 1.5, "acked_lsn": 0,
                    "snapshot": None, "segments": []}
        t.publish_manifest(manifest)
        assert t.read_manifest() == manifest
        # no leftover tmp file from the atomic rename
        assert not os.path.exists(t.manifest_path + ".tmp")

    def test_unsupported_manifest_version_raises(self, tmp_path):
        t = DirectoryTransport(str(tmp_path))
        t.publish_manifest({"version": 999, "segments": []})
        with pytest.raises(ReplicationError, match="version"):
            t.read_manifest()

    def test_garbage_manifest_raises(self, tmp_path):
        t = DirectoryTransport(str(tmp_path))
        with open(t.manifest_path, "wb") as fh:
            fh.write(b"\xff\xfe not json")
        with pytest.raises(ReplicationError, match="parse"):
            t.read_manifest()

    def test_crashed_copy_tail_is_truncated_on_reship(self, tmp_path):
        """A crashed earlier copy left unadvertised bytes; the next ship
        at the acknowledged offset rewinds them."""
        t = DirectoryTransport(str(tmp_path))
        t.put_segment_bytes("wal-0.seg", 0, b"goodTORN")
        t.put_segment_bytes("wal-0.seg", 4, b"tail")
        assert t.read_segment_bytes("wal-0.seg", 0, 100) == b"goodtail"

    def test_shorter_shipped_file_than_offset_raises(self, tmp_path):
        t = DirectoryTransport(str(tmp_path))
        t.put_segment_bytes("wal-0.seg", 0, b"ab")
        with pytest.raises(ReplicationError, match="behind the shipper"):
            t.put_segment_bytes("wal-0.seg", 10, b"xy")

    def test_missing_artifacts(self, tmp_path):
        t = DirectoryTransport(str(tmp_path))
        assert t.read_segment_bytes("nope.seg", 0, 10) == b""
        with pytest.raises(ReplicationError, match="missing"):
            t.fetch_snapshot("nope.snap")

    def test_as_transport_coercion(self, tmp_path):
        t = as_transport(str(tmp_path))
        assert isinstance(t, DirectoryTransport)
        assert as_transport(t) is t
        with pytest.raises(ReplicationError, match="transport"):
            as_transport(42)


# ----------------------------------------------------------------------
# WalShipper
# ----------------------------------------------------------------------
class TestWalShipper:
    def test_first_ship_publishes_snapshot_and_segments(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(0), 30)
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        manifest = shipper.ship_once()
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["ship_seq"] == 1
        assert manifest["acked_lsn"] == pm.wal.next_lsn
        assert manifest["snapshot"]["name"].startswith("snapshot-")
        chain_end = manifest["snapshot"]["wal_lsn"]
        for seg in manifest["segments"]:
            assert seg["start_lsn"] <= chain_end
            chain_end = max(chain_end, seg["start_lsn"] + seg["records"])
        assert chain_end == manifest["acked_lsn"]
        pm.close()

    def test_incremental_ship_only_moves_new_bytes(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(1), 20)
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        shipper.ship_once()
        bytes_after_first = shipper.bytes_shipped
        manifest = shipper.ship_once()  # nothing new
        assert shipper.bytes_shipped == bytes_after_first
        assert manifest["ship_seq"] == 2
        drive(pm, random.Random(2), 5)
        shipper.ship_once()
        assert shipper.bytes_shipped > bytes_after_first
        pm.close()

    def test_reship_after_restart_resumes_from_manifest(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(3), 25)
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        shipper.ship_once()
        drive(pm, random.Random(4), 10)
        # a new shipper (process restart) reseeds from the manifest and
        # ships only the delta
        shipper2 = WalShipper(str(tmp_path / "leader"),
                              str(tmp_path / "ship"))
        manifest = shipper2.ship_once()
        assert manifest["ship_seq"] == 2
        assert manifest["acked_lsn"] == pm.wal.next_lsn
        assert shipper2.snapshots_shipped == 0  # unchanged snapshot
        pm.close()

    def test_checkpoint_prunes_covered_shipped_segments(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(5), 40)
        transport = DirectoryTransport(str(tmp_path / "ship"))
        shipper = WalShipper(str(tmp_path / "leader"), transport)
        shipper.ship_once()
        assert len(transport.segment_names()) > 1
        pm.checkpoint()
        drive(pm, random.Random(6), 5)
        manifest = shipper.ship_once()
        names = {seg["name"] for seg in manifest["segments"]}
        assert set(transport.segment_names()) == names
        # every advertised segment starts at/after the snapshot floor
        # or overlaps it (the chain check guarantees coverage)
        floor = manifest["snapshot"]["wal_lsn"]
        assert all(seg["start_lsn"] + seg["records"] > floor
                   for seg in manifest["segments"])
        pm.close()

    def test_shipped_at_uses_injected_clock(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(7), 5)
        now = [1000.0]
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"), clock=lambda: now[0])
        assert shipper.ship_once()["shipped_at"] == 1000.0
        now[0] = 1500.0
        assert shipper.ship_once()["shipped_at"] == 1500.0
        pm.close()

    def test_metrics_published(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(8), 10)
        obs = MetricsRegistry()
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"), obs=obs)
        shipper.ship_once()
        snap = obs.snapshot()
        assert snap["replicate.ships"]["value"] == 1
        assert snap["replicate.ship_bytes"]["value"] > 0
        assert snap["replicate.acked_lsn"]["value"] == pm.wal.next_lsn
        assert snap["replicate.ship_ns"]["count"] == 1
        metrics = shipper.ship_metrics()
        assert metrics["ships"] == 1
        assert metrics["acked_lsn"] == pm.wal.next_lsn
        pm.close()

    def test_background_pump(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(9), 5)
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        shipper.start(interval=0.01)
        with pytest.raises(ReplicationError, match="already running"):
            shipper.start(interval=0.01)
        deadline = 100
        import time
        while shipper.ships == 0 and deadline:
            time.sleep(0.01)
            deadline -= 1
        shipper.stop()
        shipper.stop()  # idempotent
        assert shipper.ships >= 1
        pm.close()


# ----------------------------------------------------------------------
# FollowerService mechanics
# ----------------------------------------------------------------------
def ship_pair(tmp_path, nops=30, seed=0, **leader_kw):
    pm = make_leader(tmp_path / "leader", **leader_kw)
    live = drive(pm, random.Random(seed), nops)
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    return pm, live, shipper, str(tmp_path / "ship")


class TestFollowerService:
    def test_unshipped_directory_stays_bootstrapping(self, tmp_path):
        f = FollowerService(str(tmp_path / "empty"))
        assert not f.bootstrapped
        assert f.healthz()["status"] == "bootstrapping"
        with pytest.raises(ReplicationError, match="not bootstrapped"):
            f.view()
        assert f.catch_up() == 0

    def test_bootstrap_matches_leader(self, tmp_path):
        pm, _, _, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir)
        assert f.bootstrapped
        assert f.applied_lsn == pm.wal.next_lsn
        assert f.epoch == f.applied_lsn
        assert f.synopsis() == [tuple(r) for r in pm.synopsis(QUERY)]
        assert f.total_results() == pm.total_results(QUERY)
        pm.close()

    def test_catch_up_is_incremental_and_idempotent(self, tmp_path):
        pm, live, shipper, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir)
        assert f.catch_up() == 0
        drive(pm, random.Random(10), 7, live)
        shipper.ship_once()
        assert f.catch_up() == 7
        assert f.catch_up() == 0
        assert f.synopsis() == [tuple(r) for r in pm.synopsis(QUERY)]
        pm.close()

    def test_writes_rejected_with_leader_url(self, tmp_path):
        pm, _, _, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir, leader_url="http://leader:1234")
        for call in (
            lambda: f.insert("r", (1, 2)),
            lambda: f.delete("r", 0),
            lambda: f.apply_batch([]),
            lambda: f.register("q", SQL),
            lambda: f.checkpoint(),
        ):
            with pytest.raises(FollowerReadOnlyError) as err:
                call()
            assert err.value.leader_url == "http://leader:1234"
            assert "read-only" in str(err.value)
        pm.close()

    def test_healthz_fields(self, tmp_path):
        pm, live, shipper, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir, leader_url="http://leader:1")
        body = f.healthz()
        assert body["status"] == "ok"
        assert body["role"] == "follower"
        assert body["leader_url"] == "http://leader:1"
        assert body["applied_lsn"] == body["acked_lsn"] == pm.wal.next_lsn
        assert body["epoch_lag"] == 0
        assert body["staleness_seconds"] >= 0.0
        assert body["snapshot"].startswith("snapshot-")
        assert body["version"]
        pm.close()

    def test_epoch_lag_counts_unapplied_acked_records(self, tmp_path):
        pm, live, shipper, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir)
        drive(pm, random.Random(11), 4, live)
        shipper.ship_once()
        # follower hasn't polled yet: lag appears once it reads the
        # manifest; a plain healthz read does not advance replication
        f._manifest = f.transport.read_manifest()
        assert f.healthz()["epoch_lag"] == 4
        f.catch_up()
        assert f.healthz()["epoch_lag"] == 0
        pm.close()

    def test_staleness_tracks_injected_clocks(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(12), 5)
        now = [50.0]
        clock = lambda: now[0]  # noqa: E731
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"), clock=clock)
        shipper.ship_once()
        f = FollowerService(str(tmp_path / "ship"), clock=clock)
        assert f.healthz()["staleness_seconds"] == 0.0
        now[0] = 80.0
        assert f.healthz()["staleness_seconds"] == 30.0
        shipper.ship_once()
        f.catch_up()
        assert f.healthz()["staleness_seconds"] == 0.0
        pm.close()

    def test_metrics_published(self, tmp_path):
        pm, live, shipper, ship_dir = ship_pair(tmp_path)
        obs = MetricsRegistry()
        f = FollowerService(ship_dir, obs=obs)
        drive(pm, random.Random(13), 3, live)
        shipper.ship_once()
        f.catch_up()
        snap = obs.snapshot()
        # 30 records tailed at construction (ship_pair) + 3 new ones
        assert snap["replicate.replayed_records"]["value"] == 33
        assert snap["replicate.applied_lsn"]["value"] == pm.wal.next_lsn
        assert snap["replicate.epoch_lag"]["value"] == 0
        assert snap["replicate.replay_ns"]["count"] == 33
        assert "replicate.applied_lsn" in f.metrics_snapshot()
        assert "repro_replicate_applied_lsn" in f.exposition()
        pm.close()

    def test_synopsis_payload_single_view(self, tmp_path):
        pm, _, _, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir)
        payload = f.synopsis_payload(limit=2)
        assert payload["epoch"] == f.applied_lsn
        assert payload["total_results"] == pm.total_results(QUERY)
        assert len(payload["synopsis"]) <= 2
        assert f.service_metrics()["applied_lsn"] == f.applied_lsn
        pm.close()

    def test_unnamed_reads_follow_the_sole_query_rule(self, tmp_path):
        from repro.errors import ServiceError

        pm, _, shipper, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir, quality=True)
        assert f.names() == [QUERY]
        assert f.synopsis() == f.synopsis(QUERY)
        assert f.synopsis_payload()["name"] == QUERY
        assert f.quality is not None
        # a second registration replays onto the replica: unnamed reads
        # now need a name, and there is no single engine left to probe
        pm.register("q2", "SELECT * FROM r, s WHERE r.c1 = s.c1")
        shipper.ship_once()
        assert f.catch_up() == 1
        assert f.names() == [QUERY, "q2"]
        for read in (f.synopsis, f.total_results, f.synopsis_payload):
            with pytest.raises(ServiceError, match=r"known: \['q', 'q2'\]"):
                read()
        assert f.total_results("q2") == pm.total_results("q2")
        assert f.quality is None and "quality" not in f.healthz()
        pm.close()

    def test_pre_3_0_snapshot_is_refused_with_the_version(self, tmp_path):
        """A 2.x leader's shipped snapshot (version 1, or the
        single-maintainer kind) must not half-bootstrap a replica."""
        from repro.persist import SnapshotStore

        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(16), 10)
        pm.checkpoint()
        pm.close()
        store = SnapshotStore(str(tmp_path / "leader" / "snapshots"))
        payload, header = store.load_latest()
        payload["kind"] = "maintainer"
        payload["database"]["version"] = 1
        store.write(payload, wal_lsn=header["wal_lsn"])
        WalShipper(str(tmp_path / "leader"),
                   str(tmp_path / "ship")).ship_once()
        with pytest.raises(ReplicationError,
                           match="version 1 'maintainer' state"):
            FollowerService(str(tmp_path / "ship"))

    def test_3_0_snapshot_is_refused_with_the_version(self, tmp_path):
        """A 3.0 leader's shipped snapshot is another format: refused,
        not bootstrapped."""
        from repro.persist import STATE_VERSION, SnapshotStore

        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(16), 10)
        pm.checkpoint()
        pm.close()
        store = SnapshotStore(str(tmp_path / "leader" / "snapshots"))
        payload, header = store.load_latest()
        as_written_by_3_0(payload)
        store.write(payload, wal_lsn=header["wal_lsn"])
        WalShipper(str(tmp_path / "leader"),
                   str(tmp_path / "ship")).ship_once()
        with pytest.raises(
                ReplicationError,
                match=f"version 2 'manager' state.*only version "
                      f"{STATE_VERSION}"):
            FollowerService(str(tmp_path / "ship"))

    def test_background_poll_loop(self, tmp_path):
        pm, live, shipper, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir)
        f.start(poll_interval=0.01)
        with pytest.raises(ReplicationError, match="already running"):
            f.start()
        drive(pm, random.Random(14), 6, live)
        shipper.ship_once()
        import time
        deadline = 200
        while f.applied_lsn < pm.wal.next_lsn and deadline:
            time.sleep(0.01)
            deadline -= 1
        f.stop()
        f.close()  # idempotent alias
        assert f.applied_lsn == pm.wal.next_lsn
        pm.close()

    def test_torn_advertised_bytes_raise(self, tmp_path):
        """Corruption *inside* the advertised range is loud, not silent."""
        pm, _, _, ship_dir = ship_pair(tmp_path)
        transport = DirectoryTransport(ship_dir)
        manifest = transport.read_manifest()
        seg = manifest["segments"][-1]
        path = os.path.join(transport.wal_dir, seg["name"])
        with open(path, "r+b") as fh:
            fh.seek(seg["size"] - 1)
            byte = fh.read(1)
            fh.seek(seg["size"] - 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ReplicationError, match="CRC"):
            FollowerService(ship_dir)
        pm.close()

    def test_unadvertised_tail_bytes_are_ignored(self, tmp_path):
        """Bytes beyond the manifest (a crashed shipper copy) are unacked
        and must not be replayed."""
        pm, _, _, ship_dir = ship_pair(tmp_path)
        transport = DirectoryTransport(ship_dir)
        manifest = transport.read_manifest()
        seg = manifest["segments"][-1]
        with open(os.path.join(transport.wal_dir, seg["name"]),
                  "ab") as fh:
            fh.write(b"\x99" * 40)  # torn garbage past the acked range
        f = FollowerService(ship_dir)
        assert f.applied_lsn == manifest["acked_lsn"]
        assert f.catch_up() == 0
        pm.close()


# ----------------------------------------------------------------------
# Correlated replication-lag tracing
# ----------------------------------------------------------------------
def lag_pair(tmp_path, nops=8, seed=21):
    """A leader + shipper on one injected wall-clock, shipped once."""
    now = [1000.0]
    clock = lambda: now[0]  # noqa: E731
    pm = make_leader(tmp_path / "leader")
    drive(pm, random.Random(seed), nops)
    shipper = WalShipper(str(tmp_path / "leader"),
                         str(tmp_path / "ship"), clock=clock)
    shipper.ship_once()
    return pm, shipper, str(tmp_path / "ship"), now, clock


class TestLagTracing:
    def test_manifest_carries_publish_watermarks(self, tmp_path):
        pm, shipper, ship_dir, now, _ = lag_pair(tmp_path)
        manifest = DirectoryTransport(ship_dir).read_manifest()
        (mark,) = manifest["watermarks"]
        assert set(mark) == {"lsn", "shipped_at", "appended_at"}
        assert mark["lsn"] == manifest["acked_lsn"]
        assert mark["shipped_at"] == 1000.0
        # real segment mtimes dwarf the injected clock, so appended_at
        # is clamped to shipped_at — injected-clock tests stay coherent
        assert mark["appended_at"] == 1000.0
        # a round with no acked progress republishes, adds no watermark
        now[0] = 1005.0
        manifest = shipper.ship_once()
        assert [m["lsn"] for m in manifest["watermarks"]] == \
            [mark["lsn"]]
        pm.close()

    def test_watermark_history_is_bounded(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"))
        for i in range(WATERMARK_CAPACITY + 5):
            pm.insert("r", (i % 6, i % 6))
            manifest = shipper.ship_once()
        marks = manifest["watermarks"]
        assert len(marks) == WATERMARK_CAPACITY
        lsns = [m["lsn"] for m in marks]
        assert lsns == sorted(lsns)
        assert lsns[-1] == manifest["acked_lsn"]
        pm.close()

    def test_restarted_shipper_reseeds_watermarks(self, tmp_path):
        pm, shipper, ship_dir, now, clock = lag_pair(tmp_path)
        before = DirectoryTransport(ship_dir).read_manifest()["watermarks"]
        now[0] = 1500.0
        again = WalShipper(str(tmp_path / "leader"), ship_dir,
                           clock=clock)
        manifest = again.ship_once()
        # nothing new acked: history survives the restart untouched
        assert manifest["watermarks"] == before
        pm.close()

    def test_leader_observes_publish_delay(self, tmp_path):
        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(22), 5)
        obs = MetricsRegistry()
        shipper = WalShipper(str(tmp_path / "leader"),
                             str(tmp_path / "ship"),
                             clock=lambda: 1000.0, obs=obs)
        shipper.ship_once()
        key = format_label_key(metric_names.REPLICATE_LAG_MS,
                               {"role": "leader"})
        snap = obs.snapshot()
        assert snap[key]["count"] == 1
        assert snap[key]["sum"] == 0  # appended_at clamps to shipped_at
        pm.close()

    def test_follower_correlates_applied_records_to_lag(self, tmp_path):
        pm, shipper, ship_dir, now, clock = lag_pair(tmp_path)
        records = pm.wal.next_lsn
        now[0] = 1002.5  # follower applies 2.5 s after publication
        obs = MetricsRegistry()
        f = FollowerService(ship_dir, clock=clock, obs=obs)
        assert f.replayed_records == records
        assert f.lag_samples == records
        assert f.last_lag_ms == 2500.0
        key = format_label_key(metric_names.REPLICATE_LAG_MS,
                               {"role": "follower"})
        snap = obs.snapshot()
        assert snap[key]["count"] == records
        assert snap[key]["max"] == 2500.0
        body = f.healthz()
        assert body["lag_ms"] == 2500.0
        assert body["lag_samples"] == records
        assert body["stalled"] is False and body["stalls"] == 0
        metrics = f.service_metrics()
        assert metrics["lag_samples"] == records
        assert metrics["last_lag_ms"] == 2500.0
        assert metrics["stalls"] == 0
        pm.close()

    def test_pre_watermark_manifest_yields_no_samples(self, tmp_path):
        """Manifests from older shippers still replicate — just lagless."""
        pm, _, _, ship_dir = ship_pair(tmp_path)
        transport = DirectoryTransport(ship_dir)
        manifest = transport.read_manifest()
        del manifest["watermarks"]
        transport.publish_manifest(manifest)
        f = FollowerService(ship_dir)
        assert f.replayed_records > 0
        assert f.lag_samples == 0
        assert f.last_lag_ms is None
        assert f.healthz()["lag_ms"] is None
        pm.close()

    def test_stall_and_resume_transitions(self, tmp_path):
        pm, shipper, ship_dir, now, clock = lag_pair(tmp_path)
        events = EventLog(sink=lambda payload: None)
        f = FollowerService(ship_dir, clock=clock, events=events,
                            stall_after=5.0)
        assert f.healthz()["stalled"] is False
        now[0] = 1010.0  # manifest is now 10 s old: past the bound
        f.catch_up()
        assert f.healthz()["stalled"] is True
        assert f.stalls == 1
        f.catch_up()  # still stalled: the event fires on the edge only
        assert f.stalls == 1
        (stall,) = events.events("replicate.stall")
        assert stall.fields["staleness_seconds"] == 10.0
        shipper.ship_once()  # fresh shipped_at at t=1010
        f.catch_up()
        assert f.healthz()["stalled"] is False
        (resumed,) = events.events("replicate.resumed")
        assert resumed.fields["staleness_seconds"] == 0.0
        assert [e.kind for e in events.events("replicate")] == \
            ["replicate.bootstrap", "replicate.stall",
             "replicate.resumed"]
        pm.close()

    def test_bootstrap_event_and_payload(self, tmp_path):
        pm, _, _, ship_dir = ship_pair(tmp_path)
        events = EventLog(sink=lambda payload: None)
        obs = MetricsRegistry()
        f = FollowerService(ship_dir, events=events, obs=obs)
        (boot,) = events.events("replicate.bootstrap")
        # the event stamps the restored snapshot's LSN; tailing then
        # advances applied_lsn past it
        assert boot.fields["wal_lsn"] <= f.applied_lsn
        assert boot.fields["snapshot"].startswith("snapshot-")
        assert boot.fields["bootstraps"] == 1
        payload = f.events_payload("replicate.bootstrap")
        assert [e["kind"] for e in payload["events"]] == \
            ["replicate.bootstrap"]
        # catch_up publishes the event-log gauges into the registry
        snap = obs.snapshot()
        assert snap[metric_names.EVENTS_EMITTED]["value"] >= 1
        pm.close()

    def test_quality_monitor_attaches_to_replica(self, tmp_path):
        pm, _, _, ship_dir = ship_pair(tmp_path)
        obs = MetricsRegistry()
        f = FollowerService(ship_dir, obs=obs, quality=True)
        assert f.quality is not None
        assert "quality" in f.healthz()
        assert metric_names.QUALITY_PROBE_ROUNDS in obs.snapshot()
        pm.close()

    def test_every_replayed_record_is_a_stage_carrying_its_lsn(
            self, tmp_path):
        """Threshold 0: one ``trace.slow_op`` per replayed record (5.0's
        ``tracer=`` died with a ``TypeError`` on the first), each with
        its ``lsn``; a ship round carries what it acked."""
        events = EventLog(sink=lambda payload: None)
        obs = MetricsRegistry(events=events, slow_op_threshold_ns=0)
        pm, _, _, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir, obs=obs)
        replayed, first = f.replayed_records, f.applied_lsn
        drive(pm, random.Random(3), 5)
        acked = WalShipper(str(tmp_path / "leader"), ship_dir,
                           obs=obs.child()).ship_once()["acked_lsn"]
        assert f.catch_up() == 5
        stages = [e.fields for e in events.events("trace.slow_op")]
        assert [s["lsn"] for s in stages
                if s["op"] == "replicate.replay_ns"][replayed:] == \
            list(range(first, first + 5))
        assert [s["acked_lsn"] for s in stages
                if s["op"] == "replicate.ship_ns"] == [acked]
        pm.close()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestReplicationCli:
    def test_ship_parser(self):
        from repro.cli import make_parser

        args = make_parser().parse_args(
            ["ship", "--from", "/a", "--to", "/b", "--once"])
        assert args.command == "ship"
        assert args.source_dir == "/a"
        assert args.to == "/b"
        assert args.once

    def test_serve_follow_parser(self):
        from repro.cli import make_parser

        args = make_parser().parse_args(
            ["serve", "--follow", "/ship", "--leader-url",
             "http://leader:80", "--poll-interval", "0.2"])
        assert args.follow == "/ship"
        assert args.leader_url == "http://leader:80"
        assert args.poll_interval == 0.2

    def test_cmd_ship_once(self, tmp_path, capsys):
        from repro.cli import main

        pm = make_leader(tmp_path / "leader")
        drive(pm, random.Random(15), 10)
        expected_lsn = pm.wal.next_lsn
        pm.close()
        assert main(["ship", "--from", str(tmp_path / "leader"),
                     "--to", str(tmp_path / "ship"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "acked_lsn" in out
        f = FollowerService(str(tmp_path / "ship"))
        assert f.applied_lsn == expected_lsn

    def test_follower_over_http(self, tmp_path):
        import urllib.error
        import urllib.request

        from repro.service import ServiceHTTPServer

        pm, _, _, ship_dir = ship_pair(tmp_path)
        f = FollowerService(ship_dir, leader_url="http://leader:9")
        with ServiceHTTPServer(f, port=0) as server:
            host, port = server.address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(base + "/healthz") as resp:
                body = json.loads(resp.read())
            assert body["role"] == "follower"
            with urllib.request.urlopen(base + "/synopsis") as resp:
                payload = json.loads(resp.read())
            assert payload["total_results"] == pm.total_results(QUERY)
            with urllib.request.urlopen(base + "/metrics") as resp:
                assert b"repro_" in resp.read()
            # writes answer 403 and point at the leader
            req = urllib.request.Request(
                base + "/insert",
                data=json.dumps({"table": "r", "row": [1, 2]}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 403
            assert err.value.headers["Location"] == "http://leader:9"
            assert json.loads(err.value.read())["leader_url"] == \
                "http://leader:9"
        f.stop()
        pm.close()
