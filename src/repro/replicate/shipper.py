"""The leader-side WAL shipper.

:class:`WalShipper` reads a leader's persistence directory (the
``<dir>/wal`` + ``<dir>/snapshots`` layout written by
:class:`repro.persist.PersistentManager`) and publishes its contents
through a :class:`~repro.replicate.transport.DirectoryTransport`:

1. the newest *fully validated* snapshot is shipped whole (atomically);
2. every WAL segment's new CRC-valid bytes are appended to its shipped
   copy — only complete records move, never a torn tail;
3. a manifest is published (atomically, last) advertising exactly what
   was shipped: the snapshot, each segment's valid size and record
   count, ``acked_lsn`` — the LSN one past the newest record a
   follower is allowed to replay — and a bounded list of
   ``watermarks`` correlating acked LSNs to leader append/publish
   wall-clock, from which followers derive per-record replication lag
   (``replicate.lag_ms``);
4. what that manifest no longer names is pruned: the segments its
   snapshot covers and every snapshot but its own, so the shipped
   directory holds one snapshot however many checkpoints the leader
   took.

Because the manifest only ever advertises bytes that were CRC-validated
*before* shipping and fully copied *before* publication, a follower that
trusts the manifest replays an acked prefix of the leader's log by
construction: a shipper crash between any two steps leaves either the
old manifest (followers ignore the partial new bytes) or the new one
(all advertised bytes are in place).  A follower still holding an older
manifest finds its snapshot or segments pruned and re-bootstraps from
the newer one.

The shipper itself is stateless across restarts — it reseeds its
"already shipped" bookkeeping from the published manifest, truncating
any unadvertised tail bytes a crashed copy left behind.

The shipper reads the leader's files directly (the WAL writes frames
unbuffered, so a completed ``apply`` is always visible), which keeps it
deployable as a sidecar process: it needs the directory, not the
process.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.errors import ReplicationError
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.persist.snapshot import (
    SnapshotStore,
    decode_snapshot_bytes,
)
from repro.persist.wal import scan_frames, list_segments
from repro.replicate.transport import (
    MANIFEST_VERSION,
    DirectoryTransport,
    as_transport,
)

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

#: manifest watermarks retained for follower lag correlation; at one
#: watermark per ship round this bounds the manifest while covering far
#: more history than any live follower is behind by
WATERMARK_CAPACITY = 128


class WalShipper:
    """Ship a leader persistence directory through a transport.

    Parameters
    ----------
    source_dir:
        The leader's persistence directory (holding ``wal/`` and
        ``snapshots/``), i.e. the ``directory`` a persistent wrapper
        was built over.
    transport:
        A :class:`~repro.replicate.transport.DirectoryTransport`, or
        a path coerced into one.
    clock:
        Wall-clock callable stamped into the manifest as ``shipped_at``
        (follower staleness is measured against it); injectable for
        deterministic tests.
    obs:
        Optional metrics registry (``replicate.ship*`` catalogue; a
        ship round is one reported stage carrying ``acked_lsn``).
    """

    def __init__(self, source_dir: str, transport, clock=time.time,
                 obs=None):
        self.source_dir = source_dir
        self.wal_dir = os.path.join(source_dir, WAL_SUBDIR)
        self.snapshot_dir = os.path.join(source_dir, SNAPSHOT_SUBDIR)
        self.transport: DirectoryTransport = as_transport(transport)
        self.clock = clock
        self.obs = as_registry(obs)
        # work counters (always available, obs or not)
        self.ships = 0
        self.segments_shipped = 0
        self.snapshots_shipped = 0
        self.bytes_shipped = 0
        # bookkeeping reseeded from the published manifest
        manifest = self.transport.read_manifest()
        self._ship_seq = manifest["ship_seq"] if manifest else 0
        self._shipped_sizes: Dict[str, int] = {}
        self._shipped_records: Dict[str, int] = {}
        self._shipped_snapshot: Optional[str] = None
        # publish-time watermarks correlating acked LSNs back to leader
        # append wall-clock; followers use them for per-record lag
        self._watermarks: deque = deque(maxlen=WATERMARK_CAPACITY)
        self._round_mtime: Optional[float] = None
        if manifest is not None:
            for seg in manifest["segments"]:
                self._shipped_sizes[seg["name"]] = seg["size"]
                self._shipped_records[seg["name"]] = seg["records"]
            if manifest["snapshot"]:
                self._shipped_snapshot = manifest["snapshot"]["name"]
            for mark in manifest["watermarks"]:
                self._watermarks.append(dict(mark))
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def ship_once(self) -> dict:
        """Run one ship round; returns the manifest that was published.

        Idempotent: a round with nothing new republishes an equivalent
        manifest (fresh ``shipped_at``, so followers' staleness bound
        keeps tracking shipper liveness, not just write traffic).
        """
        obs = self.obs
        started = obs.clock()
        try:
            return self._ship_once()
        finally:
            obs.report(metric_names.REPLICATE_SHIP_NS,
                       obs.clock() - started, acked_lsn=self._last_acked)

    def _ship_once(self) -> dict:
        self._round_mtime = None
        snapshot_entry = self._ship_snapshot()
        segment_entries = self._ship_segments(snapshot_entry)
        acked = snapshot_entry["wal_lsn"] if snapshot_entry else 0
        for seg in segment_entries:
            acked = max(acked, seg["start_lsn"] + seg["records"])
        self._ship_seq += 1
        shipped_at = float(self.clock())
        self._mark_watermark(acked, shipped_at)
        manifest = {
            "version": MANIFEST_VERSION,
            "ship_seq": self._ship_seq,
            "shipped_at": shipped_at,
            "acked_lsn": acked,
            "snapshot": snapshot_entry,
            "segments": segment_entries,
            "watermarks": [dict(mark) for mark in self._watermarks],
        }
        self.transport.publish_manifest(manifest)
        self._last_acked = acked
        self.ships += 1
        self._prune(manifest)
        self._publish_metrics(acked)
        return manifest

    _last_acked = 0

    def _mark_watermark(self, acked: int, shipped_at: float) -> None:
        """Stamp a publish-time watermark when ``acked_lsn`` advances.

        A watermark ``{"lsn", "shipped_at", "appended_at"}`` asserts:
        every record below ``lsn`` was appended to the leader WAL by
        ``appended_at`` and published for followers at ``shipped_at``.
        ``appended_at`` comes from the source segments' mtimes, clamped
        by ``shipped_at`` so an injected test clock stays consistent
        (real mtimes would otherwise dwarf a synthetic clock).  The
        shipper observes the publish delay itself as
        ``replicate.lag_ms{role="leader"}``; followers correlate their
        applied LSNs against the same watermarks for end-to-end lag.
        """
        last = self._watermarks[-1]["lsn"] if self._watermarks else 0
        if acked <= last:
            return
        appended_at = shipped_at
        if self._round_mtime is not None:
            appended_at = min(self._round_mtime, shipped_at)
        self._watermarks.append({
            "lsn": acked,
            "shipped_at": shipped_at,
            "appended_at": appended_at,
        })
        if self.obs.enabled:
            self.obs.histogram(metric_names.REPLICATE_LAG_MS).labels(
                role="leader").observe(
                    max(0.0, (shipped_at - appended_at) * 1000.0))

    # ------------------------------------------------------------------
    def _ship_snapshot(self) -> Optional[dict]:
        """Ship the newest valid leader snapshot; returns its entry."""
        store = SnapshotStore(self.snapshot_dir)
        info = store.newest()
        if info is None:
            return None
        if info.name == self._shipped_snapshot:
            return {"name": info.name, "wal_lsn": info.wal_lsn}
        try:
            with open(info.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ReplicationError(
                f"leader snapshot {info.path} vanished mid-ship: {exc}"
            ) from exc
        # the manifest must never advertise an artifact a follower
        # cannot use, so the payload is CRC-validated before shipping
        decoded = decode_snapshot_bytes(data)
        if decoded is None:
            raise ReplicationError(
                f"leader snapshot {info.path} fails validation; "
                "refusing to ship it"
            )
        self.transport.put_snapshot(info.name, data)
        self._shipped_snapshot = info.name
        self.snapshots_shipped += 1
        self.bytes_shipped += len(data)
        return {"name": info.name, "wal_lsn": info.wal_lsn}

    def _ship_segments(self,
                       snapshot_entry: Optional[dict]) -> List[dict]:
        """Append each segment's new CRC-valid bytes to its shipped copy."""
        entries: List[dict] = []
        floor = snapshot_entry["wal_lsn"] if snapshot_entry else 0
        for start_lsn, path in list_segments(self.wal_dir):
            name = os.path.basename(path)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                    mtime = os.fstat(fh.fileno()).st_mtime
            except OSError:
                continue  # truncated away by a leader checkpoint; skip
            if self._round_mtime is None or mtime > self._round_mtime:
                self._round_mtime = mtime
            payloads, valid = scan_frames(data)
            if start_lsn + len(payloads) <= floor:
                # every record is already folded into the shipped
                # snapshot; don't ship (or re-ship) dead weight
                self._shipped_sizes.pop(name, None)
                self._shipped_records.pop(name, None)
                continue
            shipped = self._shipped_sizes.get(name, 0)
            if valid < shipped:
                raise ReplicationError(
                    f"leader segment {name} shrank from {shipped} to "
                    f"{valid} valid bytes; the WAL never truncates "
                    "records, so the source directory is not the log "
                    "this shipper was tracking"
                )
            if valid > shipped:
                self.transport.put_segment_bytes(
                    name, shipped, data[shipped:valid])
                self.segments_shipped += 1
                self.bytes_shipped += valid - shipped
            self._shipped_sizes[name] = valid
            self._shipped_records[name] = len(payloads)
            entries.append({
                "name": name,
                "start_lsn": start_lsn,
                "size": valid,
                "records": len(payloads),
            })
        self._check_contiguous(floor, entries)
        return entries

    @staticmethod
    def _check_contiguous(floor: int, entries: List[dict]) -> None:
        """The advertised chain must cover [snapshot LSN, acked LSN)."""
        at = floor
        for seg in entries:
            if seg["start_lsn"] > at:
                raise ReplicationError(
                    f"shipped WAL chain has a gap: snapshot covers up "
                    f"to LSN {at} but the next segment starts at "
                    f"{seg['start_lsn']}"
                )
            at = max(at, seg["start_lsn"] + seg["records"])

    def _prune(self, manifest: dict) -> None:
        """Drop shipped artifacts the just-published manifest dropped:
        the segments it no longer names, and every snapshot but the one
        it names."""
        keep_segments = {seg["name"] for seg in manifest["segments"]}
        for name in self.transport.segment_names():
            if name not in keep_segments:
                self.transport.remove_segment(name)
                self._shipped_sizes.pop(name, None)
                self._shipped_records.pop(name, None)
        snapshot = manifest["snapshot"]
        for name in self.transport.snapshot_names():
            if snapshot is None or name != snapshot["name"]:
                self.transport.remove_snapshot(name)

    def _publish_metrics(self, acked: int) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        obs.counter(metric_names.REPLICATE_SHIPS).value = self.ships
        obs.counter(metric_names.REPLICATE_SHIP_SEGMENTS).value = \
            self.segments_shipped
        obs.counter(metric_names.REPLICATE_SHIP_SNAPSHOTS).value = \
            self.snapshots_shipped
        obs.counter(metric_names.REPLICATE_SHIP_BYTES).value = \
            self.bytes_shipped
        obs.gauge(metric_names.REPLICATE_ACKED_LSN).set(acked)

    # ------------------------------------------------------------------
    def ship_metrics(self) -> dict:
        """Plain-dict shipper counters (always available, obs or not)."""
        return {
            "ships": self.ships,
            "segments_shipped": self.segments_shipped,
            "snapshots_shipped": self.snapshots_shipped,
            "bytes_shipped": self.bytes_shipped,
            "acked_lsn": self._last_acked,
        }

    # ------------------------------------------------------------------
    # background pump (the `repro ship` runtime)
    # ------------------------------------------------------------------
    def start(self, interval: float = 1.0) -> None:
        """Ship every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            raise ReplicationError("shipper is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pump, args=(interval,),
            name="repro-wal-shipper", daemon=True,
        )
        self._thread.start()

    def _pump(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.ship_once()
            except ReplicationError:
                # transient (e.g. leader checkpoint racing the scan);
                # the next round re-reads everything from scratch
                continue

    def stop(self) -> None:
        """Stop the background pump (no-op when not running)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WalShipper(source={self.source_dir!r}, "
                f"ships={self.ships})")
