"""Follower replicas: bootstrap from shipped state, tail the shipped WAL.

:class:`FollowerService` is the read-scale-out counterpart of
:class:`~repro.service.SynopsisService`.  It owns no write path at all:

1. **Bootstrap** — fetch the manifest's snapshot through the transport,
   validate it (:func:`repro.persist.snapshot.decode_snapshot_bytes`),
   and restore the full logical state — including the pinned RNG stream
   — through the same :mod:`repro.persist.state` machinery crash
   recovery uses.
2. **Tail** — poll the manifest; for every newly acked WAL record, read
   its bytes from the shipped segment, CRC-check the frame
   (:func:`repro.persist.wal.scan_frames`), and apply it through the
   shared logical-replay decoder
   (:func:`repro.persist.runtime.replay_manager_entry`).  A record
   beyond ``acked_lsn`` is never applied, even if its bytes are already
   visible — the manifest is the acknowledgement boundary.
3. **Serve** — after each applied record, publish an immutable
   :class:`~repro.service.runtime.ReadView` whose epoch *is* the
   follower's ``applied_lsn``, so any leader state at WAL position L and
   any follower view with ``epoch == L`` are directly comparable (and,
   by the determinism of logical replay, bit-identical).

Because replay is deterministic from the snapshot, the follower keeps
**no durable state of its own**: a crashed follower restarts by
constructing a fresh :class:`FollowerService` over the same transport,
which re-bootstraps and lands — always — on an acked prefix of the
leader's log.  The replication test suite's crash matrix exercises
exactly this property.

Writes are structurally rejected: every mutating entry point raises
:class:`~repro.errors.FollowerReadOnlyError` carrying the leader's URL
(mapped to HTTP 403 + ``Location`` by the serving layer).
"""

from __future__ import annotations

import pickle
import threading
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.errors import FollowerReadOnlyError, ReplicationError
from repro.obs import names as metric_names
from repro.obs.events import as_event_log
from repro.obs.expo import render_exposition
from repro.obs.metrics import as_registry
from repro.obs.quality import QualityMonitor, monitor_for
from repro.core.manager import SynopsisManager
from repro.persist.runtime import replay_manager_entry
from repro.persist.snapshot import decode_snapshot_bytes
from repro.persist.state import (
    check_snapshot_format,
    restore_database,
    restore_manager,
)
from repro.persist.wal import scan_frames
from repro.replicate.transport import ReplicationTransport, as_transport
from repro.service.runtime import ReadView, build_view


class FollowerService:
    """A read-only replica tailing a shipped WAL.

    Parameters
    ----------
    transport:
        The :class:`~repro.replicate.transport.ReplicationTransport` the
        leader ships through, or a directory path (coerced into a
        :class:`~repro.replicate.transport.DirectoryTransport`).
    leader_url:
        Where writes should go instead; carried on every
        :class:`~repro.errors.FollowerReadOnlyError` and surfaced as the
        HTTP ``Location`` header.
    clock:
        Wall-clock callable compared against the manifest's
        ``shipped_at`` to compute ``staleness_seconds``; injectable for
        deterministic tests (pair it with the shipper's clock).
    obs / events:
        Optional metrics registry / structured event log
        (``replicate.*`` catalogue; every replayed record is one
        reported stage carrying its ``lsn``; bootstrap, stall and
        resume transitions are emitted as ``replicate.*`` events).
    quality:
        A :class:`~repro.obs.quality.QualityConfig` (or ``True`` for
        the defaults) to probe the *replica's* restored engine for
        sample uniformity as records replay — the same monitor the
        leader's service runs (:func:`~repro.obs.quality.monitor_for`),
        publishing the same ``quality.*`` gauges into this follower's
        registry.
    stall_after:
        Manifest staleness (seconds) beyond which the follower declares
        the replication feed stalled: one ``replicate.stall`` event on
        the transition, ``replicate.resumed`` when the feed recovers.
        ``None`` (default) disables stall detection.

    The constructor attempts one bootstrap; when nothing has been
    shipped yet the follower stays in ``bootstrapping`` state and
    retries on every :meth:`catch_up` (or background poll).
    """

    def __init__(self, transport, leader_url: Optional[str] = None,
                 clock=time.time, obs=None, events=None,
                 quality=None, stall_after: Optional[float] = None):
        self.transport: ReplicationTransport = as_transport(transport)
        self.leader_url = leader_url
        self.clock = clock
        self.obs = as_registry(obs)
        self.events = as_event_log(events)
        self._quality = quality
        self.quality: Optional[QualityMonitor] = None
        self.stall_after = stall_after
        self._stalled = False
        self.stalls = 0
        # lag correlation against the manifest's publish watermarks
        self._wm_lsns: List[int] = []
        self._wm_appended: List[float] = []
        self.lag_samples = 0
        self.last_lag_ms: Optional[float] = None
        #: the restored manager (``None`` until the first bootstrap)
        self.target: Optional[SynopsisManager] = None
        self._applied_lsn = 0
        self._bootstrap_snapshot: Optional[str] = None
        # per-segment tail cursor: name -> byte offset of the next frame
        self._cursors: Dict[str, int] = {}
        self._manifest: Optional[dict] = None
        self._started_monotonic = time.monotonic()
        self._epoch = 0
        # work counters (always available, obs or not)
        self.polls = 0
        self.replayed_records = 0
        self.replayed_ops = 0
        self.bootstraps = 0
        self._view: Optional[ReadView] = None
        self._lock = threading.Lock()      # serializes catch_up callers
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.catch_up()

    # ------------------------------------------------------------------
    # replication pump
    # ------------------------------------------------------------------
    def catch_up(self) -> int:
        """Apply every newly acked WAL record; returns how many.

        One synchronous replication round: re-read the manifest,
        (re-)bootstrap if needed, tail the shipped segments up to
        ``acked_lsn``, publish a view per applied record.  Safe to call
        from tests for deterministic stepping, or from the background
        poll thread.
        """
        with self._lock:
            return self._catch_up_locked()

    def _catch_up_locked(self) -> int:
        self.polls += 1
        if self.obs.enabled:
            self.obs.counter(metric_names.REPLICATE_POLLS).value = \
                self.polls
        manifest = self.transport.read_manifest()
        if manifest is None:
            return 0
        self._manifest = manifest
        # older manifests (pre-watermark shippers) simply yield no lag
        # samples; everything else about them still replicates
        marks = manifest.get("watermarks") or ()
        self._wm_lsns = [int(mark["lsn"]) for mark in marks]
        self._wm_appended = [float(mark["appended_at"]) for mark in marks]
        if self._needs_bootstrap(manifest):
            self._bootstrap(manifest)
        applied = self._tail(manifest)
        self._publish_gauges(manifest)
        self._check_stall(manifest)
        return applied

    def _needs_bootstrap(self, manifest: dict) -> bool:
        if self.target is None:
            return True
        # the shipped segments must cover our position; when the leader
        # checkpointed past us and the covered segments were pruned, the
        # only way forward is a fresh bootstrap from the newer snapshot
        floor = self._segment_floor(manifest)
        return self._applied_lsn < floor

    @staticmethod
    def _segment_floor(manifest: dict) -> int:
        """The lowest LSN the shipped segments can replay from."""
        segments = manifest["segments"]
        if segments:
            return min(seg["start_lsn"] for seg in segments)
        snapshot = manifest.get("snapshot")
        return snapshot["wal_lsn"] if snapshot else 0

    def _bootstrap(self, manifest: dict) -> None:
        snapshot = manifest.get("snapshot")
        if snapshot is None:
            raise ReplicationError(
                "manifest advertises no snapshot; cannot bootstrap a "
                "follower from a WAL tail alone"
            )
        data = self.transport.fetch_snapshot(snapshot["name"])
        decoded = decode_snapshot_bytes(data)
        if decoded is None:
            raise ReplicationError(
                f"shipped snapshot {snapshot['name']} fails CRC/format "
                "validation; refusing to bootstrap from it"
            )
        payload, header = decoded
        check_snapshot_format(
            payload, f"shipped snapshot {snapshot['name']}",
            error=ReplicationError)
        self.target = restore_manager(
            restore_database(payload["database"]), payload["manager"])
        self._applied_lsn = int(header["wal_lsn"])
        self._bootstrap_snapshot = snapshot["name"]
        self._cursors.clear()
        self.bootstraps += 1
        self._attach_quality()
        if self.events.enabled:
            self.events.emit(
                "replicate.bootstrap", snapshot=snapshot["name"],
                wal_lsn=self._applied_lsn, bootstraps=self.bootstraps,
            )
        self._publish_view()

    def _attach_quality(self) -> None:
        """(Re)pick the quality monitor: bootstrap replaces the target
        wholesale, a replayed ``register`` / ``unregister`` changes the
        registration set."""
        self.quality = monitor_for(self.target, self._quality,
                                   obs=self.obs, events=self.events)

    def _tail(self, manifest: dict) -> int:
        """Replay shipped records in [applied_lsn, acked_lsn)."""
        applied = 0
        for seg in manifest["segments"]:
            end_lsn = seg["start_lsn"] + seg["records"]
            if end_lsn <= self._applied_lsn:
                continue
            applied += self._tail_segment(seg)
        return applied

    def _tail_segment(self, seg: dict) -> int:
        name = seg["name"]
        skip = self._applied_lsn - seg["start_lsn"]
        if skip < 0:
            raise ReplicationError(
                f"shipped WAL chain has a gap: follower is at LSN "
                f"{self._applied_lsn} but segment {name} starts at "
                f"{seg['start_lsn']}"
            )
        offset = self._cursors.get(name, 0)
        if offset == 0 and skip > 0:
            # first contact with this segment mid-way (fresh bootstrap):
            # walk the frames we already hold via the snapshot to find
            # the byte offset of the first record we still need
            offset = self._offset_of(seg, skip)
        data = self.transport.read_segment_bytes(
            name, offset, seg["size"] - offset)
        if offset + len(data) < seg["size"]:
            # advertised bytes not all visible yet (transport still
            # propagating); apply nothing now, retry next round
            return 0
        payloads, valid = scan_frames(data, base=offset)
        want = seg["records"] - skip
        if len(payloads) < want:
            raise ReplicationError(
                f"shipped segment {name} advertises "
                f"{seg['records']} records but only "
                f"{skip + len(payloads)} pass CRC validation; the "
                "shipped copy is torn or corrupted"
            )
        # never apply beyond the manifest: bytes past the advertised
        # record count may exist (a crashed shipper copy) but are unacked
        frames = payloads[:want]
        cursor = offset
        for payload in frames:
            self._apply_record(payload, name)
            # advance the cursor record by record so a failure mid-
            # segment can never re-apply an already-applied record on
            # the next round (frame header is 8 bytes: len + crc32)
            cursor += len(payload) + 8
            self._cursors[name] = cursor
        return len(frames)

    def _offset_of(self, seg: dict, skip: int) -> int:
        data = self.transport.read_segment_bytes(seg["name"], 0,
                                                 seg["size"])
        payloads, _ = scan_frames(data)
        if len(payloads) < skip:
            raise ReplicationError(
                f"shipped segment {seg['name']} holds only "
                f"{len(payloads)} valid records but the follower's "
                f"snapshot already covers {skip} of them"
            )
        return sum(len(p) + 8 for p in payloads[:skip])

    def _apply_record(self, payload: bytes, segment_name: str) -> None:
        record_lsn = self._applied_lsn
        try:
            entry = pickle.loads(payload)
        except Exception as exc:
            raise ReplicationError(
                f"shipped WAL record {record_lsn} of "
                f"{segment_name} failed to decode: {exc}"
            ) from exc
        obs = self.obs
        started = obs.clock()
        try:
            ops = replay_manager_entry(self.target, entry)
        finally:
            obs.report(metric_names.REPLICATE_REPLAY_NS,
                       obs.clock() - started, lsn=record_lsn)
        if entry[0] != "apply":
            self._attach_quality()     # the registration set changed
        self._applied_lsn += 1
        self.replayed_records += 1
        self.replayed_ops += ops
        self._observe_lag(record_lsn)
        if self.quality is not None:
            self.quality.note_ops(ops)
        self._publish_view()

    def _observe_lag(self, record_lsn: int) -> None:
        """True per-record replication lag via manifest watermarks.

        The earliest watermark with ``lsn > record_lsn`` is the ship
        round that first published this record; its ``appended_at`` is
        when the leader had appended every record that round covers.
        ``apply wall-clock − appended_at`` is therefore an upper-bound
        on this record's append-to-apply lag (exact at watermark
        granularity), observed into
        ``replicate.lag_ms{role="follower"}``.
        """
        i = bisect_right(self._wm_lsns, record_lsn)
        if i >= len(self._wm_lsns):
            return  # pre-watermark manifest, or history aged out
        lag_ms = max(
            0.0, (float(self.clock()) - self._wm_appended[i]) * 1000.0)
        self.lag_samples += 1
        self.last_lag_ms = lag_ms
        if self.obs.enabled:
            self.obs.histogram(metric_names.REPLICATE_LAG_MS).labels(
                role="follower").observe(lag_ms)

    def _publish_view(self) -> None:
        self._view = build_view(self.target, epoch=self._applied_lsn)

    def _publish_gauges(self, manifest: dict) -> None:
        if not self.obs.enabled:
            return
        obs = self.obs
        obs.counter(metric_names.REPLICATE_REPLAYED_RECORDS).value = \
            self.replayed_records
        obs.counter(metric_names.REPLICATE_REPLAYED_OPS).value = \
            self.replayed_ops
        obs.gauge(metric_names.REPLICATE_APPLIED_LSN).set(
            self._applied_lsn)
        obs.gauge(metric_names.REPLICATE_ACKED_LSN).set(
            manifest["acked_lsn"])
        obs.gauge(metric_names.REPLICATE_EPOCH_LAG).set(
            max(0, manifest["acked_lsn"] - self._applied_lsn))
        obs.gauge(metric_names.REPLICATE_STALENESS_SECONDS).set(
            self._staleness(manifest))
        if self.quality is not None:
            self.quality.publish(obs)
        if self.events.enabled:
            self.events.publish(obs)

    def _check_stall(self, manifest: dict) -> None:
        """Stall transitions against the ``stall_after`` staleness bound."""
        if self.stall_after is None:
            return
        staleness = self._staleness(manifest)
        stalled = staleness is not None and staleness > self.stall_after
        if stalled and not self._stalled:
            self.stalls += 1
            if self.events.enabled:
                self.events.emit(
                    "replicate.stall", staleness_seconds=staleness,
                    applied_lsn=self._applied_lsn,
                    acked_lsn=manifest["acked_lsn"],
                )
        elif self._stalled and not stalled and self.events.enabled:
            self.events.emit(
                "replicate.resumed", staleness_seconds=staleness,
                applied_lsn=self._applied_lsn,
                acked_lsn=manifest["acked_lsn"],
            )
        self._stalled = stalled

    def _staleness(self, manifest: Optional[dict]) -> Optional[float]:
        if manifest is None:
            return None
        return max(0.0, float(self.clock()) - manifest["shipped_at"])

    # ------------------------------------------------------------------
    # reads (the SynopsisService read surface, served from the view)
    # ------------------------------------------------------------------
    def view(self) -> ReadView:
        """The latest published :class:`ReadView` (one reference load)."""
        view = self._view
        if view is None:
            raise ReplicationError(
                "follower has not bootstrapped yet (nothing shipped)"
            )
        return view

    @property
    def bootstrapped(self) -> bool:
        return self._view is not None

    @property
    def epoch(self) -> int:
        """Epoch of the published view — the follower's applied LSN."""
        return self.view().epoch

    @property
    def applied_lsn(self) -> int:
        return self._applied_lsn

    @property
    def acked_lsn(self) -> int:
        """Newest shipped-and-acked LSN (0 before the first manifest)."""
        manifest = self._manifest
        return manifest["acked_lsn"] if manifest else 0

    def synopsis(self, name: Optional[str] = None,
                 limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """The published synopsis — a snapshot, not a live engine read
        (``name=None``: the sole registered query)."""
        return self.view().synopsis(name, limit)

    def total_results(self, name: Optional[str] = None) -> int:
        view = self.view()
        return view.total_results[view.resolve(name)]

    def names(self) -> List[str]:
        """Registered query names in the published view.

        Leader-side registrations replay onto the replica like any
        other WAL record, so this — and the AQP estimate path that a
        :class:`~repro.aqp.QueryRegistry` serves over this follower —
        needs no extra coordination: a query registered on the leader
        becomes estimable here as soon as its record is applied.
        """
        return sorted(self.view().synopses)

    def synopsis_payload(self, name: Optional[str] = None,
                         limit: Optional[int] = None) -> dict:
        """The ``/synopsis`` reply, built from ONE captured view."""
        return self.view().payload(name, limit)

    def stats(self):
        """The published view's typed stats snapshot."""
        return self.view().stats

    def healthz(self) -> dict:
        """Follower liveness: role, LSN positions, lag, staleness.

        ``status`` is ``"bootstrapping"`` until the first shipped
        snapshot restores, then ``"ok"``.  ``staleness_seconds`` is the
        age of the newest manifest (shipper liveness + write traffic);
        ``epoch_lag`` counts acked-but-unapplied WAL records.
        """
        from repro import __version__  # deferred: repro imports service

        manifest = self._manifest
        acked = manifest["acked_lsn"] if manifest else 0
        body = {
            "status": "ok" if self.bootstrapped else "bootstrapping",
            "role": "follower",
            "leader_url": self.leader_url,
            "epoch": self._applied_lsn if self.bootstrapped else 0,
            "applied_lsn": self._applied_lsn,
            "acked_lsn": acked,
            "epoch_lag": max(0, acked - self._applied_lsn),
            "epoch_lag_ops": max(0, acked - self._applied_lsn),
            "staleness_seconds": self._staleness(manifest),
            "ship_seq": manifest["ship_seq"] if manifest else 0,
            "snapshot": self._bootstrap_snapshot,
            "bootstraps": self.bootstraps,
            "lag_ms": self.last_lag_ms,
            "lag_samples": self.lag_samples,
            "stalled": self._stalled,
            "stalls": self.stalls,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "version": __version__,
        }
        if self.bootstrapped:
            body["synopsis_family"] = self._view.family_summary()
        if self.quality is not None:
            body["quality"] = self.quality.status()
        return body

    def service_metrics(self) -> dict:
        """Plain-dict follower counters (always available, obs or not)."""
        return {
            "epoch": self._applied_lsn,
            "applied_lsn": self._applied_lsn,
            "acked_lsn": self.acked_lsn,
            "polls": self.polls,
            "replayed_records": self.replayed_records,
            "replayed_ops": self.replayed_ops,
            "bootstraps": self.bootstraps,
            "lag_samples": self.lag_samples,
            "last_lag_ms": self.last_lag_ms,
            "stalls": self.stalls,
        }

    def events_payload(self, kind: Optional[str] = None) -> dict:
        """The ``GET /events`` body from this follower's event log."""
        return self.events.payload(kind)

    def metrics_snapshot(self) -> dict:
        """The view's target metrics merged with the follower registry."""
        merged: dict = {}
        view = self._view
        if view is not None:
            merged.update(view.metrics())
        if self.obs.enabled:
            merged.update(self.obs.snapshot())
        return merged

    def exposition(self) -> str:
        """The ``GET /metrics`` payload (Prometheus text format)."""
        return render_exposition(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # writes: structurally rejected
    # ------------------------------------------------------------------
    def _read_only(self, what: str) -> FollowerReadOnlyError:
        suffix = (f"; write to the leader at {self.leader_url}"
                  if self.leader_url else
                  "; write to the leader instead")
        return FollowerReadOnlyError(
            f"follower replicas are read-only: {what} rejected{suffix}",
            leader_url=self.leader_url,
        )

    def insert(self, target_name: str, row) -> int:
        raise self._read_only("insert")

    def delete(self, target_name: str, tid: int) -> None:
        raise self._read_only("delete")

    def apply_batch(self, ops, *, wait: bool = True):
        raise self._read_only("apply_batch")

    def register(self, name, query, config=None):
        raise self._read_only("register")

    def checkpoint(self) -> str:
        raise self._read_only("checkpoint")

    # ------------------------------------------------------------------
    # background pump + lifecycle
    # ------------------------------------------------------------------
    def start(self, poll_interval: float = 0.5) -> "FollowerService":
        """Poll the transport every ``poll_interval`` s on a daemon
        thread."""
        if self._thread is not None:
            raise ReplicationError("follower poll loop already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pump, args=(poll_interval,),
            name="repro-follower-tail", daemon=True,
        )
        self._thread.start()
        return self

    def _pump(self, poll_interval: float) -> None:
        while not self._stop.wait(poll_interval):
            try:
                self.catch_up()
            except ReplicationError:
                # transient (manifest racing a shipper round); the next
                # poll re-reads everything from scratch
                continue

    def stop(self) -> None:
        """Stop the poll loop (no-op when not running)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def close(self) -> None:
        """Alias for :meth:`stop` (the serving layer's shutdown verb)."""
        self.stop()

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "FollowerService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FollowerService(applied_lsn={self._applied_lsn}, "
                f"acked_lsn={self.acked_lsn}, "
                f"bootstrapped={self.bootstrapped})")
