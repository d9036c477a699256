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
   (:func:`repro.persist.wal.scan_frames`), decode it
   (:func:`repro.persist.wal.decode_record`) and apply it through
   recovery's own replay routine
   (:func:`repro.persist.runtime.replay_entries`) — so a record that
   failed on the leader fails here at the same op, keeps the prefix it
   applied, counts as a failure and is never applied again.  A record
   beyond ``acked_lsn`` is never applied, even if its bytes are already
   visible — the manifest is the acknowledgement boundary.
3. **Serve** — after each applied record, publish an immutable
   :class:`~repro.service.runtime.ReadView` whose epoch *is* the
   follower's ``applied_lsn``, so any leader state at WAL position L and
   any follower view with ``epoch == L`` are directly comparable (and,
   by the determinism of logical replay, bit-identical).  The reads are
   the leader's own (:class:`~repro.service.runtime.ReadHalf`).

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

import threading
import time
from bisect import bisect_right
from typing import Dict, List, Optional

from repro.errors import FollowerReadOnlyError, ReplicationError
from repro.obs import names as metric_names
from repro.persist.runtime import replay_entries
from repro.persist.snapshot import decode_snapshot_bytes
from repro.persist.state import (
    bulk_load,
    check_snapshot_format,
    covered_lsn,
    restore_database,
    restore_manager,
)
from repro.persist.wal import decode_record, scan_frames
from repro.replicate.transport import DirectoryTransport, as_transport
from repro.service.runtime import ReadHalf, ReadView


class FollowerService(ReadHalf):
    """A read-only replica tailing a shipped WAL.

    Parameters
    ----------
    transport:
        The :class:`~repro.replicate.transport.DirectoryTransport` the
        leader ships through, or a directory path coerced into one.
    leader_url:
        Where writes should go instead; carried on every
        :class:`~repro.errors.FollowerReadOnlyError` and surfaced as the
        HTTP ``Location`` header.
    clock:
        Wall-clock callable compared against the manifest's
        ``shipped_at`` to compute ``staleness_seconds``; injectable for
        deterministic tests (pair it with the shipper's clock).
    obs:
        Optional metrics registry (``replicate.*`` catalogue; every
        replayed record is one reported stage carrying its ``lsn``;
        bootstrap, stall and resume transitions are emitted as
        ``replicate.*`` events to its event log).
    quality:
        ``True`` probes the *replica's* restored engine for sample
        uniformity as records replay — the same monitor the leader's
        service runs (:func:`~repro.obs.quality.monitor_for`),
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
                 clock=time.time, obs=None, quality: bool = False,
                 stall_after: Optional[float] = None):
        super().__init__(obs, quality)
        self.transport: DirectoryTransport = as_transport(transport)
        self.leader_url = leader_url
        self.clock = clock
        self.stall_after = stall_after
        self._stalled = False
        self.stalls = 0
        # lag correlation against the manifest's publish watermarks
        self._wm_lsns: List[int] = []
        self._wm_appended: List[float] = []
        self.lag_samples = 0
        self.last_lag_ms: Optional[float] = None
        #: the restored manager (``None`` until the first bootstrap)
        self.target = None
        self._applied_lsn = 0
        #: ``applied_lsn`` when the last failed round raised
        self._failed_at = 0
        self._bootstrap_snapshot: Optional[str] = None
        # per-segment tail cursor: name -> byte offset of the next frame
        self._cursors: Dict[str, int] = {}
        self._manifest: Optional[dict] = None
        # work counters (always available, obs or not)
        self.polls = 0
        self.replayed_records = 0
        self.replayed_ops = 0
        #: records that failed on the leader and, replayed, here too
        self.replay_failures = 0
        self.bootstraps = 0
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
        poll thread.  A round that raises leaves its error in
        ``/healthz`` (``status: "failed"``, ``last_error``) until a
        later round applies past the LSN it failed at (or re-bootstraps
        past it), or completes with nothing left to apply.
        """
        with self._lock:
            try:
                applied = self._catch_up_locked()
            except Exception as exc:
                self._failure, self._failed_at = exc, self._applied_lsn
                raise
            # a round that completes still applied nothing when it read a
            # pruned segment as "not visible yet": stay failed while the
            # replica is behind, at the LSN it failed at
            if (self._applied_lsn > self._failed_at
                    or self._applied_lsn >= self.acked_lsn):
                self._failure = None
            return applied

    def _catch_up_locked(self) -> int:
        self.polls += 1
        if self.obs.enabled:
            self.obs.counter(metric_names.REPLICATE_POLLS).value = \
                self.polls
        manifest = self.transport.read_manifest()
        if manifest is None:
            return 0
        self._manifest = manifest
        marks = manifest["watermarks"]
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
        snapshot = manifest["snapshot"]
        return snapshot["wal_lsn"] if snapshot else 0

    def _bootstrap(self, manifest: dict) -> None:
        snapshot = manifest["snapshot"]
        if snapshot is None:
            raise ReplicationError(
                "manifest advertises no snapshot; cannot bootstrap a "
                "follower from a WAL tail alone"
            )
        data = self.transport.fetch_snapshot(snapshot["name"])
        with bulk_load():
            decoded = decode_snapshot_bytes(data)
            if decoded is None:
                raise ReplicationError(
                    f"shipped snapshot {snapshot['name']} fails CRC/format "
                    "validation; refusing to bootstrap from it"
                )
            payload, header = decoded
            where = f"shipped snapshot {snapshot['name']}"
            check_snapshot_format(payload, where, error=ReplicationError)
            wal_lsn = covered_lsn(payload, header, where,
                                  error=ReplicationError)
            self.target = restore_manager(
                restore_database(payload["database"]), payload["manager"])
        self._applied_lsn = wal_lsn
        self._bootstrap_snapshot = snapshot["name"]
        self._cursors.clear()
        self.bootstraps += 1
        self._pick_quality()
        if self.obs.events.enabled:
            self.obs.events.emit(
                "replicate.bootstrap", snapshot=snapshot["name"],
                wal_lsn=self._applied_lsn, bootstraps=self.bootstraps,
            )
        self._publish_view(self._applied_lsn)

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
        """Replay one record as recovery would; a record this replica
        cannot decode or apply is a :class:`ReplicationError` and
        leaves ``applied_lsn`` where it was."""
        record_lsn = self._applied_lsn
        where = f"shipped WAL record {record_lsn} of {segment_name}"
        entry = decode_record(payload, where, error=ReplicationError)
        obs = self.obs
        started = obs.clock()
        try:
            ops, failures, _ = replay_entries(self.target, (entry,))
        except Exception as exc:
            raise ReplicationError(
                f"{where} cannot be replayed: {exc!r}") from exc
        finally:
            obs.report(metric_names.REPLICATE_REPLAY_NS,
                       obs.clock() - started, lsn=record_lsn)
        if entry[0] != "apply":
            self._pick_quality()     # the registration set changed
        self._applied_lsn += 1
        self.replayed_records += 1
        self.replayed_ops += ops
        self.replay_failures += failures
        self._observe_lag(record_lsn)
        if self.quality is not None:
            self.quality.note_ops(ops)
        self._publish_view(self._applied_lsn)

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
            return  # no watermark covers it yet, or history aged out
        lag_ms = max(
            0.0, (float(self.clock()) - self._wm_appended[i]) * 1000.0)
        self.lag_samples += 1
        self.last_lag_ms = lag_ms
        if self.obs.enabled:
            self.obs.histogram(metric_names.REPLICATE_LAG_MS).labels(
                role="follower").observe(lag_ms)

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
        self._publish_read_gauges()

    def _check_stall(self, manifest: dict) -> None:
        """Stall transitions against the ``stall_after`` staleness bound."""
        if self.stall_after is None:
            return
        staleness = self._staleness(manifest)
        stalled = staleness is not None and staleness > self.stall_after
        events = self.obs.events
        if stalled and not self._stalled:
            self.stalls += 1
            if events.enabled:
                events.emit(
                    "replicate.stall", staleness_seconds=staleness,
                    applied_lsn=self._applied_lsn,
                    acked_lsn=manifest["acked_lsn"],
                )
        elif self._stalled and not stalled and events.enabled:
            events.emit(
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
    # the replica's own read fields (the rest is ReadHalf)
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
    def applied_lsn(self) -> int:
        return self._applied_lsn

    @property
    def acked_lsn(self) -> int:
        """Newest shipped-and-acked LSN (0 before the first manifest)."""
        manifest = self._manifest
        return manifest["acked_lsn"] if manifest else 0

    def _health(self, view: Optional[ReadView]) -> dict:
        """Role, LSN positions, lag, staleness.  ``status`` is
        ``"bootstrapping"`` until the first shipped snapshot restores,
        then ``"ok"`` (``"failed"`` while the last round raised).
        ``staleness_seconds`` is the age of the newest manifest (shipper
        liveness + write traffic); ``epoch_lag`` counts
        acked-but-unapplied WAL records."""
        manifest = self._manifest
        lag = max(0, self.acked_lsn - self._applied_lsn)
        return {
            "status": "ok" if view is not None else "bootstrapping",
            "role": "follower",
            "leader_url": self.leader_url,
            "applied_lsn": self._applied_lsn,
            "acked_lsn": self.acked_lsn,
            "epoch_lag": lag,
            "epoch_lag_ops": lag,
            "staleness_seconds": self._staleness(manifest),
            "ship_seq": manifest["ship_seq"] if manifest else 0,
            "snapshot": self._bootstrap_snapshot,
            "bootstraps": self.bootstraps,
            "lag_ms": self.last_lag_ms,
            "lag_samples": self.lag_samples,
            "stalled": self._stalled,
            "stalls": self.stalls,
        }

    def service_metrics(self) -> dict:
        """Plain-dict follower counters (always available, obs or not)."""
        return {
            "epoch": self._applied_lsn,
            "applied_lsn": self._applied_lsn,
            "acked_lsn": self.acked_lsn,
            "polls": self.polls,
            "replayed_records": self.replayed_records,
            "replayed_ops": self.replayed_ops,
            "replay_failures": self.replay_failures,
            "bootstraps": self.bootstraps,
            "lag_samples": self.lag_samples,
            "last_lag_ms": self.last_lag_ms,
            "stalls": self.stalls,
        }

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
            except Exception:
                # catch_up left the error in /healthz; a transient one
                # (a manifest racing a shipper round) clears on the next
                # poll, which re-reads everything from scratch
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FollowerService(applied_lsn={self._applied_lsn}, "
                f"acked_lsn={self.acked_lsn}, "
                f"bootstrapped={self.bootstrapped})")
