"""The durable wrapper: write-ahead logging + checkpoints + recovery.

:class:`PersistentManager` wraps a :class:`~repro.core.manager.SynopsisManager`
with the write-ahead discipline::

    log (fsync per policy)  →  apply in memory  →  acknowledge

so any op whose call returned is recoverable.  A ``checkpoint()`` writes
an atomic snapshot of the full logical state and truncates the log
segments the snapshot covers.  ``recover()`` loads the newest valid
snapshot, verifies it against its capture-time record, replays the WAL
tail, and returns a wrapper that continues — including the random sample
stream — exactly where the crashed process stopped.  A single maintained
query is a manager with one registration; there is no other durable
unit.

Directory layout (one per persistent instance)::

    <dir>/wal/        wal-<start_lsn:016x>.seg
    <dir>/snapshots/  snapshot-<seq:08x>.snap

Crash semantics: an op that was logged but whose call never returned
(the crash hit between fsync and acknowledgement) may legitimately
reappear after recovery — the guarantee is *no acknowledged op is ever
lost*, not exactly-once for unacknowledged calls.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.config import MaintainerConfig, coerce_config
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager
from repro.core.stats_api import (
    BatchResult,
    DeleteOp,
    InsertOp,
    ManagerStats,
    UpdateOp,
)
from repro.errors import PersistError, ReproError
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.persist.snapshot import SnapshotStore
from repro.persist.state import (
    STATE_KIND,
    capture_database,
    capture_manager,
    check_snapshot_format,
    restore_database,
    restore_manager,
    spec_from_dict,
    spec_to_dict,
)
from repro.persist.wal import WriteAheadLog

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

#: fields of a ``register`` WAL record, after the kind tag
_REGISTER_FIELDS = ("name", "sql", "spec", "engine", "seed")

#: recovery merges consecutive ``apply`` records into one
#: ``manager.apply_batch`` until the batch holds this many ops (records
#: are never split: the record that reaches the mark closes the batch).
#: A constant, not an option — the sweep that picked it is in
#: ``benchmarks/baselines/INDEX.md`` (PR 20): a log of one-op records
#: replays ~3x faster merged, and nothing is gained past a thousand ops
#: while the merged op list grows with the mark.
REPLAY_BATCH_OPS = 1024


def has_state(directory: str) -> bool:
    """True when ``directory`` holds recoverable durable state (at least
    one header-valid snapshot) — the discriminator between ``recover()``
    and a fresh :class:`PersistentManager` over the same path."""
    snapshot_dir = os.path.join(directory, SNAPSHOT_SUBDIR)
    if not os.path.isdir(snapshot_dir):
        return False
    return SnapshotStore(snapshot_dir).newest() is not None


def replay_manager_entry(manager: SynopsisManager, entry) -> int:
    """Apply one WAL entry; returns the op count it carried.

    The single decoder of the log format, shared by crash recovery
    (:meth:`PersistentManager.recover`) and the replication follower's
    logical replay — both must interpret a shipped record byte-for-byte
    identically or replicas diverge.  A record this release did not
    write (unknown kind, a ``register`` of another arity) is a
    :class:`~repro.errors.PersistError`, never a partial decode.
    """
    kind = entry[0]
    if kind == "apply":
        ops = entry[1]
        manager.apply_batch(ops)
        return len(ops)
    if kind == "register":
        if len(entry) != 1 + len(_REGISTER_FIELDS):
            raise PersistError(
                f"register WAL record has {len(entry) - 1} fields, "
                f"expected {len(_REGISTER_FIELDS)} {_REGISTER_FIELDS}; "
                "the log was not written by this release"
            )
        _, name, sql, spec_state, algorithm, seed = entry
        spec = (spec_from_dict(spec_state)
                if spec_state is not None else None)
        manager.register(name, sql, MaintainerConfig(
            spec=spec, engine=algorithm, seed=seed))
        return 1
    if kind == "unregister":
        manager.unregister(entry[1])
        return 1
    raise PersistError(f"unknown WAL entry kind {kind!r}")


class PersistentManager:
    """A :class:`SynopsisManager` with WAL + checkpoint durability.

    Registrations are WAL-logged alongside update ops: a ``register``
    with no explicit seed draws it from the manager's seed RNG, whose
    state is part of every snapshot — so replaying the registration after
    a crash derives the *same* per-query seed.
    """

    def __init__(self, manager: SynopsisManager, directory: str,
                 sync: str = "batch",
                 segment_max_bytes: int = 4 * 1024 * 1024,
                 retain: int = 2, sync_hook=None, obs=None,
                 _recovered: bool = False):
        self.manager = manager
        self.directory = directory
        self.obs = as_registry(obs)
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_SUBDIR),
            segment_max_bytes=segment_max_bytes,
            sync=sync, sync_hook=sync_hook,
        )
        self.snapshots = SnapshotStore(
            os.path.join(directory, SNAPSHOT_SUBDIR),
            retain=retain, sync_hook=sync_hook,
        )
        self.replayed_ops = 0
        self.replay_failures = 0
        self.recoveries = 0
        # the recovery split: snapshot -> live manager, then the WAL tail
        self.restore_seconds = 0.0
        self.replay_seconds = 0.0
        self.replay_batches = 0
        if not _recovered:
            if self.snapshots.load_latest() is not None:
                raise PersistError(
                    f"{directory!r} already holds snapshots; use "
                    "PersistentManager.recover() instead of wrapping a "
                    "fresh manager over existing state"
                )
            self.checkpoint()

    # ------------------------------------------------------------------
    # registration (logged)
    # ------------------------------------------------------------------
    def register(self, name: str, query: Union[str, object],
                 config: Optional[MaintainerConfig] = None,
                 ) -> JoinSynopsisMaintainer:
        config = coerce_config(config, owner="PersistentManager.register")
        if config.engine == "sj":
            raise PersistError(
                "algorithm 'sj' does not support persistence; register "
                "it on a plain SynopsisManager instead"
            )
        if config.effective_spec is not None:
            # everything else a config carries either is in the record
            # or does not change the sample (obs, name)
            raise PersistError(
                "PersistentManager.register refuses "
                "MaintainerConfig(effective_spec=...): the register WAL "
                f"record carries {_REGISTER_FIELDS} only, so recovery "
                "and every follower would rebuild this query with a "
                "different synopsis size; size it with spec="
            )
        sql = query if isinstance(query, str) else str(query)
        spec = config.spec
        self._log(("register", name, sql,
                   spec_to_dict(spec) if spec is not None else None,
                   config.engine, config.seed))
        return self.manager.register(name, sql, config)

    def unregister(self, name: str) -> None:
        self._log(("unregister", name))
        self.manager.unregister(name)

    def names(self) -> List[str]:
        return self.manager.names()

    def maintainer(self, name: str) -> JoinSynopsisMaintainer:
        return self.manager.maintainer(name)

    # ------------------------------------------------------------------
    # updates: log → apply → acknowledge (by returning)
    # ------------------------------------------------------------------
    def apply_batch(self, ops: Iterable[UpdateOp]) -> BatchResult:
        """Log the whole micro-batch as one WAL entry, then apply it."""
        if not isinstance(ops, list):
            ops = list(ops)
        self._log(("apply", ops))
        return self.manager.apply_batch(ops)

    def insert(self, table_name: str, row: Sequence[object]) -> int:
        return self.apply_batch(
            [InsertOp(table_name, tuple(row))]).tids[0]

    def delete(self, table_name: str, tid: int) -> None:
        self.apply_batch((DeleteOp(table_name, tid),))

    # ------------------------------------------------------------------
    # reads (pass-throughs)
    # ------------------------------------------------------------------
    def synopsis(self, name: str, limit: Optional[int] = None):
        return self.manager.synopsis(name, limit)

    def synopsis_entries(self, name: str, limit: Optional[int] = None):
        return self.manager.synopsis_entries(name, limit)

    def family_of(self, name: str) -> str:
        return self.manager.family_of(name)

    def total_results(self, name: str) -> int:
        return self.manager.total_results(name)

    def stats(self) -> ManagerStats:
        self._publish_metrics()
        return self.manager.stats()

    @property
    def db(self):
        return self.manager.db

    # ------------------------------------------------------------------
    # WAL + snapshot plumbing
    # ------------------------------------------------------------------
    def _log(self, entry: object) -> None:
        """Append one record: a stage of the timing channel, carrying
        the fsyncs and bytes it cost."""
        obs, wal = self.obs, self.wal
        started, syncs, written = obs.clock(), wal.syncs, wal.bytes_written
        try:
            wal.append(entry)
        finally:
            obs.report(metric_names.PERSIST_WAL_APPEND_NS,
                       obs.clock() - started, fsyncs=wal.syncs - syncs,
                       bytes=wal.bytes_written - written)

    def checkpoint(self) -> str:
        """Durably snapshot the full logical state; truncate covered WAL.

        Returns the snapshot file path.  Ops applied before this call are
        covered by the snapshot; the WAL restarts from a fresh segment.
        """
        lsn = self.wal.next_lsn
        payload = {
            "kind": STATE_KIND,
            "wal_lsn": lsn,
            "database": capture_database(self.manager.db),
            "manager": capture_manager(self.manager),
        }
        obs = self.obs
        started = obs.clock()
        try:
            path = self.snapshots.write(payload, wal_lsn=lsn)
        finally:
            obs.report(metric_names.PERSIST_SNAPSHOT_WRITE_NS,
                       obs.clock() - started, wal_lsn=lsn)
        self.wal.rotate()
        self.wal.truncate_through(lsn - 1)
        self._publish_metrics()
        return path

    def persist_metrics(self) -> dict:
        """Plain-dict persistence counters (always available, obs or not)."""
        return {
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.bytes_written,
            "wal_syncs": self.wal.syncs,
            "wal_rotations": self.wal.rotations,
            "snapshot_writes": self.snapshots.writes,
            "snapshot_bytes": self.snapshots.bytes_written,
            "recoveries": self.recoveries,
            "replayed_ops": self.replayed_ops,
            "replay_failures": self.replay_failures,
            "replay_batches": self.replay_batches,
            "recovery_restore_s": self.restore_seconds,
            "recovery_replay_s": self.replay_seconds,
        }

    def _publish_metrics(self) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        publish = [
            (metric_names.PERSIST_WAL_APPENDS, self.wal.appends),
            (metric_names.PERSIST_WAL_BYTES, self.wal.bytes_written),
            (metric_names.PERSIST_WAL_SYNCS, self.wal.syncs),
            (metric_names.PERSIST_WAL_ROTATIONS, self.wal.rotations),
            (metric_names.PERSIST_SNAPSHOT_WRITES, self.snapshots.writes),
            (metric_names.PERSIST_SNAPSHOT_BYTES,
             self.snapshots.bytes_written),
            (metric_names.PERSIST_RECOVERIES, self.recoveries),
            (metric_names.PERSIST_RECOVERY_REPLAYED_OPS,
             self.replayed_ops),
        ]
        for name, value in publish:
            obs.counter(name).value = value

    def close(self) -> None:
        """Flush and close the log (state remains recoverable)."""
        self.wal.close()

    def abandon(self) -> None:
        """Drop handles without syncing — crash simulation teardown."""
        self.wal.abandon()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, directory: str, sync: str = "batch",
                segment_max_bytes: int = 4 * 1024 * 1024,
                retain: int = 2, sync_hook=None, obs=None,
                manager_obs=None) -> "PersistentManager":
        """Load snapshot, verify, replay the WAL tail, resume."""
        obs = as_registry(obs)
        with obs.timer(metric_names.PERSIST_RECOVERY_NS):
            started = time.perf_counter()
            loaded = SnapshotStore(
                os.path.join(directory, SNAPSHOT_SUBDIR), retain=retain,
            ).load_latest()
            if loaded is None:
                raise PersistError(
                    f"no valid snapshot under {directory!r}; nothing to "
                    "recover"
                )
            payload, header = loaded
            check_snapshot_format(payload, f"snapshot under {directory!r}")
            db = restore_database(payload["database"])
            manager = restore_manager(db, payload["manager"],
                                      obs=manager_obs)
            self = cls(manager, directory, sync=sync,
                       segment_max_bytes=segment_max_bytes, retain=retain,
                       sync_hook=sync_hook, obs=obs, _recovered=True)
            self.recoveries += 1
            restored = time.perf_counter()
            self.restore_seconds = restored - started
            self._replay_tail(from_lsn=header["wal_lsn"])
            self.replay_seconds = time.perf_counter() - restored
        self._publish_metrics()
        return self

    def _replay_tail(self, from_lsn: int) -> None:
        """Replay the log from ``from_lsn``: consecutive ``apply``
        records merged into batches of :data:`REPLAY_BATCH_OPS` ops,
        every other record on its own, in log order."""
        records: List[list] = []    # op lists of consecutive applies
        held = 0
        for _, entry in self.wal.replay(from_lsn=from_lsn):
            if entry[0] == "apply":
                records.append(entry[1])
                held += len(entry[1])
                if held >= REPLAY_BATCH_OPS:
                    self._replay_applies(records)
                    records, held = [], 0
                continue
            self._replay_applies(records)
            records, held = [], 0
            try:
                self.replayed_ops += replay_manager_entry(
                    self.manager, entry)
            except PersistError:
                # a record this release cannot decode: stop, never
                # continue from a partially restored state
                raise
            except ReproError:
                # deterministic replay from the identical snapshot state:
                # an entry that fails now also failed (without mutating
                # state) in the original run — it was logged before apply
                self.replay_failures += 1
        self._replay_applies(records)

    def _replay_applies(self, records: List[list]) -> None:
        """Apply the op lists of consecutive ``apply`` records as one
        batch — serial ≡ batched for every batch size is what makes the
        merge exact — and account for them record by record.

        A batch that fails stopped where per-op application stops, at
        an op the same record failed on in the original run (it was
        logged before it was applied): that record is the failure, what
        it applied before the op stays applied, the rest of it is lost,
        and the records after it are replayed as a batch of their own.
        """
        while records:
            ops = [op for record in records for op in record]
            self.replay_batches += 1
            try:
                self.manager.apply_batch(ops)
            except ReproError as exc:
                done = 0
                for failed, record in enumerate(records):
                    if done + len(record) > exc.ops_applied:
                        break
                    done += len(record)
                self.replayed_ops += done
                self.replay_failures += 1
                records = records[failed + 1:]
            else:
                self.replayed_ops += len(ops)
                return
