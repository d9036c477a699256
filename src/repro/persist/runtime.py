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
import reprlib
import time
from typing import (Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

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
from repro.errors import (InvalidArgumentError, PersistError, RecoveryError,
                          ReproError)
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.persist.snapshot import SnapshotStore
from repro.persist.state import (
    STATE_KIND,
    bulk_load,
    capture_database,
    capture_manager,
    check_snapshot_format,
    covered_lsn,
    restore_database,
    restore_manager,
    spec_from_dict,
    spec_to_dict,
)
from repro.persist.wal import WriteAheadLog

WAL_SUBDIR = "wal"
SNAPSHOT_SUBDIR = "snapshots"

#: fields of each WAL record kind, after the kind tag
_RECORD_FIELDS = {
    "apply": ("ops",),
    "register": ("name", "sql", "spec", "engine", "seed"),
    "unregister": ("name",),
}

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


def encode_ops(ops: List[UpdateOp]) -> list:
    """An ``apply`` record's op list: ``("insert", table, row)`` /
    ``("delete", table, tid)`` per op; anything else is refused."""
    return [("insert", op.target, op.row) if isinstance(op, InsertOp)
            else ("delete", op.target, op.tid) if isinstance(op, DeleteOp)
            else _refuse_op(op) for op in ops]


def _refuse_op(op) -> None:
    raise InvalidArgumentError(
        f"cannot log {op!r}: expected InsertOp or DeleteOp")


def decode_ops(plain, _new=object.__new__,
               _insert_target=InsertOp.target.__set__,
               _insert_row=InsertOp.row.__set__,
               _delete_target=DeleteOp.target.__set__,
               _delete_tid=DeleteOp.tid.__set__) -> List[UpdateOp]:
    """The ops of an :func:`encode_ops` list, fields written through the
    records' slot descriptors as unpickling writes them (a logged row is
    already a tuple); malformed: PersistError."""
    ops = []
    try:
        for kind, target, value in plain:
            if kind == "insert":
                op = _new(InsertOp)
                _insert_target(op, target)
                _insert_row(op, value)
            elif kind == "delete":
                op = _new(DeleteOp)
                _delete_target(op, target)
                _delete_tid(op, value)
            else:
                raise PersistError(f"unknown op kind {kind!r}")
            ops.append(op)
    except (TypeError, ValueError) as exc:
        raise PersistError(f"malformed apply record: {exc}") from exc
    return ops


def replay_manager_entry(manager: SynopsisManager, entry) -> int:
    """Apply one WAL entry; returns the op count it carried.

    The single interpreter of the log format, which
    :func:`replay_entries` — crash recovery and the replication
    follower alike — hands every record that is not an ``apply``: both
    must interpret a record identically or replicas diverge.  A record
    this release did not write (not a tuple, unknown kind, a kind of
    another arity, a ``register`` spec that is not a spec dict) is a
    :class:`~repro.errors.PersistError`, never a partial decode.
    """
    kind = _record_kind(entry)
    if kind == "apply":
        ops = decode_ops(entry[1])
        manager.apply_batch(ops)
        return len(ops)
    if kind == "register":
        _, name, sql, spec_state, algorithm, seed = entry
        try:
            spec = (spec_from_dict(spec_state)
                    if spec_state is not None else None)
        except (KeyError, TypeError) as exc:
            raise PersistError(
                f"register WAL record {reprlib.repr(entry)} has an "
                f"unreadable spec: {exc!r}") from exc
        manager.register(name, sql, MaintainerConfig(
            spec=spec, engine=algorithm, seed=seed))
        return 1
    manager.unregister(entry[1])
    return 1


def _record_kind(entry) -> str:
    """The kind of a WAL record of a shape this release writes: a tuple
    of a known kind tag and that kind's field count.  Anything else is a
    :class:`~repro.errors.PersistError` naming the record."""
    if not isinstance(entry, tuple) or not entry:
        raise PersistError(f"malformed WAL record {reprlib.repr(entry)}: "
                           "expected a non-empty tuple")
    kind = entry[0]
    if not isinstance(kind, str) or kind not in _RECORD_FIELDS:
        raise PersistError(f"unknown WAL entry kind {kind!r} in "
                           f"{reprlib.repr(entry)}")
    fields = _RECORD_FIELDS[kind]
    if len(entry) != 1 + len(fields):
        raise PersistError(
            f"{kind} WAL record has {len(entry) - 1} fields, expected "
            f"{len(fields)} {fields}; the log was not written by this "
            "release")
    return kind


def replay_entries(manager: SynopsisManager,
                   entries: Iterable) -> Tuple[int, int, int]:
    """Apply logged entries in log order to land where the leader did;
    returns ``(ops, failures, batches)``.

    The one replay routine: crash recovery runs it over the WAL tail, a
    follower over each shipped record.  Consecutive ``apply`` records
    are merged into one ``manager.apply_batch`` until it holds
    :data:`REPLAY_BATCH_OPS` ops — serial ≡ batched for every batch size
    is what makes the merge exact.  Every record was logged before it
    was applied, so a record that fails here failed on the leader too,
    at the same op, from the same state: what it applied before that op
    stays applied, it counts as one failure and for no ``ops``, and the
    records after it carry on.  A record this release cannot read
    (:func:`replay_manager_entry`) raises its
    :class:`~repro.errors.PersistError`; nothing continues from a
    partially restored state.  ``batches`` counts the merged
    ``apply_batch`` calls.
    """
    ops = failures = batches = 0
    held: List[list] = []     # op lists of consecutive apply records
    held_ops = 0

    def apply_held() -> None:
        nonlocal ops, failures, batches, held, held_ops
        records, held, held_ops = held, [], 0
        while records:
            merged = [op for record in records for op in record]
            batches += 1
            try:
                manager.apply_batch(merged)
            except ReproError as exc:
                # the batch stopped at an op the same record failed on
                # in the original run; the records behind it are a
                # batch of their own
                done = 0
                for failed, record in enumerate(records):
                    if done + len(record) > exc.ops_applied:
                        break
                    done += len(record)
                ops += done
                failures += 1
                records = records[failed + 1:]
            else:
                ops += len(merged)
                return

    for entry in entries:
        if _record_kind(entry) == "apply":
            record = decode_ops(entry[1])
            held.append(record)
            held_ops += len(record)
            if held_ops >= REPLAY_BATCH_OPS:
                apply_held()
            continue
        apply_held()
        try:
            ops += replay_manager_entry(manager, entry)
        except PersistError:
            raise
        except ReproError:
            failures += 1
    apply_held()
    return ops, failures, batches


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
                f"record carries {_RECORD_FIELDS['register']} only, so "
                "recovery and every follower would rebuild this query with a "
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
        self._log(("apply", encode_ops(ops)))
        return self.manager.apply_batch(ops)

    def insert(self, table_name: str, row: Sequence[object]) -> int:
        return self.apply_batch(
            [InsertOp(table_name, tuple(row))]).tids[0]

    def delete(self, table_name: str, tid: int) -> None:
        self.apply_batch((DeleteOp(table_name, tid),))

    # ------------------------------------------------------------------
    # reads (pass-throughs)
    # ------------------------------------------------------------------
    def synopsis(self, name: str):
        return self.manager.synopsis(name)

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
                retain: int = 2, sync_hook=None,
                obs=None) -> "PersistentManager":
        """Load snapshot, verify, replay the WAL tail, resume.

        ``obs`` observes the recovered manager and its persistence
        alike, as one registry over a fresh stack does.

        The whole call runs as one :func:`~repro.persist.state.bulk_load`
        (no collector sweeps), and the decoded snapshot is dropped once
        the manager is rebuilt from it, so the replay does not run
        beside it.
        """
        obs = as_registry(obs)
        with bulk_load():
            with obs.timer(metric_names.PERSIST_RECOVERY_NS):
                started = time.perf_counter()
                loaded = SnapshotStore(
                    os.path.join(directory, SNAPSHOT_SUBDIR), retain=retain,
                ).load_latest()
                if loaded is None:
                    raise PersistError(
                        f"no valid snapshot under {directory!r}; nothing "
                        "to recover"
                    )
                payload, header = loaded
                where = f"snapshot under {directory!r}"
                check_snapshot_format(payload, where)
                wal_lsn = covered_lsn(payload, header, where)
                db = restore_database(payload["database"])
                manager = restore_manager(db, payload["manager"], obs=obs)
                del loaded, payload, header
                self = cls(manager, directory, sync=sync,
                           segment_max_bytes=segment_max_bytes,
                           retain=retain, sync_hook=sync_hook, obs=obs,
                           _recovered=True)
                self.recoveries += 1
                restored = time.perf_counter()
                self.restore_seconds = restored - started
                (self.replayed_ops, self.replay_failures,
                 self.replay_batches) = replay_entries(
                    manager, _log_from(self.wal, wal_lsn))
                self.replay_seconds = time.perf_counter() - restored
            self._publish_metrics()
        return self


def _log_from(wal: WriteAheadLog, lsn: int) -> Iterator:
    """The logged entries from ``lsn`` on, which must follow each other
    without a gap: a log that no longer holds a record the snapshot does
    not cover (an older snapshot's records were truncated by a newer
    checkpoint, or a sealed segment lost a record) would replay a state
    no process was ever in, so it is a :class:`~repro.errors.RecoveryError`."""
    expected = lsn
    for got, entry in wal.replay(from_lsn=lsn):
        if got != expected:
            break
        expected += 1
        yield entry
    if wal.next_lsn > expected:
        raise RecoveryError(
            f"the WAL under {wal.directory!r} does not hold record "
            f"{expected} of the {wal.next_lsn - lsn} after the snapshot "
            f"(LSN {lsn}); refusing to replay past the gap")
