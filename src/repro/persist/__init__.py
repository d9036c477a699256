"""Durable checkpoint + write-ahead-log recovery (``repro.persist``).

Public surface:

* :class:`PersistentManager` — the durable wrapper around a
  :class:`~repro.core.manager.SynopsisManager` (log → apply →
  acknowledge); a single maintained query is a manager with one
  registration.
* :class:`WriteAheadLog` — CRC-framed, segmented op log.
* :class:`SnapshotStore` — atomic, versioned, CRC-verified snapshots.
* :func:`capture_manager` & friends — the logical-state capture layer
  (one format: version :data:`STATE_VERSION`, kind ``"manager"``).
* :class:`CrashPoint` / :class:`CrashPointInjector` — deterministic
  crash injection at every fsync boundary, for the crash-matrix tests.
* :class:`SegmentInfo` / :class:`SnapshotInfo` — metadata views of the
  on-disk artifacts, the hooks :mod:`repro.replicate` ships through.
* :func:`has_state` — the recover-or-create discriminator.
* :func:`replay_manager_entry` — the single logical-replay decoder
  shared by crash recovery and follower replicas.
"""

from repro.persist.crashpoints import CrashPoint, CrashPointInjector
from repro.persist.runtime import (
    PersistentManager,
    has_state,
    replay_manager_entry,
)
from repro.persist.snapshot import SnapshotStore, SnapshotInfo
from repro.persist.state import (
    STATE_VERSION,
    capture_database,
    capture_maintainer,
    capture_manager,
    restore_database,
    restore_maintainer,
    restore_manager,
)
from repro.persist.wal import SegmentInfo, WriteAheadLog

__all__ = [
    "CrashPoint",
    "CrashPointInjector",
    "PersistentManager",
    "STATE_VERSION",
    "SegmentInfo",
    "SnapshotInfo",
    "SnapshotStore",
    "WriteAheadLog",
    "capture_database",
    "capture_maintainer",
    "capture_manager",
    "has_state",
    "replay_manager_entry",
    "restore_database",
    "restore_maintainer",
    "restore_manager",
]
