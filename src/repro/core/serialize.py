"""Update/read serialisation (§5.1).

The paper assumes "the system fully serialize[s] all updates and synopsis
requests, which can be done using simple concurrency control schemes such
as locking".  :class:`SerializedManager` is that scheme: a re-entrant
lock around every update and read of a wrapped manager, making it safe
to drive from multiple threads.  The paper's §9 names finer-grained
concurrency as future work; this wrapper is the stated baseline scheme,
not that future work.  For reads that must *never* block behind a
writer, use :class:`repro.service.SynopsisService` instead: one ingest
thread plus immutable published snapshots, rather than a lock shared by
readers and writers.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence

from repro.core.stats_api import BatchResult


class SerializedManager:
    """Thread-safe facade over a :class:`SynopsisManager` (itself a
    :class:`~repro.core.manager.SynopsisTarget`)."""

    def __init__(self, manager):
        self._manager = manager
        self._lock = threading.RLock()

    @property
    def manager(self):
        return self._manager

    @property
    def db(self):
        return self._manager.db

    def register(self, *args, **kwargs):
        with self._lock:
            return self._manager.register(*args, **kwargs)

    def register_sql(self, *args, **kwargs):
        with self._lock:
            return self._manager.register_sql(*args, **kwargs)

    def unregister(self, name: str) -> None:
        with self._lock:
            self._manager.unregister(name)

    def names(self) -> List[str]:
        with self._lock:
            return self._manager.names()

    def maintainer(self, name: str):
        """The raw (unsynchronized) maintainer of one query — for
        metadata reads (``sql``, ``algorithm``); drive updates and
        synopsis reads through this facade."""
        with self._lock:
            return self._manager.maintainer(name)

    def apply_batch(self, ops: Iterable) -> BatchResult:
        with self._lock:
            return self._manager.apply_batch(ops)

    def insert(self, table_name: str, row: Sequence[object]) -> int:
        with self._lock:
            return self._manager.insert(table_name, row)

    def delete(self, table_name: str, tid: int) -> None:
        with self._lock:
            self._manager.delete(table_name, tid)

    def synopsis(self, name: str, limit: Optional[int] = None):
        with self._lock:
            return self._manager.synopsis(name, limit)

    def synopsis_entries(self, name: str, limit: Optional[int] = None):
        with self._lock:
            return self._manager.synopsis_entries(name, limit)

    def family_of(self, name: str) -> str:
        with self._lock:
            return self._manager.family_of(name)

    def total_results(self, name: str) -> int:
        with self._lock:
            return self._manager.total_results(name)

    def stats(self):
        with self._lock:
            return self._manager.stats()
