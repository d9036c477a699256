"""Update-event streams and the player that drives engines through them.

Benchmarks and integration tests express workloads as flat event lists:

* :class:`Insert` — insert a row into a range table (by alias);
* :class:`DeleteOldest` — delete the ``count`` oldest still-live tuples of
  an alias (the paper's deletion policy in §7.3 and the Linear Road
  sliding window).

:class:`StreamPlayer` executes a stream against any engine exposing the
``insert(alias, row) -> tid`` / ``delete(alias, tid)`` interface (and
``delete_batch(alias, tids)`` where there is one), keeping the per-alias
FIFO needed to resolve ``DeleteOldest``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Union


@dataclass(frozen=True)
class Insert:
    alias: str
    row: tuple


@dataclass(frozen=True)
class DeleteOldest:
    alias: str
    count: int = 1


UpdateEvent = Union[Insert, DeleteOldest]


def count_operations(events: Iterable[UpdateEvent]) -> int:
    """Number of individual insert/delete operations a stream performs."""
    total = 0
    for event in events:
        if isinstance(event, Insert):
            total += 1
        else:
            total += event.count
    return total


class StreamPlayer:
    """Drive an engine through a stream of update events."""

    def __init__(self, engine):
        self.engine = engine
        self._fifo: Dict[str, Deque[int]] = {}
        self.operations = 0

    def apply(self, event: UpdateEvent) -> int:
        """Apply one event; returns the number of operations performed."""
        if isinstance(event, Insert):
            tid = self.engine.insert(event.alias, event.row)
            if tid >= 0:
                self._fifo.setdefault(event.alias, deque()).append(tid)
            self.operations += 1
            return 1
        fifo = self._fifo.get(event.alias) or ()
        tids = [fifo.popleft() for _ in range(min(event.count, len(fifo)))]
        # an engine takes the oldest ``count`` as one delete run (§5.3);
        # anything else driven here is told one TID at a time
        delete_batch = getattr(self.engine, "delete_batch", None)
        if delete_batch is not None and tids:
            delete_batch(event.alias, tids)
        else:
            for tid in tids:
                self.engine.delete(event.alias, tid)
        self.operations += len(tids)
        return len(tids)

    def run(self, events: Iterable[UpdateEvent]) -> int:
        total = 0
        for event in events:
            total += self.apply(event)
        return total

    def live_count(self, alias: str) -> int:
        fifo = self._fifo.get(alias)
        return len(fifo) if fifo else 0


def interleave_deletions(inserts: List[Insert], delete_every: Dict[str, int],
                         delete_count: Dict[str, int]) -> List[UpdateEvent]:
    """Weave ``DeleteOldest`` events into an insert stream.

    After every ``delete_every[alias]`` insertions into ``alias``, a
    ``DeleteOldest(alias, delete_count[alias])`` event is emitted — the
    §7.3 pattern (e.g. delete the oldest 600 store_sales after every 3000
    inserted).
    """
    counters: Dict[str, int] = {alias: 0 for alias in delete_every}
    events: List[UpdateEvent] = []
    for insert in inserts:
        events.append(insert)
        alias = insert.alias
        if alias in counters:
            counters[alias] += 1
            if counters[alias] >= delete_every[alias]:
                counters[alias] = 0
                events.append(DeleteOldest(alias, delete_count[alias]))
    return events
