"""Update-event streams and the player that drives engines through them.

Benchmarks and integration tests express workloads as flat event lists:

* :class:`Insert` — insert a row into a range table (by alias);
* :class:`DeleteOldest` — delete the ``count`` oldest still-live tuples of
  an alias (the paper's deletion policy in §7.3 and the Linear Road
  sliding window).

:class:`StreamPlayer` executes a stream through a target's
``apply_batch`` — a :class:`~repro.core.maintainer.JoinSynopsisMaintainer`
(events name aliases) or a manager stack (events name base tables) —
keeping the per-alias FIFO needed to resolve ``DeleteOldest``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Union

from repro.core.stats_api import DeleteOp, InsertOp, slotted_record


@slotted_record
@dataclass(frozen=True)
class Insert:
    """Insert ``row`` into the range table ``alias``: a slotted record
    like :class:`~repro.core.stats_api.InsertOp`."""

    __slots__ = ("alias", "row")
    alias: str
    row: tuple

    def __init__(self, alias: str, row: tuple) -> None:
        _set_alias(self, alias)
        _set_row(self, row)


_set_alias = Insert.alias.__set__
_set_row = Insert.row.__set__


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
    """Drive a target through a stream of update events: an
    :class:`Insert` is a batch of one, a :class:`DeleteOldest` one batch
    of deletes (one delete run per table, §5.3)."""

    def __init__(self, target):
        self.target = target
        self._fifo: Dict[str, Deque[int]] = {}
        self.operations = 0

    def apply(self, event: UpdateEvent) -> int:
        """Apply one event; returns the number of operations performed."""
        alias = event.alias
        if isinstance(event, Insert):
            tid = self.target.apply_batch(
                [InsertOp(alias, event.row)]).tids[0]
            if tid >= 0:
                self._fifo.setdefault(alias, deque()).append(tid)
            self.operations += 1
            return 1
        fifo = self._fifo.get(alias) or ()
        doomed = [DeleteOp(alias, fifo.popleft())
                  for _ in range(min(event.count, len(fifo)))]
        if doomed:
            self.target.apply_batch(doomed)
        self.operations += len(doomed)
        return len(doomed)

    def run(self, events: Iterable[UpdateEvent]) -> int:
        total = 0
        for event in events:
            total += self.apply(event)
        return total


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
