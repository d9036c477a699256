"""Typed statistics and batch-update value objects — the public contract.

Before this module every engine returned its own ad-hoc counter blob from
``stats``; callers had to know which engine they were talking to.  The
redesigned surface is uniform:

* :class:`JoinSynopsisMaintainer.stats()
  <repro.core.maintainer.JoinSynopsisMaintainer>` returns a frozen
  :class:`MaintainerStats`;
* :class:`SynopsisManager.stats() <repro.core.manager.SynopsisManager>`
  returns a frozen :class:`ManagerStats` aggregating one
  :class:`MaintainerStats` per registered query.

``metrics`` is a plain string-keyed dict: the engine's work counters
(``inserts``, ``redraws``, ...) plus — when an observability registry is
attached — the full :meth:`~repro.obs.MetricsRegistry.snapshot`, keyed by
the catalogue names of :mod:`repro.obs.names`.

Both stats types are read through their typed attributes (and the
``metrics`` mapping).

:class:`InsertOp` / :class:`DeleteOp` are the operations accepted by the
one update entry point ``apply_batch(ops)``; ``target`` is a range-table
alias at the maintainer level and a base-table name at the manager
level and above.  ``apply_batch`` returns a :class:`BatchResult`:
per-op TIDs and the aggregate counters held as columns, one
:class:`OpOutcome` per op for the caller that asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class InsertOp:
    """Batch operation: insert ``row`` into ``target``.

    ``target`` names a range-table alias when applied through a
    :class:`~repro.core.maintainer.JoinSynopsisMaintainer` and a base
    table when applied through a
    :class:`~repro.core.manager.SynopsisManager`.
    """

    target: str
    row: tuple

    def __post_init__(self):
        object.__setattr__(self, "row", tuple(self.row))


@dataclass(frozen=True)
class DeleteOp:
    """Batch operation: delete tuple ``tid`` from ``target``.

    ``target`` follows the same alias/base-table convention as
    :class:`InsertOp`.
    """

    target: str
    tid: int


UpdateOp = Union[InsertOp, DeleteOp]


@dataclass(frozen=True)
class OpOutcome:
    """What one operation of a batch did.

    ``kind`` is ``"insert"`` or ``"delete"``; ``target`` echoes the op's
    alias/base-table name.  For inserts ``tid`` is the assigned tuple ID
    (``-1`` with ``rejected=True`` when a pre-filter dropped the row);
    for deletes ``tid`` is the deleted tuple's ID.
    """

    kind: str
    target: str
    tid: Optional[int]
    rejected: bool = False


class BatchResult:
    """Typed result of the batch-first ``apply_batch(ops)`` entry point.

    The result is held as columns — the ops that were applied (the list
    the caller handed over when it was a list, never a copy of it) and
    one TID per op — so producing it costs nothing per op.  ``tids``
    (the per-op TID tuple: the TID for inserts, ``-1`` when a pre-filter
    rejected the row, ``None`` for deletes), the counters
    ``inserted``/``deleted``/``rejected``, ``elapsed_ns`` (wall-clock
    time inside the facade) and :meth:`slice` answer from the columns;
    ``outcomes`` builds one :class:`OpOutcome` per op, in op order, on
    its first read and keeps the tuple.

    The op list is read, never written; a caller that edits its list
    after the call and then reads ``outcomes`` for the first time reads
    the edited ops.
    """

    __slots__ = ("_ops", "_tids", "_outcomes", "inserted", "deleted",
                 "rejected", "elapsed_ns")

    def __init__(self, ops: Sequence[UpdateOp],
                 tids: Sequence[Optional[int]], elapsed_ns: int = 0):
        self._ops = ops
        self._tids = tids
        self._outcomes: Optional[Tuple[OpOutcome, ...]] = None
        self.deleted = deleted = tids.count(None)
        self.rejected = rejected = tids.count(-1)
        self.inserted = len(tids) - deleted - rejected
        self.elapsed_ns = elapsed_ns

    @property
    def tids(self) -> Tuple[Optional[int], ...]:
        """Per-op TIDs: ``None`` for deletes, ``-1`` for rejected
        inserts."""
        return tuple(self._tids)

    @property
    def outcomes(self) -> Tuple[OpOutcome, ...]:
        """One :class:`OpOutcome` per op, in op order (built once)."""
        outcomes = self._outcomes
        if outcomes is None:
            outcomes = self._outcomes = tuple([
                OpOutcome("delete", op.target, op.tid) if tid is None
                else OpOutcome("insert", op.target, tid, tid == -1)
                for op, tid in zip(self._ops, self._tids)])
        return outcomes

    def slice(self, start: int, stop: int,
              elapsed_ns: Optional[int] = None) -> "BatchResult":
        """A sub-batch result over ops ``[start, stop)`` (service
        coalescing splits one applied batch back into per-submission
        results)."""
        return BatchResult(
            self._ops[start:stop], self._tids[start:stop],
            self.elapsed_ns if elapsed_ns is None else elapsed_ns)

    def __repr__(self) -> str:
        return (f"BatchResult(ops={len(self._tids)}, "
                f"inserted={self.inserted}, deleted={self.deleted}, "
                f"rejected={self.rejected}, elapsed_ns={self.elapsed_ns})")


@dataclass(frozen=True)
class MaintainerStats:
    """Frozen statistics snapshot of one maintained synopsis.

    ``metrics`` merges the engine's work counters with the observability
    registry snapshot (when one is attached); its keys for the counter
    part are the engine stat field names (``inserts``, ``deletes``,
    ``redraws``, ...), so ``stats.metrics["inserts"]`` replaces the old
    ``engine.stats.inserts`` for facade users.
    """

    total_results: int
    synopsis_size: int
    algorithm: str
    metrics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "metrics", MappingProxyType(dict(self.metrics))
        )


@dataclass(frozen=True)
class ManagerStats:
    """Frozen aggregate statistics over every registered query.

    ``total_results`` and ``synopsis_size`` are sums over the per-query
    :class:`MaintainerStats` in ``queries``; ``metrics`` is the manager's
    own registry snapshot (fan-out counters, per-base-table latency).
    """

    total_results: int
    synopsis_size: int
    queries: Mapping[str, MaintainerStats] = field(default_factory=dict)
    metrics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "queries", MappingProxyType(dict(self.queries))
        )
        object.__setattr__(
            self, "metrics", MappingProxyType(dict(self.metrics))
        )
