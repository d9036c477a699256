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
level and above.  ``apply_batch`` returns a :class:`BatchResult`
carrying one :class:`OpOutcome` per op plus the aggregate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Tuple, Union


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
    for deletes ``tid`` is the deleted tuple's ID.  ``new_results`` is
    the number of join results the op added (inserts) or removed
    (deletes) where the applying layer tracks it, else 0.
    """

    kind: str
    target: str
    tid: Optional[int]
    rejected: bool = False
    new_results: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Typed result of the batch-first ``apply_batch(ops)`` entry point.

    ``outcomes`` has one :class:`OpOutcome` per op, in op order;
    ``inserted``/``deleted``/``rejected`` are the aggregate counters and
    ``elapsed_ns`` the wall-clock time inside the facade.  ``tids``
    derives the per-op TID tuple: the TID for inserts (``-1`` when a
    pre-filter rejected the row), ``None`` for deletes.
    """

    outcomes: Tuple[OpOutcome, ...]
    inserted: int
    deleted: int
    rejected: int
    elapsed_ns: int

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[OpOutcome],
                      elapsed_ns: int = 0) -> "BatchResult":
        """Build a result from per-op outcomes, deriving the counters."""
        outcomes = tuple(outcomes)
        inserted = sum(
            1 for o in outcomes if o.kind == "insert" and not o.rejected
        )
        deleted = sum(1 for o in outcomes if o.kind == "delete")
        return cls(
            outcomes=outcomes,
            inserted=inserted,
            deleted=deleted,
            rejected=len(outcomes) - inserted - deleted,
            elapsed_ns=elapsed_ns,
        )

    @property
    def tids(self) -> Tuple[Optional[int], ...]:
        """Per-op TIDs: ``None`` for deletes, ``-1`` for rejected
        inserts."""
        return tuple(
            None if o.kind == "delete" else (-1 if o.rejected else o.tid)
            for o in self.outcomes
        )

    def slice(self, start: int, stop: int,
              elapsed_ns: Optional[int] = None) -> "BatchResult":
        """A sub-batch result over ops ``[start, stop)`` (service
        coalescing splits one applied batch back into per-submission
        results)."""
        return BatchResult.from_outcomes(
            self.outcomes[start:stop],
            elapsed_ns=self.elapsed_ns if elapsed_ns is None else elapsed_ns,
        )


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
