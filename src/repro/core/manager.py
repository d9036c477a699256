"""Multi-query synopsis management over one shared database.

The paper's setting (abstract, §1) is a data warehouse that maintains "a
join synopsis for each pre-specified query": one update stream fans out to
every registered query whose FROM clause references the updated base
table.  :class:`SynopsisManager` owns the heap storage — each base-table
insert is stored once and *notified* to every affected maintainer (which
keeps its own graph/indexes), so engines share tuples instead of
duplicating them per query.

A registered query may reference the same base table under several
aliases (QX's two ``date_dim`` occurrences); the manager notifies each
alias independently, which matches the paper's duplicated-range-table
semantics while storing the row once.

When constructed with an observability registry the manager records
per-base-table fan-out counts and update latency into it, and gives each
registered query a *child* registry (same clock, slow-op threshold and
event log: :meth:`~repro.obs.metrics.MetricsRegistry.child`) so the
per-engine metric names of :mod:`repro.obs.names` never collide across
queries; the child snapshots surface through
:meth:`SynopsisManager.stats`.
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import (Dict, Iterable, List, Optional, Protocol, Sequence,
                    Tuple, Union)

from repro.catalog.database import Database
from repro.core.config import MaintainerConfig, coerce_config
from repro.core.entries import SynopsisEntries
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.stats_api import (
    BatchResult,
    DeleteOp,
    InsertOp,
    ManagerStats,
    UpdateOp,
)
from repro.core.synopsis import SynopsisSpec
from repro.errors import PlanError, ReproError, SynopsisError
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.query.parser import parse_query
from repro.query.planner import JoinPlan, plan_query
from repro.query.query import JoinQuery


def spec_for_plan(plan: JoinPlan, *, size: int = 1000,
                  weight_column: Optional[str] = None) -> SynopsisSpec:
    """Derive the synopsis spec an AQP registration should provision.

    A plain query gets a fixed-size uniform synopsis; naming a
    ``weight_column`` (``alias.attr`` of the planned query, e.g. a SUM
    column whose heavy rows should dominate the sample) switches to the
    weighted family so draws land proportionally to that column.  The
    column is validated against the plan's original range tables —
    a bad reference is a :class:`~repro.errors.PlanError`, caught at
    registration time instead of on the first update.
    """
    if weight_column is None:
        return SynopsisSpec.fixed_size(size)
    alias, sep, attr = weight_column.partition(".")
    if not sep or not alias or not attr:
        raise PlanError(
            f"weight column {weight_column!r} must look like alias.attr")
    query = plan.query
    if alias not in query.aliases:
        raise PlanError(
            f"weight column {weight_column!r} references unknown alias "
            f"{alias!r}; query aliases: {sorted(query.aliases)}")
    schema = plan.db.table(query.range_table(alias).table_name).schema
    if attr not in {col.name for col in schema.columns}:
        raise PlanError(
            f"weight column {weight_column!r}: table "
            f"{schema.name!r} has no column {attr!r}")
    return SynopsisSpec.weighted_fixed_size(size, weight_column)


@dataclass
class _Registration:
    name: str
    maintainer: JoinSynopsisMaintainer
    #: base table name -> aliases referencing it in this query
    aliases_of: Dict[str, List[str]] = field(default_factory=dict)

    def __post_init__(self):
        for rt in self.maintainer.query.range_tables:
            self.aliases_of.setdefault(rt.table_name, []).append(rt.alias)


class SynopsisTarget(Protocol):
    """What every layer above the engine relies on from the unit it
    wraps — a declaration only, nothing inherits from it.

    :class:`SynopsisManager` satisfies it, and so do the wrappers that
    stack on one (:class:`~repro.core.serialize.SerializedManager`,
    :class:`~repro.persist.PersistentManager`), so persistence, the
    service, replication and AQP all hold "a ``SynopsisTarget``" and
    never ask which.  A single maintained query is a target with one
    registration; updates are addressed by base-table name.
    """

    db: Database

    def names(self) -> List[str]: ...

    def maintainer(self, name: str) -> JoinSynopsisMaintainer: ...

    def register(self, name: str, query: Union[str, JoinQuery],
                 config: Optional[MaintainerConfig] = None,
                 ) -> JoinSynopsisMaintainer: ...

    def unregister(self, name: str) -> None: ...

    def apply_batch(self, ops: Iterable[UpdateOp]) -> BatchResult: ...

    def synopsis_entries(self, name: str, limit: Optional[int] = None
                         ) -> SynopsisEntries: ...

    def total_results(self, name: str) -> int: ...

    def family_of(self, name: str) -> str: ...

    def stats(self) -> ManagerStats: ...


class SynopsisManager:
    """Maintain many join synopses over one dynamically updated database.

    Usage::

        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("q1", SQL_1,
                         MaintainerConfig(spec=SynopsisSpec.fixed_size(500)))
        manager.register("q2", SQL_2, MaintainerConfig(engine="sjoin"))
        tid = manager.insert("store_sales", row)   # updates q1 and q2
        manager.delete("store_sales", tid)
        manager.synopsis("q1")
        manager.stats()                            # typed ManagerStats

    The constructor consumes the config's ``seed`` (the per-query seed
    RNG) and ``obs`` fields.
    """

    def __init__(self, db: Database,
                 config: Optional[MaintainerConfig] = None):
        config = coerce_config(config, owner="SynopsisManager")
        self.db = db
        self.obs = as_registry(config.obs)
        self._seed_rng = random.Random(config.seed)
        self._registrations: Dict[str, _Registration] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        query: Union[str, JoinQuery],
        config: Optional[MaintainerConfig] = None,
    ) -> JoinSynopsisMaintainer:
        """Register a pre-specified query under ``name``.

        The maintainer immediately registers all live tuples of the
        referenced tables (a query can be added after data was loaded).
        When observability is on, the maintainer gets a child registry so
        its engine metrics stay separate from other queries' (an explicit
        ``config.obs`` overrides the child registry).
        """
        config = coerce_config(config, owner="SynopsisManager.register")
        if name in self._registrations:
            raise SynopsisError(f"query {name!r} is already registered")
        seed = config.seed
        if seed is None:
            seed = self._seed_rng.randrange(2**31)
        child_obs = config.obs
        if child_obs is None:
            child_obs = self.obs.child()
        algorithm = config.engine
        try:
            maintainer = JoinSynopsisMaintainer(
                self.db, query,
                config.replace(seed=seed, obs=child_obs, name=name),
            )
        except ReproError as exc:
            raise SynopsisError(
                f"registering query {name!r} (algorithm {algorithm!r}) "
                f"failed: {exc}"
            ) from exc
        # backfill already-live tuples, in TID order per table.  FK-collapse
        # routing requires PK-side members to be registered before any
        # anchor tuple references them, so aliases are backfilled in
        # dependency order: members, then direct nodes, then anchors.
        def backfill_rank(alias: str) -> int:
            route = getattr(maintainer.engine, "plan", None)
            if route is None:
                return 1
            kind = maintainer.engine.plan.routes[alias].kind
            return {"member": 0, "direct": 1, "anchor": 2}[kind]

        ordered_aliases = sorted(
            ((rt.table_name, rt.alias)
             for rt in maintainer.query.range_tables),
            key=lambda pair: backfill_rank(pair[1]),
        )
        # one insert run: each alias's stored tuples reach the graph as
        # a batch, not one propagation per tuple
        with maintainer.engine.open_insert_run() as run:
            for table_name, alias in ordered_aliases:
                try:
                    for tid, row in self.db.table(table_name).scan():
                        run.notify(alias, tid, row)
                except ReproError as exc:
                    raise SynopsisError(
                        f"registered query {name!r} (algorithm "
                        f"{algorithm!r}) failed during backfill of alias "
                        f"{alias!r} from table {table_name!r}: {exc}"
                    ) from exc
        self._registrations[name] = _Registration(name, maintainer)
        return maintainer

    def register_sql(self, name: str, sql: str, *,
                     size: int = 1000,
                     engine: str = "sjoin-opt",
                     weight_column: Optional[str] = None,
                     seed: Optional[int] = None,
                     ) -> JoinSynopsisMaintainer:
        """Parse, plan and register ``sql`` in one step (the AQP path).

        The spec is derived from the plan by :func:`spec_for_plan`
        (uniform fixed-size, or the weighted family when a
        ``weight_column`` is named).  Parse failures raise
        :class:`~repro.errors.QueryParseError` with position info and
        planning failures :class:`~repro.errors.PlanError`, both before
        any registration state is touched.
        """
        query = parse_query(sql, self.db)
        plan = plan_query(query, self.db,
                          fk_optimize=(engine == "sjoin-opt"))
        spec = spec_for_plan(plan, size=size, weight_column=weight_column)
        return self.register(name, query, MaintainerConfig(
            spec=spec, engine=engine, seed=seed))

    def _register_restored(self, name: str,
                           maintainer: JoinSynopsisMaintainer) -> None:
        """Attach an already-populated maintainer (repro.persist restore).

        Unlike :meth:`register` this performs *no* backfill — the
        maintainer's graph and synopsis were restored from a snapshot and
        already cover the live heap tuples.
        """
        if name in self._registrations:
            raise SynopsisError(f"query {name!r} is already registered")
        self._registrations[name] = _Registration(name, maintainer)

    def unregister(self, name: str) -> None:
        if name not in self._registrations:
            raise SynopsisError(f"no query registered as {name!r}")
        del self._registrations[name]

    def names(self) -> List[str]:
        return list(self._registrations)

    def maintainer(self, name: str) -> JoinSynopsisMaintainer:
        try:
            return self._registrations[name].maintainer
        except KeyError:
            raise SynopsisError(f"no query registered as {name!r}") \
                from None

    # ------------------------------------------------------------------
    # updates (by base table)
    # ------------------------------------------------------------------
    def apply_batch(self, ops: Iterable[UpdateOp]) -> BatchResult:
        """Apply a micro-batch of :class:`InsertOp` / :class:`DeleteOp`.

        The one update path — :meth:`insert` and :meth:`delete`
        delegate here.  ``op.target`` is a *base table* name (not a
        range-table alias).  Consecutive inserts — whatever their
        tables — are one run: every registered query keeps one engine
        insert run open over it (graph propagation once per stretch of
        rows that lands on one of its plan nodes), while rows,
        registrations and aliases keep the serial order — heap row
        first, then every alias of every query that references the
        table.  Consecutive deletes from the same base table are a run
        as well: every registered query that references the table under
        one alias keeps one engine delete run open over it (purge and
        re-draws per row, weight deltas propagated once when the run
        ends), with the heap tombstone last.  Runs break between
        inserts and deletes, and delete runs at every table change;
        each maintained synopsis stays bit-identical to serial per-op
        application, and a run that fails at some op stops where per-op
        application would — the error that comes out says how many ops
        of the batch had been applied in full (``exc.ops_applied``).
        """
        started = time.perf_counter_ns()
        if not isinstance(ops, list):
            ops = list(ops)
        # one TID per op applied in full, in op order (None: a delete)
        tids: List[Optional[int]] = []
        i, n = 0, len(ops)
        try:
            while i < n:
                op = ops[i]
                j = i + 1
                if isinstance(op, InsertOp):
                    while j < n and isinstance(ops[j], InsertOp):
                        j += 1
                    self._fan_out_insert_run(ops[i:j], tids)
                elif isinstance(op, DeleteOp):
                    table_name = op.target
                    while j < n and isinstance(ops[j], DeleteOp) \
                            and ops[j].target == table_name:
                        j += 1
                    self._fan_out_delete_run(
                        table_name, [o.tid for o in ops[i:j]], tids)
                else:
                    raise SynopsisError(
                        f"SynopsisManager cannot apply {op!r}: expected "
                        "InsertOp or DeleteOp"
                    )
                i = j
        except ReproError as exc:
            exc.ops_applied = len(tids)
            raise
        return BatchResult(ops, tids, time.perf_counter_ns() - started)

    def insert(self, table_name: str, row: Sequence[object]) -> int:
        """Insert ``row`` into the base table and notify every registered
        query referencing it.  Returns the TID."""
        return self.apply_batch(
            [InsertOp(table_name, tuple(row))]).tids[0]

    def delete(self, table_name: str, tid: int) -> None:
        """Delete a base tuple everywhere, then tombstone the heap row."""
        self.apply_batch((DeleteOp(table_name, tid),))

    def _fan_out_insert_run(self, ops: List[InsertOp],
                            tids: List[Optional[int]]) -> None:
        """Store a run of rows, whatever their tables, and notify every
        affected registration; one TID appended per row that went
        through.

        The serial order is kept as it is — row by row: the heap insert,
        then registration by registration and alias by alias — so a bad
        row or an engine's refusal (an FK miss, a duplicate key) stops
        the run exactly where per-op application stops: the heap holds
        nothing past the failing row and no engine has seen anything
        the others have not.  What makes it a run is that every
        registration keeps one engine insert run open across the rows,
        which defers its graph work while consecutive rows land on one
        plan node and performs what is pending on the way out, error or
        not.  A query naming a table under several aliases simply hears
        each row once per alias.
        """
        obs = self.obs
        first = len(tids)
        t0 = obs.clock() if obs.enabled else 0
        # base table -> (its heap, who hears about it)
        targets: Dict[str, tuple] = {}
        try:
            with ExitStack() as stack:
                runs = [
                    (registration, stack.enter_context(
                        registration.maintainer.engine.open_insert_run()))
                    for registration in self._registrations.values()]
                for op in ops:
                    table_name = op.target
                    target = targets.get(table_name)
                    if target is None:
                        target = targets[table_name] = (
                            self.db.table(table_name),
                            [(registration, alias, run.notify)
                             for registration, run in runs
                             for alias in registration.aliases_of.get(
                                 table_name, ())])
                    table, listeners = target
                    row = op.row
                    tid = table.insert(row)
                    for registration, alias, notify in listeners:
                        try:
                            notify(alias, tid, row)
                        except ReproError as exc:
                            raise SynopsisError(
                                f"registered query {registration.name!r} "
                                f"(algorithm "
                                f"{registration.maintainer.algorithm!r}) "
                                f"failed on insert into {table_name!r} "
                                f"(alias {alias!r}): {exc}"
                            ) from exc
                    tids.append(tid)
        finally:
            applied = len(tids) - first
            if obs.enabled and applied:
                # the run's wall time goes to each table it touched by
                # its share of the rows; fan-out counts (row, alias)
                elapsed = obs.clock() - t0
                counts: Dict[str, int] = {}
                for op in ops[:applied]:
                    counts[op.target] = counts.get(op.target, 0) + 1
                for table_name, count in counts.items():
                    obs.histogram(
                        metric_names.manager_insert_ns(table_name)
                    ).observe(elapsed * count // applied)
                    obs.counter(
                        metric_names.manager_fanout(table_name)
                    ).inc(count * len(targets[table_name][1]))

    def _fan_out_delete_run(self, table_name: str, doomed: List[int],
                            tids: List[Optional[int]]) -> None:
        """Unregister a run of base tuples everywhere, tombstoning each
        heap row once every registration has let go of it; one ``None``
        appended to ``tids`` per row that went through.

        The serial order is kept as it is — row by row, registration by
        registration, heap last — so a dead TID, a TID named twice or an
        engine's refusal (a still-referenced FK parent) stops the run
        exactly where per-op application stops.  What makes it a run is
        that a registration referencing the table under one alias keeps
        one engine ``delete_run`` open across the rows; a query naming
        the table under several aliases deletes on several plan nodes in
        turn, which no single open run can cover, and is notified per
        row.
        """
        obs = self.obs
        table = self.db.table(table_name)
        first = len(tids)
        with obs.timer(metric_names.manager_delete_ns(table_name)), \
                ExitStack() as runs:
            notifiers = []
            for registration in self._registrations.values():
                aliases = registration.aliases_of.get(table_name, ())
                engine = registration.maintainer.engine
                if len(aliases) == 1:
                    notifiers.append((registration, aliases[0],
                                      runs.enter_context(engine.delete_run(
                                          aliases[0], len(doomed)))))
                else:
                    notifiers.extend(
                        (registration, alias,
                         partial(engine.notify_delete, alias))
                        for alias in aliases)
            try:
                for tid in doomed:
                    row = table.get(tid)
                    for registration, alias, notify in notifiers:
                        try:
                            notify(tid, row)
                        except ReproError as exc:
                            raise SynopsisError(
                                f"registered query {registration.name!r} "
                                f"(algorithm "
                                f"{registration.maintainer.algorithm!r}) "
                                f"failed on delete from {table_name!r} "
                                f"(alias {alias!r}, tid {tid}): {exc}"
                            ) from exc
                    table.delete(tid)
                    tids.append(None)
            finally:
                if obs.enabled:
                    obs.counter(
                        metric_names.manager_fanout(table_name)
                    ).inc((len(tids) - first) * len(notifiers))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def synopsis(self, name: str, limit: Optional[int] = None
                 ) -> List[Tuple[int, ...]]:
        return self.maintainer(name).synopsis(limit)

    def synopsis_entries(self, name: str, limit: Optional[int] = None
                         ) -> SynopsisEntries:
        """One query's synopsis rows paired with sampling metadata."""
        return self.maintainer(name).synopsis_entries(limit)

    def family_of(self, name: str) -> str:
        """The synopsis family of one registered query."""
        return self.maintainer(name).family

    def total_results(self, name: str) -> int:
        return self.maintainer(name).total_results()

    def stats(self) -> ManagerStats:
        """Typed aggregate snapshot (:class:`ManagerStats`).

        Sums ``total_results`` / ``synopsis_size`` over every registered
        query and collects each query's :class:`MaintainerStats` under its
        registration name; ``metrics`` is the manager's own registry
        snapshot (fan-out counts, per-base-table update latency).
        """
        queries = {
            name: registration.maintainer.stats()
            for name, registration in self._registrations.items()
        }
        return ManagerStats(
            total_results=sum(
                q.total_results for q in queries.values()),
            synopsis_size=sum(
                q.synopsis_size for q in queries.values()),
            queries=queries,
            metrics=self.obs.snapshot() if self.obs.enabled else {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SynopsisManager(queries={sorted(self._registrations)})"
