"""The registered-query front door: SQL in, error-bounded answers out.

:class:`QueryRegistry` wraps a
:class:`~repro.core.manager.SynopsisTarget` — a
:class:`~repro.core.manager.SynopsisManager`, bare or behind its
serialized/persistent wrapper — or a
:class:`~repro.service.runtime.SynopsisService` /
:class:`~repro.replicate.follower.FollowerService` holding one, and
turns it into an approximate-query-processing endpoint:

    registry = QueryRegistry(service)
    q = registry.register(
        "SELECT * FROM o, c WHERE o.cid = c.id", name="orders")
    ...  # stream updates through the service as usual
    answer = q.estimate("count", where=[
        {"column": "c.region", "op": "=", "value": "emea"}])

``register`` parses the SQL (:class:`~repro.errors.QueryParseError`
carries the offending position), plans it to validate the query tree
and FK collapses (:class:`~repro.errors.PlanError`), derives a synopsis
spec from the plan (weighted family when a weight column is given) and
provisions it on the target.  ``estimate`` answers from the target's
current epoch-consistent read state, so it works identically on the
leader and on follower replicas; registered queries that arrived via
replication (registered on the leader, replayed on the follower) are
adopted on first use from the replica's own restored state.

The target is resolved lazily on every call: a follower's restored
manager is replaced wholesale on (re-)bootstrap, so nothing from it
may be cached across calls.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.aqp.audit import AccuracyAuditor, AuditConfig
from repro.aqp.estimation import Snapshot, estimate_from_snapshot
from repro.core.config import MaintainerConfig
from repro.core.manager import SynopsisTarget, spec_for_plan
from repro.errors import InvalidArgumentError, ServiceError, SynopsisError
from repro.query.explain import explain_plan
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.query.query import JoinQuery

#: the largest synopsis a registration may ask for: a sample is
#: bounded by design, and on a durable target the size is logged and
#: replayed, so a typo or a hostile value would outlive the process
MAX_SYNOPSIS_SIZE = 10_000_000

#: synopsis families whose snapshot ``total`` is the exact join
#: cardinality J (the Algorithm-2 root weight); the weighted family's
#: total is the weighted-unit total W, which is not a COUNT truth.
_EXACT_COUNT_FAMILIES = ("uniform", "subset")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_registration(sql, name, size, engine, weight_column, seed) -> None:
    """Refuse an out-of-contract ``register`` argument, naming it.

    The one check HTTP, :class:`~repro.service.LocalServiceClient` and
    ``repro query register`` share.  It runs before anything is parsed,
    provisioned or logged: a durable target writes the registration to
    its WAL first, so whatever got past here would be replayed on every
    recovery and shipped to every follower.
    """
    for field, value, ok, rule in (
        ("sql", sql, isinstance(sql, str), "a string"),
        ("name", name,
         name is None or (isinstance(name, str) and name != ""
                          and "/" not in name),
         "a non-empty string without '/' (or omitted)"),
        ("size", size, _is_int(size) and 1 <= size <= MAX_SYNOPSIS_SIZE,
         f"an integer in [1, {MAX_SYNOPSIS_SIZE}]"),
        ("engine", engine, isinstance(engine, str), "a string"),
        ("weight_column", weight_column,
         weight_column is None or isinstance(weight_column, str),
         "a string like alias.attr (or omitted)"),
        ("seed", seed, seed is None or _is_int(seed),
         "an integer (or omitted)"),
    ):
        if not ok:
            raise InvalidArgumentError(
                f"register: {field} must be {rule}, got {value!r}")


class RegisteredQuery:
    """A query registered for approximate answering.

    Obtained from :meth:`QueryRegistry.register` (or
    :meth:`QueryRegistry.get` for queries that reached the target some
    other way, e.g. via replication).
    """

    def __init__(self, registry: "QueryRegistry", name: str, sql: str,
                 query: JoinQuery):
        self._registry = registry
        self.name = name
        self.sql = sql
        self.query = query

    def estimate(self, agg: str = "count", *,
                 column: Optional[str] = None,
                 where=None,
                 group_by: Optional[str] = None,
                 confidence: float = 0.95) -> dict:
        """Answer ``agg`` from the target's current synopsis state.

        See :func:`repro.aqp.estimation.estimate_from_snapshot` for the
        payload shape; ``name`` is added for self-description.  Every
        answer is recorded in the registry's accuracy audit
        (:class:`~repro.aqp.audit.AccuracyAuditor`): latency always,
        plus a CI-coverage verdict against the exact Algorithm-2 join
        count whenever the answer is an unfiltered, ungrouped ``COUNT``
        on a family whose snapshot total is that count.
        """
        registry = self._registry
        start_ns = time.perf_counter_ns()
        snapshot = registry.snapshot_of(self.name)
        payload = self._compute(snapshot, agg, column=column, where=where,
                                group_by=group_by, confidence=confidence)
        payload["name"] = self.name
        truth = None
        if (str(agg).lower() == "count" and not where and group_by is None
                and snapshot.family in _EXACT_COUNT_FAMILIES):
            truth = float(snapshot.total)
        registry.audit.observe(
            self.name, payload,
            latency_ns=time.perf_counter_ns() - start_ns, truth=truth)
        return payload

    def _compute(self, snapshot: Snapshot, agg: str, *,
                 column: Optional[str] = None, where=None,
                 group_by: Optional[str] = None,
                 confidence: float = 0.95) -> dict:
        """The estimator proper — the seam the audit wraps.

        Kept separate from :meth:`estimate` so alternative estimators
        (subclasses, test doubles) flow through the same audit path.
        """
        return estimate_from_snapshot(
            self.query, self._registry.database(), snapshot, agg,
            column=column, where=where, group_by=group_by,
            confidence=confidence,
        )

    def audit(self, limit: Optional[int] = None) -> dict:
        """This query's accuracy-audit payload (ring + coverage)."""
        return self._registry.audit.payload(self.name, limit)

    def explain(self) -> str:
        """Deterministic rendering of this query's join plan."""
        registry = self._registry
        plan = plan_query(
            self.query, registry.database(),
            fk_optimize=registry.fk_optimized(self.name),
        )
        return explain_plan(plan)

    def describe(self) -> dict:
        """JSON-able summary: name, SQL, family, exact total, epoch."""
        snapshot = self._registry.snapshot_of(self.name)
        out = {
            "name": self.name,
            "sql": self.sql,
            "family": snapshot.family,
            "total_results": snapshot.total,
            "sample_size": len(snapshot.results),
        }
        if snapshot.epoch is not None:
            out["epoch"] = snapshot.epoch
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RegisteredQuery(name={self.name!r}, sql={self.sql!r})"


class QueryRegistry:
    """Register SQL queries on a target and answer them.

    ``target`` is a :class:`~repro.core.manager.SynopsisTarget` (the
    manager itself, or its serialized/persistent wrapper), or a
    :class:`~repro.service.runtime.SynopsisService` /
    follower replica serving one (read-only there: ``register`` raises
    :class:`~repro.errors.FollowerReadOnlyError`, pointing at the
    leader).

    The registry owns an :class:`~repro.aqp.audit.AccuracyAuditor`
    recording every estimate; its ``aqp.*`` labeled metrics land on
    ``obs`` and its anomaly events on ``events`` — both default to the
    target's own registry/log when it has one, so the HTTP layer's
    ``QueryRegistry(service)`` wires the audit into the same ``GET
    /metrics`` scrape automatically.
    """

    def __init__(self, target, obs=None, events=None,
                 audit: Optional[AuditConfig] = None):
        # deferred: repro.service imports repro.aqp for its HTTP routes
        from repro.replicate.follower import FollowerService
        from repro.service.runtime import SynopsisService

        self._target = target
        #: a service or follower answers reads from its published
        #: ReadView and holds the manager one hop away, as ``.target``
        self._served = isinstance(target, (SynopsisService, FollowerService))
        self._queries: Dict[str, RegisteredQuery] = {}
        self._lock = threading.Lock()
        self._auto = 0
        if obs is None:
            obs = getattr(target, "obs", None)
        if events is None:
            events = getattr(target, "events", None)
        self.audit = AccuracyAuditor(obs=obs, events=events, config=audit)

    # ------------------------------------------------------------------
    # target resolution (lazy: never cache across calls)
    # ------------------------------------------------------------------
    def _manager(self) -> SynopsisTarget:
        """The manager behind the target, in at most one hop."""
        if not self._served:
            return self._target
        manager = self._target.target
        if manager is None:
            raise ServiceError(
                "the follower has not bootstrapped yet (nothing "
                "shipped); AQP answers once its first snapshot restores")
        return manager

    # ------------------------------------------------------------------
    # the narrow read API registered queries answer from
    # ------------------------------------------------------------------
    def database(self):
        """The target's :class:`~repro.catalog.Database` — its schemas
        are what requests are checked against; an estimate reads rows
        from the snapshot, never from the tables."""
        return self._manager().db

    def fk_optimized(self, name: str) -> bool:
        """Whether ``name`` runs the FK-collapsing sjoin-opt engine."""
        maintainer = self._manager().maintainer(name)
        return maintainer.algorithm == "sjoin-opt"

    def snapshot_of(self, name: str) -> Snapshot:
        """One epoch-consistent read of ``name``'s synopsis state."""
        if self._served:
            view = self._target.view()
            if name not in view.synopses:
                raise SynopsisError(
                    f"no registered query {name!r} in the current "
                    f"view (epoch {view.epoch}); known: "
                    f"{sorted(view.synopses)}")
            return Snapshot(
                epoch=view.epoch,
                family=view.families[name],
                total=view.total_results[name],
                results=view.synopses[name],
                meta=view.sample_meta[name],
                rows=view.sample_rows[name],
            )
        manager = self._manager()
        if name not in manager.names():
            raise SynopsisError(
                f"no registered query {name!r}; known: "
                f"{sorted(manager.names())}")
        entries = manager.synopsis_entries(name)
        return Snapshot(
            epoch=None,
            family=manager.family_of(name),
            total=manager.total_results(name),
            results=entries.rows,
            meta=entries.metas,
            rows=entries.resolved,
        )

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, sql: str, name: Optional[str] = None, *,
                 size: int = 1000,
                 engine: str = "sjoin-opt",
                 weight_column: Optional[str] = None,
                 seed: Optional[int] = None) -> RegisteredQuery:
        """Parse ``sql``, plan it, provision a synopsis, return a handle.

        Raises :class:`~repro.errors.InvalidArgumentError` naming the
        field when an argument is of the wrong type or out of range
        (``name`` a non-empty string without ``/``, ``size`` an integer
        in ``[1, MAX_SYNOPSIS_SIZE]``, ``seed`` an integer; a ``bool``
        is not an integer; nothing is coerced) — before the target, and
        so a durable target's log, sees the registration;
        :class:`~repro.errors.QueryParseError` (with position info) on
        bad SQL, :class:`~repro.errors.PlanError` when no valid plan
        exists, :class:`~repro.errors.SynopsisError` on a duplicate
        name or bad spec, and
        :class:`~repro.errors.FollowerReadOnlyError` on a replica.
        """
        _check_registration(sql, name, size, engine, weight_column, seed)
        db = self.database()
        query = parse_query(sql, db)
        plan = plan_query(query, db,
                          fk_optimize=(engine == "sjoin-opt"))
        spec = spec_for_plan(plan, size=size, weight_column=weight_column)
        with self._lock:
            if name is None:
                taken = set(self.names())
                while True:
                    self._auto += 1
                    name = f"q{self._auto}"
                    if name not in taken:
                        break
            config = MaintainerConfig(spec=spec, engine=engine, seed=seed)
            self._target.register(name, query, config)
            registered = RegisteredQuery(self, name, sql, query)
            self._queries[name] = registered
        return registered

    def get(self, name: str) -> RegisteredQuery:
        """The handle for ``name``, adopting queries registered
        elsewhere (e.g. on the leader, replayed onto this replica)."""
        with self._lock:
            known = self._queries.get(name)
            if known is not None:
                return known
        manager = self._manager()
        if name not in manager.names():
            raise SynopsisError(
                f"no registered query {name!r}; known: "
                f"{sorted(manager.names())}")
        sql = manager.maintainer(name).sql
        query = parse_query(sql, manager.db)
        adopted = RegisteredQuery(self, name, sql, query)
        with self._lock:
            return self._queries.setdefault(name, adopted)

    def names(self) -> List[str]:
        """Registered query names, from the target (the authority)."""
        return sorted(self._manager().names())

    def describe_all(self) -> List[dict]:
        """JSON-able summaries of every registered query."""
        return [self.get(name).describe() for name in self.names()]

    def __contains__(self, name: str) -> bool:
        try:
            return name in self._manager().names()
        except ServiceError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"QueryRegistry(target={type(self._target).__name__}, "
                f"queries={len(self._queries)})")
