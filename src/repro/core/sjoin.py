"""The SJoin engine (§5): synopsis maintenance over the weighted join graph.

Insertion (§5.2): the tuple enters its range table and the weighted join
graph (Algorithm 1); the graph hands back the placement of the
non-materialised delta join view over the new join results, and the
synopsis consumes that view with skip-number sampling (Algorithm 3) —
accessing only the selected results.

Deletion (§5.3): the graph is updated first (yielding, in O(1), the number
of join results removed), the synopsis's ``J`` is decreased accordingly,
samples containing the tuple are purged via the TID reverse index, and a
fixed-size synopsis is replenished: with-replacement slots each get an
independent uniform re-draw through the join-number mapping; the
without-replacement reservoir re-draws with duplicate rejection, or — when
``m >= J/2``, where rejection would thrash — rebuilds itself by one
Algorithm-3 pass over the full join view, bounding expected accesses by
``2m``.

With ``fk_optimize=True`` the engine runs the paper's *SJoin-opt*
configuration: foreign-key subjoins are collapsed at plan time and routed
through hash lookups at runtime (§6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.catalog.database import Database
from repro.core.entries import EntryStore, SynopsisEntries
from repro.core.fk_runtime import CombinedNodeRuntime
from repro.core.insert_run import InsertRun, RouteTable
from repro.core.synopsis import SubsetSynopsis, SynopsisSpec
from repro.errors import SynopsisError
from repro.graph.join_graph import DeleteRun, WeightedJoinGraph
from repro.graph.views import DeltaJoinView
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.query.planner import JoinPlan, plan_query
from repro.query.query import JoinQuery

PlanResult = Tuple[int, ...]


@dataclass
class EngineStats:
    """Operation counters reported by benchmarks."""

    inserts: int = 0
    deletes: int = 0
    filtered_inserts: int = 0
    new_results_total: int = 0
    removed_results_total: int = 0
    redraws: int = 0
    redraw_rejections: int = 0
    rebuilds: int = 0


class _DeleteRun:
    """An open run of deletions from one range table: what
    :meth:`SJoinEngine.delete_run` returns (read its contract there).
    A context manager handing out :meth:`unregister`; the phase sums
    stay 0 while nobody listens (``engine._phase_clock is None``)."""

    __slots__ = ("engine", "alias", "size", "kind", "runtime", "passes",
                 "graph_run", "clock", "started", "graph_ns", "replenish_ns",
                 "deletes", "removed", "purged")

    def __init__(self, engine: "SJoinEngine", alias: str, size: int):
        _, kind, node_idx, runtime, passes, _ = engine._routes[alias]
        self.engine = engine
        self.alias = alias
        self.size = size
        self.kind = kind
        self.runtime = runtime
        self.passes = passes
        # a member route only writes its combined node's hash table
        self.graph_run: Optional[DeleteRun] = (
            None if kind == "member"
            else engine.graph.delete_run(node_idx))
        self.graph_ns = self.replenish_ns = self.removed = self.purged = 0
        self.deletes = engine.stats.deletes     # grows per entry done
        self.clock = clock = engine._phase_clock
        self.started = clock() if clock is not None else 0

    def __enter__(self) -> Callable[[int, Sequence[object]], bool]:
        return self.unregister

    def unregister(self, tid: int, row: Sequence[object]) -> bool:
        """One entry of the run, completely and in op order; False when
        the row never passed the pre-filter (nothing to do)."""
        engine = self.engine
        row = tuple(row)
        if self.passes is not None and not self.passes(row):
            return False
        kind = self.kind
        if kind == "direct":
            self._node_delete(tid, row)
        elif kind == "member":
            self.runtime.unregister_member(self.alias, row)
        elif self.runtime.has_combined(tid):  # anchor
            self._node_delete(*self.runtime.disassemble(tid))
        engine.stats.deletes += 1
        return True

    def _node_delete(self, tid: int, row: tuple) -> None:
        """The tuple's own vertex, ``J``, the purge and — a family
        strategy: each synopsis class knows how (and whether) to refill
        itself — the re-draws, through the tree rooted at the run's
        node."""
        engine = self.engine
        synopsis = engine.synopsis
        run = self.graph_run
        clock = self.clock
        if clock is not None:
            t0 = clock()
        removed = run.delete(tid, row)
        if clock is not None:
            t1 = clock()
            self.graph_ns += t1 - t0
        engine.stats.removed_results_total += removed
        self.removed += removed
        if removed:
            synopsis.decrease_total(removed)
        purged = synopsis.purge_tuple(run.node_idx, tid)
        if purged:
            self.purged += purged
            synopsis.replenish(engine, run.node_idx)
            if clock is not None:
                self.replenish_ns += clock() - t1

    def __exit__(self, *exc_info) -> None:
        """Flush the graph (also when an entry raised: the engine is
        then where per-op application stops) and report the run once —
        unless no entry passed the pre-filter: nothing was done."""
        clock = self.clock
        run = self.graph_run
        if run is not None:
            if clock is not None:
                t0 = clock()
            run.flush()
            if clock is not None:
                self.graph_ns += clock() - t0
        engine = self.engine
        if clock is not None and engine.stats.deletes > self.deletes:
            phases = {}
            if run is not None:
                phases[metric_names.DELETE_GRAPH_NS] = self.graph_ns
            if self.purged:
                phases[metric_names.DELETE_REPLENISH_NS] = self.replenish_ns
            engine.obs.report(
                metric_names.DELETE_NS, clock() - self.started, phases,
                target=self.alias, batch=self.size,
                removed_results=self.removed)


class _InsertRun(InsertRun):
    """What :meth:`SJoinEngine.open_insert_run` returns (read its
    contract there).  A segment is a stretch of entries whose graph work
    lands on one plan node; ``pending`` holds that work — ``(tid, row,
    weight)`` of the node, already assembled on an anchor route, the
    weight validated (None on a uniform graph)."""

    __slots__ = ("node_idx", "pending")

    def __init__(self, engine: "SJoinEngine"):
        super().__init__(engine)
        self.node_idx = -1
        self.pending: List[Tuple[int, tuple, Optional[int]]] = []

    def _register(self, record: tuple, alias: str, tid: int,
                  row: tuple) -> None:
        _, kind, node_idx, runtime, _, weigh = record
        if kind == "member":
            # hash-only: rides in whatever segment is open
            if self.alias is None:
                self._cut(alias)
            self.size += 1
            runtime.register_member(alias, tid, row)
            return
        if alias != self.alias:
            self._cut(alias)
            self.node_idx = node_idx
        self.size += 1
        if kind == "anchor":
            assembled = runtime.assemble(tid, row)
            if assembled is None:
                return
            tid, row = assembled
        self.pending.append(
            (tid, row, None if weigh is None else weigh(node_idx, row)))

    def _flush(self) -> None:
        """The segment's graph work as one (batched) Algorithm 1, then
        Algorithm 3 over the segment's delta view: the entries' blocks
        concatenated in op order, consumed once."""
        pending = self.pending
        if not pending:
            return
        self.pending = []
        engine = self.engine
        graph = engine.graph
        node_idx = self.node_idx
        clock = self.clock
        if clock is not None:
            t0 = clock()
        if len(pending) == 1:
            blocks = (graph.insert_tuple(node_idx, *pending[0]),)
        else:
            blocks = graph.insert_tuples(node_idx, pending)
        if clock is not None:
            self.phases[metric_names.INSERT_GRAPH_NS] = clock() - t0
        view = DeltaJoinView(graph, node_idx, blocks)
        new_total = view.length()
        if new_total:
            engine.stats.new_results_total += new_total
            if clock is not None:
                t0 = clock()
            engine.synopsis.consume(view)
            if clock is not None:
                self.phases[metric_names.INSERT_SAMPLE_NS] = clock() - t0


class SJoinEngine:
    """Maintain one join synopsis for one pre-specified query.

    Parameters
    ----------
    db:
        The database holding the base tables.
    query:
        The pre-specified join query.
    spec:
        Which synopsis to maintain (:class:`SynopsisSpec`).
    fk_optimize:
        Apply the foreign-key subjoin optimisation (SJoin-opt, §6).
    seed / rng:
        Randomness control: pass a seed for reproducible runs.
    """

    name = "sjoin"

    def __init__(self, db: Database, query: JoinQuery, spec: SynopsisSpec,
                 fk_optimize: bool = False,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 obs=None):
        self.db = db
        self.query = query
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(seed)
        self.obs = as_registry(obs)
        self.plan: JoinPlan = plan_query(query, db, fk_optimize=fk_optimize)
        self.family = spec.family
        self.weight_column = spec.weight_column
        tuple_weight = None
        if self.family != "uniform":
            tuple_weight = self._resolve_tuple_weight(spec.weight_column)
        self.graph = WeightedJoinGraph(self.plan, obs=self.obs,
                                       tuple_weight=tuple_weight)
        self.synopsis = spec.build(self.rng, obs=self.obs)
        self._entries = EntryStore(
            self.plan, query,
            meta_of=None if tuple_weight is None else self._result_meta)
        self.stats = EngineStats()
        if fk_optimize:
            self.name = "sjoin-opt"
        filtered = frozenset(
            alias for alias, route in self.plan.routes.items()
            if route.prefilter)
        self._combined: Dict[int, CombinedNodeRuntime] = {}
        for node in self.plan.nodes:
            if node.is_combined:
                self._combined[node.idx] = CombinedNodeRuntime(
                    node, db, filtered, obs=self.obs
                )
        self._routes = RouteTable(
            self, self._combined,
            None if tuple_weight is None else self.graph.weight_of)
        # runs time their stages with the registry's clock and report
        # each once (None: nobody is listening, no clock reads)
        self._phase_clock = self.obs.clock if self.obs.enabled else None

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, alias: str, row: Sequence[object]) -> int:
        """Insert ``row`` into range table ``alias``; returns its TID.

        Returns -1 when the row was rejected by a single-table pre-filter
        (it never enters the range table, §5.1).  A run of one.
        """
        with _InsertRun(self) as run:
            return run.insert(alias, row)

    def insert_run(self, items: Sequence[Tuple[str, Sequence[object]]]
                   ) -> List[int]:
        """Insert a run of ``(alias, row)`` pairs spanning range tables;
        returns one TID per pair (-1 for rows a pre-filter rejected).
        Bit-identical to per-op application, failures included: see
        :meth:`open_insert_run`."""
        with _InsertRun(self) as run:
            insert = run.insert
            return [insert(alias, row) for alias, row in items]

    def notify_insert(self, alias: str, tid: int,
                      row: Sequence[object]) -> bool:
        """Register an externally-stored tuple (multi-query sharing: the
        :class:`~repro.core.manager.SynopsisManager` owns the heap insert).
        Returns False when a pre-filter rejected the row.  A run of
        one."""
        with _InsertRun(self) as run:
            return run.notify(alias, tid, row)

    def open_insert_run(self) -> "_InsertRun":
        """Open a run of insertions spanning range tables: a context
        manager whose ``insert(alias, row) -> tid`` stores and registers
        a row and whose ``notify(alias, tid, row) -> bool`` registers an
        externally stored one (see :mod:`repro.core.insert_run`).

        Every entry's own bookkeeping — pre-filter, heap insert, a
        member route's hash write, an anchor route's ``assemble``, the
        tuple-weight check — happens at once and in op order; the graph
        insert and the sampling it feeds are deferred while consecutive
        entries stay on one plan node, and then go through the batched
        Algorithm 1 (one recompute per touched vertex, one propagation
        per direction) with the delta views consumed in op order.
        Member routes write a combined node's hash table only — no
        graph, no RNG — so they never end such a stretch.  Samples,
        ``J`` and the RNG stream do not depend on how an insert stream
        is cut into runs, and a run that fails at some entry stops where
        per-op application stops (the deferred work of the entries
        before it is done on the way out).  One reported stage — one
        ``engine.insert_ns`` observation — per stretch.
        """
        return _InsertRun(self)

    def delete(self, alias: str, tid: int) -> None:
        """Delete the tuple identified by ``tid`` from range table
        ``alias``, updating graph and synopsis first (§5.3).  A run of
        one."""
        self.delete_batch(alias, (tid,))

    def delete_batch(self, alias: str, tids: Sequence[int]) -> None:
        """Delete a run of tuples from one range table.

        Bit-identical to calling :meth:`delete` per TID, failures
        included (the run stops at the first TID that is not live, with
        everything before it applied): see :meth:`delete_run`."""
        table = self._routes[alias][0]
        with self.delete_run(alias, len(tids)) as unregister:
            for tid in tids:
                unregister(tid, table.get(tid))
                table.delete(tid)

    def notify_delete(self, alias: str, tid: int,
                      row: Sequence[object]) -> bool:
        """Unregister an externally-deleted tuple (the caller tombstones
        the heap row afterwards).  Returns False when the tuple had been
        rejected by a pre-filter and so was never registered."""
        with self.delete_run(alias) as unregister:
            return unregister(tid, row)

    def delete_run(self, alias: str, size: int = 1) -> _DeleteRun:
        """Open a run of ``size`` consecutive deletions from range table
        ``alias``: a context manager that hands out ``unregister(tid,
        row) -> bool`` (False: the row never passed the pre-filter).

        Every entry is handled completely and in op order — the anchor
        route's ``disassemble``, the tuple's own vertex, ``J``, the
        purge, the re-draws — against the join graph *rooted at the
        run's plan node*, which a :class:`~repro.graph.join_graph.
        DeleteRun` keeps exact; what the run defers is the propagation
        of the weight deltas to the other tables, done once per
        direction when the ``with`` block ends (also when an entry
        raised: the engine is then where per-op application stops).
        Samples, ``J`` and the RNG stream do not depend on how a delete
        stream is cut into runs.  One reported stage per run (none when
        no entry passed the pre-filter); the graph/replenish phases are
        sums over its entries.
        """
        return _DeleteRun(self, alias, size)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def synopsis_entries(self) -> SynopsisEntries:
        """Current synopsis as original-range-table TID tuples, residual
        multi-table filters applied (§5.1), each paired with its
        read-only sampling metadata: ``{"weight": int}`` plus, for the
        subset family, ``{"inclusion_probability": float}``.

        Costs the samples that changed since the previous call (see
        :mod:`repro.core.entries`); an unchanged synopsis returns the
        same object."""
        return self._entries.entries(self.synopsis)

    def synopsis_results(self) -> List[Tuple[int, ...]]:
        """The rows of :meth:`synopsis_entries`, as a fresh list."""
        return list(self.synopsis_entries().rows)

    def raw_samples(self) -> List[PlanResult]:
        """Plan-level samples, before residual filtering/expansion."""
        return self.synopsis.samples()

    def result_weight(self, plan_result: PlanResult) -> int:
        """The sampling weight of one plan-level result: the product of
        its tuples' weights (1 on the uniform family)."""
        tuple_weight = self.graph.tuple_weight
        if tuple_weight is None:
            return 1
        weight = 1
        for node_idx, tid in enumerate(plan_result):
            row = self.plan.nodes[node_idx].table.get(tid)
            weight *= tuple_weight(node_idx, row)
        return weight

    def inclusion_probability(
            self, plan_result: PlanResult) -> Optional[float]:
        """For the subset family, the exact probability this result is
        included (``1 - (1-p)**weight``); ``None`` otherwise."""
        synopsis = self.synopsis
        if not isinstance(synopsis, SubsetSynopsis):
            return None
        return synopsis.inclusion_probability(
            self.result_weight(plan_result))

    def _result_meta(self, plan_result: PlanResult) -> Mapping[str, object]:
        weight = self.result_weight(plan_result)
        meta = {"weight": weight}
        if isinstance(self.synopsis, SubsetSynopsis):
            meta["inclusion_probability"] = \
                self.synopsis.inclusion_probability(weight)
        return MappingProxyType(meta)

    def total_results(self) -> int:
        """``J``: exact current number of (tree-predicate) join results."""
        return self.graph.total_results()

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Registry snapshot with read-time instruments published first.

        Work counters kept as plain ints on the hot paths (graph stats,
        synopsis accept/skip counts, FK assembly counts, AVL rotations)
        are copied into the registry here, so the maintenance loops pay
        nothing for them when observability is off.  Returns ``{}`` when
        observability is disabled (the default).
        """
        obs = self.obs
        if not obs.enabled:
            return {}
        publish = [
            (metric_names.GRAPH_VERTICES_VISITED,
             self.graph.stats.vertices_visited),
            (metric_names.GRAPH_INDEX_REFRESHES,
             self.graph.stats.index_refreshes),
            (metric_names.GRAPH_VERTEX_CREATIONS,
             self.graph.stats.vertex_creations),
            (metric_names.GRAPH_VERTEX_REMOVALS,
             self.graph.stats.vertex_removals),
            (metric_names.GRAPH_WEIGHT_RECOMPUTES,
             self.graph.stats.weight_recomputes),
            (metric_names.SYNOPSIS_SKIPS_DRAWN, self.synopsis.skips_drawn),
            (metric_names.SYNOPSIS_ACCEPTS, self.synopsis.accepts),
            (metric_names.SYNOPSIS_REPLACES, self.synopsis.replaces),
            (metric_names.SYNOPSIS_PURGES, self.synopsis.purges),
            (metric_names.SYNOPSIS_REDRAWS, self.stats.redraws),
            (metric_names.SYNOPSIS_REDRAW_REJECTIONS,
             self.stats.redraw_rejections),
            (metric_names.SYNOPSIS_REBUILDS, self.stats.rebuilds),
            (metric_names.FK_ASSEMBLES,
             sum(r.assembles for r in self._combined.values())),
            (metric_names.FK_ASSEMBLY_DROPS,
             sum(r.assembly_drops for r in self._combined.values())),
            (metric_names.FK_LOOKUPS,
             sum(r.lookups for r in self._combined.values())),
            (metric_names.FK_MEMBER_REGISTRATIONS,
             sum(r.member_registrations for r in self._combined.values())),
        ]
        for name, value in publish:
            obs.counter(name).value = value
        obs.gauge(metric_names.TOTAL_RESULTS).set(self.total_results())
        obs.gauge(metric_names.SYNOPSIS_SIZE).set(
            self.synopsis.valid_count)
        rotations = sum(tree.rotations
                        for tree in self.graph.trees.values())
        obs.gauge(metric_names.GRAPH_INDEX_MAINTENANCE_OPS).set(rotations)
        return obs.snapshot()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_tuple_weight(self, weight_column: Optional[str]):
        """Resolve a spec's ``"alias.attr"`` weight column to the
        ``(node_idx, row) -> int`` callable the join graph consumes.

        ``None`` means every tuple weighs 1 (the degenerate weighted
        graph, useful for differential testing against uniform runs).
        """
        if weight_column is None:
            return lambda node_idx, row: 1
        alias, _, attr = weight_column.partition(".")
        route = self.plan.routes.get(alias)
        if route is None:
            raise SynopsisError(
                f"weight column {weight_column!r} names unknown alias "
                f"{alias!r}"
            )
        node = self.plan.nodes[route.node_idx]
        try:
            pos = node.schema.index_of(node.node_attr(alias, attr))
        except Exception:
            raise SynopsisError(
                f"weight column {weight_column!r} names no column of "
                f"alias {alias!r}"
            ) from None
        target_node = route.node_idx

        def tuple_weight(node_idx: int, row: Sequence) -> int:
            if node_idx != target_node:
                return 1
            return row[pos]

        return tuple_weight
