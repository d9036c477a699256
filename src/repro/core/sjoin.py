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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.core.entries import EntryStore, SynopsisEntries
from repro.core.fk_runtime import CombinedNodeRuntime
from repro.core.insert_run import InsertRun, RouteTable
from repro.core.synopsis import SynopsisSpec
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
                 "key_of", "graph_run", "clock", "started", "graph_ns",
                 "replenish_ns", "deletes", "removed", "purged")

    def __init__(self, engine: "SJoinEngine", alias: str, size: int):
        _, kind, node_idx, runtime, passes, _, key_of = engine._routes[alias]
        self.engine = engine
        self.alias = alias
        self.size = size
        self.kind = kind
        self.runtime = runtime
        self.passes = passes
        self.key_of = key_of
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
        if kind == "member":
            self.runtime.unregister_member(self.alias, row)
        elif kind == "direct":
            removed = self._graph_delete(tid, self.key_of(row))
            if removed is None:
                raise self.graph_run.missing(tid)
            self._resample(tid, removed)
        else:  # anchor: None when the graph holds no tuple of it
            removed = self.runtime.disassemble(tid, row, self._graph_delete)
            if removed is not None:
                self._resample(tid, removed)
        engine.stats.deletes += 1
        return True

    def _graph_delete(self, tid: int, key: tuple) -> Optional[int]:
        """The tuple's own vertex: the join results it took with it, None
        when the graph does not hold it."""
        clock = self.clock
        if clock is None:
            return self.graph_run.delete(tid, key)
        t0 = clock()
        removed = self.graph_run.delete(tid, key)
        self.graph_ns += clock() - t0
        return removed

    def _resample(self, tid: int, removed: int) -> None:
        """``J``, the purge and — a family strategy: each synopsis class
        knows how (and whether) to refill itself — the re-draws, through
        the tree rooted at the run's node."""
        engine = self.engine
        synopsis = engine.synopsis
        run = self.graph_run
        clock = self.clock
        if clock is not None:
            t1 = clock()
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
    lands on one plan node; ``pending`` holds that work — ``(tid,
    vertex key, weight)`` of the node, already assembled on an anchor
    route, the weight validated (None on a uniform graph)."""

    __slots__ = ("node_idx", "pending")

    def __init__(self, engine: "SJoinEngine"):
        super().__init__(engine)
        self.node_idx = -1
        self.pending: List[Tuple[int, tuple, Optional[int]]] = []

    def _register(self, record: tuple, alias: str, tid: int,
                  row: tuple) -> None:
        _, kind, node_idx, runtime, _, weigh, key_of = record
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
            entry = runtime.assemble(tid, row)
            if entry is not None:
                self.pending.append(entry)
            return
        self.pending.append((tid, key_of(row),
                             None if weigh is None else weigh(node_idx, row)))

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
        self.graph = WeightedJoinGraph(self.plan, tuple_weight=tuple_weight)
        weigh = None if tuple_weight is None else self.graph.weight_of
        self.synopsis = spec.build(self.rng)
        self.stats = EngineStats()
        if fk_optimize:
            self.name = "sjoin-opt"
        filtered = frozenset(
            alias for alias, route in self.plan.routes.items()
            if route.prefilter)
        self._combined: Dict[int, CombinedNodeRuntime] = {
            node.idx: CombinedNodeRuntime(node, db, filtered, weigh)
            for node in self.plan.nodes if node.is_combined}
        self._entries = EntryStore(self.plan, query, self._combined, spec,
                                   self.synopsis)
        self._routes = RouteTable(self, self._combined, weigh)
        # runs time their stages with the registry's clock and report
        # each once (None: nobody is listening, no clock reads)
        self._phase_clock = self.obs.clock if self.obs.enabled else None

    # ------------------------------------------------------------------
    # updates: the paper's two operations, each performed as a run
    # ------------------------------------------------------------------
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

    def delete_run(self, alias: str, size: int = 1) -> _DeleteRun:
        """Open a run of ``size`` consecutive deletions from range table
        ``alias``: a context manager that hands out ``unregister(tid,
        row) -> bool`` (False: the row never passed the pre-filter).
        The caller owns the heap: it reads the row before and tombstones
        it after each ``unregister``.

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
        """Current synopsis as original-range-table TID tuples, the
        samples that pass the residual multi-table filters (§5.1) out of
        ``drawn``, with each one's weight and scale as columns (None on
        the uniform family).

        Costs the samples that changed since the previous call (see
        :mod:`repro.core.entries`); an unchanged synopsis returns the
        same object."""
        return self._entries.entries(self.synopsis)

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
            weight *= tuple_weight(node_idx, self.row_of(node_idx, tid))
        return weight

    def row_of(self, node_idx: int, tid: int) -> tuple:
        """The row of live tuple ``tid`` of plan node ``node_idx`` — a
        combined node's rebuilt from its anchor's."""
        row = self.plan.nodes[node_idx].table.get(tid)
        runtime = self._combined.get(node_idx)
        return row if runtime is None else runtime.row_of(tid, row)

    def key_of(self, node_idx: int, tid: int) -> tuple:
        """The vertex key of live tuple ``tid`` of plan node
        ``node_idx`` — a combined node's read off its anchor's members,
        no combined row built."""
        node = self.plan.nodes[node_idx]
        row = node.table.get(tid)
        runtime = self._combined.get(node_idx)
        return node.vertex_key_of(row) if runtime is None \
            else runtime.key_of(tid, row)

    def total_results(self) -> int:
        """``J``: exact current number of (tree-predicate) join results."""
        return self.graph.total_results()

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Registry snapshot with read-time instruments published first.

        Work counters kept as plain ints on the hot paths (graph stats,
        synopsis accept/skip counts, FK assembly counts, index block
        splits and merges) are copied into the registry here, so the
        maintenance loops pay nothing for them when observability is off.
        Returns ``{}`` when observability is disabled (the default).
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
        restructures = sum(tree.restructures
                           for tree in self.graph.trees.values())
        obs.gauge(metric_names.GRAPH_INDEX_MAINTENANCE_OPS).set(restructures)
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
