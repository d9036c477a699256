"""The SJ baseline: symmetric join synopsis maintenance (§3, Figure 2).

SJ is the best available baseline for general θ-joins.  It keeps one
ordinary (non-aggregate) tree index per directed edge of the query tree,
built on the fly.  On insertion it *enumerates the full delta join* — every
new join result involving the inserted tuple — by recursively probing the
other tables' indexes, and feeds the materialised results to the sampler.
On deletion (fixed-size synopses) it purges affected samples and, because
it has no way to re-draw uniform results, **recomputes the full join** to
rebuild the synopsis.

These two full enumerations are exactly the costs SJoin avoids; the
benchmark harness measures the resulting throughput gap (Figures 11-14).

The sampler layer reuses the synopsis classes of
:mod:`repro.core.synopsis` fed with materialised list views — the
selections are distributionally identical to vanilla reservoir sampling /
coin flipping; SJ's cost is dominated by the enumerations either way (the
skip-sampling ablation benchmark quantifies the sampling-only difference
separately).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.catalog.database import Database
from repro.core.entries import EntryStore, SynopsisEntries
from repro.core.insert_run import InsertRun, RouteTable
from repro.core.synopsis import SynopsisSpec
from repro.errors import SynopsisError
from repro.index.aggregate import AggregateTree
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.query.planner import JoinPlan, plan_query
from repro.query.query import JoinQuery

PlanResult = Tuple[int, ...]


class ListView:
    """Materialised list with the view interface of Figure 3."""

    def __init__(self, results: List[PlanResult]):
        self._results = results

    def length(self) -> int:
        return len(self._results)

    def get(self, index: int) -> PlanResult:
        return self._results[index]


@dataclass
class SJStats:
    """Work counters: ``tuples_accessed`` counts index probes, the unit of
    the cost comparison in §4.4/§6."""

    inserts: int = 0
    deletes: int = 0
    filtered_inserts: int = 0
    tuples_accessed: int = 0
    new_results_total: int = 0
    removed_results_total: int = 0
    full_recomputes: int = 0


def _add(phases: Dict[str, int], name: str, elapsed: int) -> None:
    phases[name] = phases.get(name, 0) + elapsed


class _InsertRun(InsertRun):
    """What :meth:`SymmetricJoinEngine.open_insert_run` returns: a
    segment is a maximal stretch of same-alias entries, each registered
    at once; the segment's phases are sums over them."""

    __slots__ = ()

    def _register(self, record: tuple, alias: str, tid: int,
                  row: tuple) -> None:
        if alias != self.alias:
            self._cut(alias)
        self.size += 1
        engine = self.engine
        clock = self.clock
        node_idx = record[2]
        engine._index_tuple(node_idx, tid, row)
        if clock is not None:
            t0 = clock()
        delta = list(engine._enumerate_from(node_idx, tid, row))
        if clock is not None:
            t1 = clock()
            _add(self.phases, metric_names.INSERT_ENUMERATE_NS, t1 - t0)
        engine.stats.new_results_total += len(delta)
        if delta:
            engine.synopsis.consume(ListView(delta))
            if clock is not None:
                _add(self.phases, metric_names.INSERT_SAMPLE_NS,
                     clock() - t1)


class SymmetricJoinEngine:
    """The baseline engine.  Public interface mirrors :class:`SJoinEngine`."""

    name = "sj"

    def __init__(self, db: Database, query: JoinQuery, spec: SynopsisSpec,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 obs=None):
        self.db = db
        self.query = query
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(seed)
        self.obs = as_registry(obs)
        # SJ never collapses FK joins; its plan nodes are the range tables
        self.plan: JoinPlan = plan_query(query, db, fk_optimize=False)
        self.family = spec.family
        if self.family != "uniform":
            raise SynopsisError(
                "the SJ baseline supports only the uniform synopsis "
                f"family, not {self.family!r} (use the sjoin engine)"
            )
        self.synopsis = spec.build(self.rng)
        self._entries = EntryStore(self.plan, query)
        self.stats = SJStats()
        # stages are timed with the registry's clock (None: nobody is
        # listening, no clock reads)
        self._phase_clock = self.obs.clock if self.obs.enabled else None
        self._routes = RouteTable(self, {}, None)
        # one plain tree index per directed edge, keyed by that side's
        # composite edge key; items are (tid, row) pairs
        self._indexes: Dict[Tuple[int, int], AggregateTree] = {}
        self._handles: Dict[Tuple[int, int], Dict[int, object]] = {}
        # registered tuples per node (the engine's own view of liveness,
        # independent of the shared heap tables)
        self._live: List[Dict[int, tuple]] = [
            {} for _ in self.plan.nodes
        ]
        for (node_idx, nbr_idx) in self.plan.edge_index:
            self._indexes[(node_idx, nbr_idx)] = AggregateTree(
                0, lambda item: []
            )
            self._handles[(node_idx, nbr_idx)] = {}
        self._key_attr_pos: Dict[Tuple[int, int], Tuple[int, ...]] = {
            (node_idx, nbr_idx): tuple(
                self.plan.nodes[node_idx].schema.index_of(a)
                for a in spec_.key_attrs)
            for (node_idx, nbr_idx), spec_ in self.plan.edge_index.items()}
        # per directed edge (own, parent): the parent's row -> the cut of
        # own's index joining it, compiled once
        self._cut_of: Dict[Tuple[int, int], Callable] = {
            (node_idx, nbr_idx): spec_.edge.cut_fn(
                self.plan.nodes[node_idx].alias,
                self._key_attr_pos[(nbr_idx, node_idx)])
            for (node_idx, nbr_idx), spec_ in self.plan.edge_index.items()}

    # ------------------------------------------------------------------
    # updates: the same two run surfaces as SJoinEngine
    # ------------------------------------------------------------------
    def open_insert_run(self) -> "_InsertRun":
        """The run surface of :meth:`SJoinEngine.open_insert_run`.  SJ
        has nothing to defer — every insert must enumerate its own delta
        join — so the run registers each entry at once and only the
        bookkeeping is per stretch: one reported stage (one
        ``engine.insert_ns`` observation, the phases summed) per maximal
        same-alias segment."""
        return _InsertRun(self)

    @contextmanager
    def delete_run(self, alias: str, size: int = 1
                   ) -> Iterator[Callable[[int, Sequence[object]], bool]]:
        """The run surface of :meth:`SJoinEngine.delete_run`.  SJ has no
        graph whose propagation a run could defer — every entry must
        enumerate its own delta join — so this is a loop reported as one
        stage: one ``engine.delete_ns`` observation, the phases summed
        over the entries (nothing when no entry passed the pre-filter).
        """
        clock = self._phase_clock
        stats = self.stats
        phases: Dict[str, int] = {}
        deletes, removed = stats.deletes, stats.removed_results_total

        passes = self._routes[alias][4]

        def unregister(tid: int, row: Sequence[object]) -> bool:
            row = tuple(row)
            if passes is not None and not passes(row):
                return False
            self._do_unregister(alias, tid, row, phases)
            stats.deletes += 1
            return True

        started = clock() if clock is not None else 0
        try:
            yield unregister
        finally:
            if clock is not None and stats.deletes > deletes:
                self.obs.report(
                    metric_names.DELETE_NS, clock() - started, phases,
                    target=alias, batch=size,
                    removed_results=stats.removed_results_total - removed)

    def _do_unregister(self, alias: str, tid: int, row: tuple,
                       phases: Dict[str, int]) -> None:
        clock = self._phase_clock
        node_idx = self._routes[alias][2]
        if clock is not None:
            t0 = clock()
        # SJ must enumerate the delta join just to know how much J shrank
        removed = sum(1 for _ in self._enumerate_from(node_idx, tid, row))
        if clock is not None:
            _add(phases, metric_names.DELETE_GRAPH_NS, clock() - t0)
        self.stats.removed_results_total += removed
        self._unindex_tuple(node_idx, tid)
        if removed:
            self.synopsis.decrease_total(removed)
        purged = self.synopsis.purge_tuple(node_idx, tid)
        if purged and self.synopsis.needs_replenish:
            if clock is not None:
                t0 = clock()
            self._rebuild_from_full_join()
            if clock is not None:
                _add(phases, metric_names.DELETE_REPLENISH_NS, clock() - t0)

    # ------------------------------------------------------------------
    # reads (same surface as SJoinEngine)
    # ------------------------------------------------------------------
    def synopsis_entries(self) -> SynopsisEntries:
        """See :meth:`SJoinEngine.synopsis_entries`; SJ is uniform-only,
        so every row weighs 1."""
        return self._entries.entries(self.synopsis)

    def raw_samples(self) -> List[PlanResult]:
        return self.synopsis.samples()

    def total_results(self) -> int:
        return self.synopsis.total_seen

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Registry snapshot with read-time instruments published first.

        Synopsis work counters are plain ints on the hot path and are
        copied into the registry here.  Returns ``{}`` when observability
        is disabled (the default).
        """
        obs = self.obs
        if not obs.enabled:
            return {}
        publish = [
            (metric_names.SYNOPSIS_SKIPS_DRAWN, self.synopsis.skips_drawn),
            (metric_names.SYNOPSIS_ACCEPTS, self.synopsis.accepts),
            (metric_names.SYNOPSIS_REPLACES, self.synopsis.replaces),
            (metric_names.SYNOPSIS_PURGES, self.synopsis.purges),
            (metric_names.SYNOPSIS_REBUILDS, self.stats.full_recomputes),
        ]
        for name, value in publish:
            obs.counter(name).value = value
        obs.gauge(metric_names.TOTAL_RESULTS).set(self.total_results())
        obs.gauge(metric_names.SYNOPSIS_SIZE).set(
            self.synopsis.valid_count)
        restructures = sum(
            tree.restructures for tree in self._indexes.values())
        obs.gauge(metric_names.GRAPH_INDEX_MAINTENANCE_OPS).set(restructures)
        return obs.snapshot()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_tuple(self, node_idx: int, tid: int, row: tuple) -> None:
        self._live[node_idx][tid] = row
        for (owner, nbr), tree in self._indexes.items():
            if owner != node_idx:
                continue
            pos = self._key_attr_pos[(owner, nbr)]
            key = tuple(row[i] for i in pos)
            node = tree.insert(key, (tid, row))
            self._handles[(owner, nbr)][tid] = node

    def _unindex_tuple(self, node_idx: int, tid: int) -> None:
        del self._live[node_idx][tid]
        for (owner, nbr), tree in self._indexes.items():
            if owner != node_idx:
                continue
            node = self._handles[(owner, nbr)].pop(tid)
            tree.delete(node)

    # ------------------------------------------------------------------
    # delta / full enumeration (the expensive parts)
    # ------------------------------------------------------------------
    def _enumerate_from(self, node_idx: int, tid: int,
                        row: tuple) -> Iterator[PlanResult]:
        """All join results containing tuple ``tid`` of ``node_idx``:
        index-nested-loop probing outward along the query tree, binding
        one table per preorder position."""
        rooted = self.plan.rooted(node_idx)
        order = rooted.preorder  # parents always precede children
        result: List[Optional[int]] = [None] * self.plan.num_nodes
        rows: Dict[str, tuple] = {}
        root_alias = self.plan.nodes[node_idx].alias
        result[node_idx] = tid
        rows[root_alias] = row

        def bind(k: int) -> Iterator[PlanResult]:
            if k == len(order):
                yield tuple(result)  # type: ignore[arg-type]
                return
            alias = order[k]
            parent_alias = rooted.parent[alias]
            own_idx = self.plan.node_idx(alias)
            parent_idx = self.plan.node_idx(parent_alias)
            cut = self._cut_of[(own_idx, parent_idx)](rows[parent_alias])
            tree = self._indexes[(own_idx, parent_idx)]
            for own_tid, own_row in tree.iter_items(cut):
                self.stats.tuples_accessed += 1
                result[own_idx] = own_tid
                rows[alias] = own_row
                yield from bind(k + 1)
            result[own_idx] = None
            rows.pop(alias, None)

        yield from bind(1)

    def _enumerate_all(self) -> List[PlanResult]:
        """The full join: probe outward from every registered tuple of
        node 0 (the engine's own live set, not the shared heap — heap rows
        may outlive their registration under multi-query sharing)."""
        root_idx = 0
        out: List[PlanResult] = []
        for tid, row in self._live[root_idx].items():
            self.stats.tuples_accessed += 1
            out.extend(self._enumerate_from(root_idx, tid, row))
        return out

    def _rebuild_from_full_join(self) -> None:
        """Recompute the full join and recreate the synopsis (§3)."""
        self.stats.full_recomputes += 1
        results = self._enumerate_all()
        self.synopsis = self.synopsis.rebuild_from_results(
            ListView(results))
