"""Public facade: :class:`JoinSynopsisMaintainer`.

Ties together a database, a pre-specified join query (SQL text or a
:class:`JoinQuery`), a synopsis specification and one of the engines::

    from repro import (Database, JoinSynopsisMaintainer, MaintainerConfig,
                       SynopsisSpec)

    maintainer = JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a",
        MaintainerConfig(spec=SynopsisSpec.fixed_size(1000),
                         engine="sjoin-opt", seed=42),
    )
    maintainer.insert("r", (1, "x"))
    maintainer.delete("s", tid)
    sample = maintainer.synopsis()      # O(1)-ready, always valid

Residual multi-table filters (from demoted cycle edges or user-defined
predicates) are applied at read time; per §5.1 the maintainer over-allocates
a fixed-size synopsis by ``1/f`` (estimated filter selectivity) so about
the requested size of samples passes them, and shows every one that does.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import (Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.catalog.database import Database
from repro.core.config import MaintainerConfig, coerce_config
from repro.core.entries import SynopsisEntries
from repro.core.sjoin import SJoinEngine
from repro.core.stats_api import (
    BatchResult,
    DeleteOp,
    InsertOp,
    MaintainerStats,
    UpdateOp,
)
from repro.core.symmetric_join import SymmetricJoinEngine
from repro.core.synopsis import SynopsisSpec
from repro.errors import SynopsisError
from repro.obs import names as metric_names
from repro.obs.metrics import as_registry
from repro.query.parser import parse_query
from repro.query.query import JoinQuery
from repro.query.query_tree import build_query_tree


class JoinSynopsisMaintainer:
    """Maintain a join synopsis for one pre-specified query.

    Parameters
    ----------
    db:
        The database the query ranges over.
    query:
        SQL text (parsed with :func:`repro.query.parse_query`) or a
        :class:`JoinQuery`.
    config:
        A :class:`~repro.core.config.MaintainerConfig` carrying the
        synopsis spec, engine name, seed and observability registry.
    """

    def __init__(
        self,
        db: Database,
        query: Union[str, JoinQuery],
        config: Optional[MaintainerConfig] = None,
    ):
        config = coerce_config(config, owner="JoinSynopsisMaintainer")
        if isinstance(query, str):
            self.sql = query
            query = parse_query(query, db)
        else:
            self.sql = str(query)
        self.db = db
        self.query = query
        self.config = config
        self.name = config.name
        self.obs = as_registry(config.obs)
        spec = config.spec
        if spec is None:
            spec = SynopsisSpec.fixed_size(1000)
        self.requested_spec = spec
        self.algorithm = config.engine
        # ``effective_spec`` pins the engine's (possibly over-allocated)
        # spec explicitly — repro.persist passes the captured one so a
        # restore never re-estimates filter selectivity from whatever data
        # happens to be loaded at restore time.
        if config.effective_spec is not None:
            effective = config.effective_spec
        else:
            effective = self._effective_spec(spec, query)
        rng = random.Random(config.seed)
        if self.algorithm == "sj":
            self.engine = SymmetricJoinEngine(
                db, query, effective, rng=rng, obs=self.obs)
        else:
            self.engine = SJoinEngine(
                db, query, effective,
                fk_optimize=(self.algorithm == "sjoin-opt"), rng=rng,
                obs=self.obs)

    # ------------------------------------------------------------------
    def _effective_spec(self, spec: SynopsisSpec,
                        query: JoinQuery) -> SynopsisSpec:
        """Enlarge fixed-size synopses by 1/f for residual filters (§5.1).

        ``f`` is the product of the residual filters' selectivities — an
        explicit ``selectivity_hint`` when given, otherwise an estimate
        from column statistics of any already-loaded data, falling back
        to textbook constants.
        """
        tree = build_query_tree(query)
        residuals = list(tree.demoted) + list(query.multi_filters)
        if not residuals or spec.size is None:
            # rate-based kinds (bernoulli, subset) have no fixed size to
            # over-allocate; residual filtering thins them naturally
            return spec
        selectivity = 1.0
        for mflt in residuals:
            selectivity *= max(min(self._residual_selectivity(mflt), 1.0),
                               1e-6)
        factor = math.ceil(1.0 / selectivity)
        if factor <= 1:
            return spec
        # kind, family and weight column are preserved — only the
        # capacity is over-allocated
        return spec.resized(spec.size * factor)

    def _residual_selectivity(self, mflt) -> float:
        if mflt.selectivity_hint != 1.0 or mflt.theta is None:
            return mflt.selectivity_hint
        from repro.stats.column_stats import collect_stats
        from repro.stats.selectivity import estimate_theta_selectivity

        theta = mflt.theta
        left_table = self.db.table(
            self.query.range_table(theta.left).table_name
        )
        right_table = self.db.table(
            self.query.range_table(theta.right).table_name
        )
        left_stats = collect_stats(left_table).column(theta.left_attr)
        right_stats = collect_stats(right_table).column(theta.right_attr)
        return estimate_theta_selectivity(theta, left_stats, right_stats)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_batch(self, ops: Iterable[UpdateOp]) -> BatchResult:
        """Apply a micro-batch of :class:`InsertOp` / :class:`DeleteOp`.

        The one update path — :meth:`insert` and :meth:`delete` delegate
        here.  ``op.target`` is a range-table alias.  Consecutive
        inserts — whatever their target aliases — are handed to the
        engine as one run: every entry's own bookkeeping (heap row,
        member hash, anchor assembly) happens in op order, the graph
        propagates the weight deltas once per (vertex, direction) for
        each stretch of entries that lands on one plan node,
        skip-sampling reads one delta view per stretch, and each stretch
        is reported to the registry once (hash-only registrations never
        end one).  Consecutive deletes on
        one alias are a run too: every entry is purged and re-drawn in
        op order against the join graph rooted at the alias's node,
        whose weight deltas reach the other tables once per direction
        when the run ends.  Either way the sampled synopsis (and the
        RNG stream behind it) is bit-identical to serial per-op
        application, and a run that fails at some entry stops where
        per-op application would.

        Returns a :class:`BatchResult` over ``ops`` (a list is kept as
        handed over, not copied) and one TID per op, in op order.
        """
        started = time.perf_counter_ns()
        if not isinstance(ops, list):
            ops = list(ops)
        tids: List[Optional[int]] = []
        obs = self.obs
        obs_on = obs.enabled
        engine = self.engine
        i, n = 0, len(ops)
        while i < n:
            op = ops[i]
            if isinstance(op, InsertOp):
                j = i + 1
                while j < n and isinstance(ops[j], InsertOp):
                    j += 1
                run = ops[i:j]
                t0 = obs.clock()
                with engine.open_insert_run() as engine_run:
                    insert = engine_run.insert
                    tids.extend([insert(o.target, o.row) for o in run])
                if obs_on:
                    elapsed = obs.clock() - t0
                    # attribute the run's wall time to each table it
                    # touched, proportionally to its share of the ops
                    counts: Dict[str, int] = {}
                    for o in run:
                        counts[o.target] = counts.get(o.target, 0) + 1
                    for target, count in counts.items():
                        obs.histogram(
                            metric_names.table_insert_ns(target)
                        ).observe(elapsed * count // len(run))
                i = j
            elif isinstance(op, DeleteOp):
                target = op.target
                j = i + 1
                while j < n and isinstance(ops[j], DeleteOp) \
                        and ops[j].target == target:
                    j += 1
                if obs_on:
                    with obs.timer(metric_names.table_delete_ns(target)):
                        self._delete_run(target, ops[i:j])
                else:
                    self._delete_run(target, ops[i:j])
                tids.extend([None] * (j - i))
                i = j
            else:
                raise SynopsisError(
                    f"{self._label()} cannot apply {op!r}: expected "
                    "InsertOp or DeleteOp"
                )
        return BatchResult(ops, tids, time.perf_counter_ns() - started)

    def _delete_run(self, alias: str, ops: List[DeleteOp]) -> None:
        """One engine delete run over a same-alias stretch: each row is
        read, unregistered, then tombstoned in the heap, in op order."""
        engine = self.engine
        table = engine._routes[alias][0]    # the typed unknown-alias error
        with engine.delete_run(alias, len(ops)) as unregister:
            for op in ops:
                tid = op.tid
                unregister(tid, table.get(tid))
                table.delete(tid)

    def insert(self, alias: str, row: Sequence[object]) -> int:
        """Insert a row into range table ``alias``; returns its TID
        (-1 when rejected by a pre-filter)."""
        return self.apply_batch([InsertOp(alias, tuple(row))]).tids[0]

    def delete(self, alias: str, tid: int) -> None:
        """Delete the tuple ``tid`` from range table ``alias``."""
        self.apply_batch((DeleteOp(alias, tid),))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def synopsis(self) -> List[Tuple[int, ...]]:
        """The current synopsis as original-range-table TID tuples: the
        rows of :meth:`synopsis_entries`, as a fresh list."""
        return list(self.synopsis_entries().rows)

    @property
    def family(self) -> str:
        """Synopsis family of this maintainer (uniform/weighted/subset)."""
        return self.requested_spec.family

    def synopsis_entries(self) -> SynopsisEntries:
        """The current synopsis as ``(result, meta)`` pairs: original-
        range-table TID tuples, each with its sampling metadata
        (``weight``; plus ``inclusion_probability`` on the subset
        family), built from the entries' columns as it is read.

        These are every plan-level sample that passes the query's
        residual filters (§5.1), so about the requested size on an
        over-allocated fixed-size kind; ``drawn`` counts the plan-level
        samples.  The engine keeps the entries per sample
        (:mod:`repro.core.entries`), so the call costs the samples that
        changed since the previous one.
        """
        return self.engine.synopsis_entries()

    def synopsis_rows(self) -> List[Tuple[tuple, ...]]:
        """Like :meth:`synopsis` but materialised as row payloads."""
        return list(self.synopsis_entries().resolved)

    def total_results(self) -> int:
        """Exact number of (tree-predicate) join results currently held."""
        return self.engine.total_results()

    def stats(self) -> MaintainerStats:
        """Typed statistics snapshot (:class:`MaintainerStats`).

        ``metrics`` holds the engine's work counters (``inserts``,
        ``redraws``, ...) plus — when an observability registry is
        attached — the full registry snapshot, including this
        maintainer's per-alias update-latency histograms.
        """
        metrics: dict = {
            f.name: getattr(self.engine.stats, f.name)
            for f in dataclasses.fields(self.engine.stats)
        }
        # NOTE: ``metrics`` stays numeric (it feeds the Prometheus
        # exposition); the synopsis family is surfaced through
        # :attr:`family`, ``/healthz``, and the ``/synopsis`` payload.
        metrics.update(self.engine.metrics_snapshot())
        return MaintainerStats(
            total_results=self.total_results(),
            synopsis_size=len(self.synopsis_entries()),
            algorithm=self.algorithm,
            metrics=metrics,
        )

    def _label(self) -> str:
        """``algorithm`` plus the registered query name, for messages."""
        if self.name is not None:
            return f"query {self.name!r} (algorithm {self.algorithm!r})"
        return f"unnamed query (algorithm {self.algorithm!r})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.name if self.name is not None else "<unnamed>"
        return (
            f"JoinSynopsisMaintainer(name={name!r}, "
            f"algorithm={self.algorithm!r}, "
            f"spec={self.requested_spec.kind!r}, "
            f"J={self.total_results()})"
        )
