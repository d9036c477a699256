"""The four workloads, materialised once per seed into flat op lists.

Every rung of the ladder replays the *identical* input: a flat list of
:class:`~repro.core.stats_api.InsertOp` / ``DeleteOp`` on base-table
names, with every ``DeleteOldest`` event already resolved to the TIDs
it will hit.  TIDs are predictable because a heap table hands them out
as a per-table counter and no workload here has a pre-filter, so the
materialiser also emits the TID each insert *must* return; the rungs
compare what the stack returned against that and count mismatches as
failed operations.

The program under test never sees the seed — only these generated ops.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import TableSchema
from repro.core.stats_api import DeleteOp, InsertOp, UpdateOp
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, interleave_deletions
from repro.query.parser import parse_query

#: ops per front-door call on the stream workloads (the batching gate's
#: middle cell: big enough for run coalescing, small enough that the
#: per-batch stack overhead is a visible share)
BATCH = 64
#: inserts the HTTP writer sends before it reaches the first delete
HTTP_LEAD = 8
#: explicit per-query seed, so every rung, the recovered manager and
#: the follower draw the same random stream and synopses can be
#: compared bit for bit
QUERY_SEED = 17

#: the Fig. 11 scale of ``benchmarks/conftest.py`` (the batching gate's
#: stream); ``customers``/``store_sales`` are multiplied per workload.
#: Copied, not imported: a conftest needs pytest, and the benchmark's
#: inputs must not move when a figure test retunes its scale.
FIG_SCALE = TpcdsScale(
    dates=180, demographics=360, income_bands=15, items=900,
    categories=36, customers=1800, store_sales=9000,
    returns_fraction=0.35, catalog_sales=5500,
)

# Stream lengths: the one place to shrink a workload.  The issue sized
# them for a 2 s engine pass (QY x10, x3-4, 40 ticks).  The benchmark
# contract caps a run at ~37 s all told, set-up and gate included, also
# when the sandbox runs in its slow mode (1.5x); with the minimum of two
# interleaved engine/service passes inside that, a service pass costing
# 4-5 engine passes on the QY workloads, the lengths below are what
# fits: engine passes of about 1.3 s (QY) and 3 s (QB).
QY_INGEST_MULT = 7.0    # 88 200 streamed ops after 720 preload
QY_CHURN_MULT = 2.5     # 31 500 inserts: 47% preloaded, 53% churned
#: share of the churn workload's insert stream applied as preload.  A
#: fixed-size synopsis rebuilds from scratch on every purge while
#: J <= 2m (~25 ms each at m=2000); a cold churn stream stays there for
#: most of its length and runs at 2.5-4k ops/s depending on the seed
#: (27% quartile spread over six seeds), so it would measure the rebuild
#: and the seed, not the delete path.  The preload starts the timed
#: stream at J >> 2m, where purges re-draw instead of rebuilding.
QY_CHURN_PRELOAD = 0.47
QB_TICKS = 10           # 3 lanes x 120 cars x 10 ticks, window 2
QB_CARS = 120
QB_BAND = 200


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: what it streams (``BENCHMARK.json`` and the
    README say why it was chosen)."""

    name: str
    #: outermost durable front door: ``"service"`` (in-process
    #: ``SynopsisService.apply_batch``) or ``"http"`` (``POST /insert``)
    front_door: str
    query: str
    synopsis: int
    #: filtered-COUNT predicate of the end-to-end estimate
    where: Tuple[dict, ...]
    #: ``(sum column, group-by column)`` of the per-layer GROUP BY probe
    groupby: Tuple[str, str]
    build: Callable[[int, bool], tuple]


@dataclasses.dataclass
class Stream:
    """A materialised workload: schemas, preload, ops, predicted TIDs."""

    spec: WorkloadSpec
    sql: str
    schemas: Tuple[TableSchema, ...]
    alias_of: Dict[str, str]          # base table -> range-table alias
    preload: List[InsertOp]           # on base-table names
    ops: List[UpdateOp]               # on base-table names
    #: per op, in the ``BatchResult.tids`` convention: the TID an insert
    #: must return, ``None`` for a delete
    expected_tids: List[Optional[int]]
    #: smoke-test scale: short streams, few read probes
    tiny: bool = False

    def fresh_db(self) -> Database:
        """An empty database with this workload's tables."""
        db = Database()
        for schema in self.schemas:
            db.create_table(schema)
        return db

    def by_alias(self, ops: Sequence[UpdateOp]) -> List[UpdateOp]:
        """The same ops addressed by range-table alias (the bare
        ``JoinSynopsisMaintainer`` convention)."""
        alias_of = self.alias_of
        return [dataclasses.replace(op, target=alias_of[op.target])
                for op in ops]

    def http_start(self) -> int:
        """Where the HTTP writer starts in the stream: ``HTTP_LEAD`` ops
        before the first delete (at 0 on an insert-only stream), so that
        even a window of a few seconds at ~20 requests/s goes through
        both ``/insert`` and ``/delete``.  The server applies the ops
        before that point in process, as part of its preload."""
        for i, op in enumerate(self.ops):
            if isinstance(op, DeleteOp):
                return max(i - HTTP_LEAD, 0)
        return 0

    def batches(self, ops: Optional[Sequence[UpdateOp]] = None,
                size: int = BATCH) -> List[List[UpdateOp]]:
        ops = self.ops if ops is None else ops
        return [list(ops[i:i + size]) for i in range(0, len(ops), size)]


def _qy(mult: float, churn: bool):
    def build(seed: int, tiny: bool):  # -> sql, db, preload, events
        factor = mult / (20 if tiny else 1)
        scale = dataclasses.replace(
            FIG_SCALE,
            customers=int(FIG_SCALE.customers * factor),
            store_sales=int(FIG_SCALE.store_sales * factor),
        )
        setup = setup_query("QY", scale, seed=seed)
        if not churn:
            return setup.sql, setup.db, setup.preload, setup.stream
        cut = int(len(setup.stream) * QY_CHURN_PRELOAD)
        # ~44% deletes, never of an FK parent: store_sales is a leaf
        # and nothing references customer_c2
        events = interleave_deletions(
            setup.stream[cut:], delete_every={"ss": 100, "c2": 20},
            delete_count={"ss": 80, "c2": 16})
        return setup.sql, setup.db, setup.preload + setup.stream[:cut], events
    return build


def _qb(seed: int, tiny: bool):
    config = LinearRoadConfig(
        lanes=3, cars_per_lane=QB_CARS // (4 if tiny else 1),
        ticks=QB_TICKS // (2 if tiny else 1))
    setup = setup_qb(QB_BAND, config, seed=seed)
    return setup.sql, setup.db, [], setup.events


_QY_WHERE = ({"column": "ss.ss_quantity", "op": "<=", "value": 10},)
_QY_GROUPBY = ("ss.ss_quantity", "d1.hd_income_band_sk")

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "qy_ingest",
        "service", "qy", 500, _QY_WHERE, _QY_GROUPBY,
        _qy(QY_INGEST_MULT, churn=False)),
    WorkloadSpec(
        "qy_churn",
        "service", "qy", 2000, _QY_WHERE, _QY_GROUPBY,
        _qy(QY_CHURN_MULT, churn=True)),
    WorkloadSpec(
        "qb_window",
        "service", "qb", 200,
        ({"column": "lane2.pos", "op": "<=", "value": 500},),
        ("lane1.pos", "lane2.ts"), _qb),
    WorkloadSpec(
        "serve_mixed",
        "http", "qy", 500, _QY_WHERE, _QY_GROUPBY,
        _qy(1.0, churn=False)),
)

BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in WORKLOADS}


def materialise(spec: WorkloadSpec, seed: int, tiny: bool = False) -> Stream:
    """Generate ``spec``'s data from ``seed`` and flatten it to ops."""
    sql, db, preload_events, events = spec.build(seed, tiny)
    query = parse_query(sql, db)
    table_of = {rt.alias: rt.table_name for rt in query.range_tables}
    alias_of = {table: alias for alias, table in table_of.items()}
    if len(alias_of) != len(table_of):
        # the engine rung addresses ops by alias; that needs a bijection
        raise ValueError(f"{spec.name}: a base table has two aliases")
    next_tid: Dict[str, int] = {table: 0 for table in alias_of}
    live: Dict[str, deque] = {alias: deque() for alias in table_of}

    def flatten(batch) -> Tuple[List[UpdateOp], List[Optional[int]]]:
        ops: List[UpdateOp] = []
        tids: List[Optional[int]] = []
        for event in batch:
            table = table_of[event.alias]
            if isinstance(event, Insert):
                tid = next_tid[table]
                next_tid[table] = tid + 1
                live[event.alias].append(tid)
                ops.append(InsertOp(table, event.row))
                tids.append(tid)
            else:
                fifo = live[event.alias]
                for _ in range(min(event.count, len(fifo))):
                    ops.append(DeleteOp(table, fifo.popleft()))
                    tids.append(None)
        return ops, tids

    preload, _ = flatten(preload_events)
    ops, expected = flatten(events)
    schemas = tuple(db.table(name).schema for name in db.table_names())
    return Stream(spec, sql, schemas, alias_of, preload, ops, expected,
                  tiny)
