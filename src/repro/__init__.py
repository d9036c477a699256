"""repro — SJoin: Efficient Join Synopsis Maintenance for Data Warehouse.

A faithful, pure-Python reproduction of Zhao, Li & Liu, SIGMOD 2020: an
in-memory engine that maintains a random sample (*join synopsis*) of a
pre-specified general θ-join under continuous insertions and deletions,
via the weighted join graph index, plus the SJ baseline, data
generators, durability (:mod:`repro.persist`) and a concurrent serving
layer (:mod:`repro.service`); ``benchmarks/paper.py`` re-measures the
paper's evaluation.  Three synopsis *families* share the seam: the
paper's uniform kinds, weight-proportional kinds driven by a per-tuple
weight column, and a Poisson/subset kind with exact per-result
inclusion probabilities (see ``docs/api.md``).

The SQL front door (:mod:`repro.aqp`) registers a query by SQL and
answers error-bounded approximate COUNT/SUM/AVG and GROUP BY from the
maintained synopsis (see ``docs/sql.md``)::

    from repro import QueryRegistry

    registry = QueryRegistry(manager)          # or a SynopsisService
    q = registry.register("SELECT * FROM r, s WHERE r.a = s.a")
    q.estimate("count")                        # value, stderr, 95% CI

Quickstart — the engine-facing unit maintains one query, addressed by
range-table alias::

    from repro import (Column, Database, DataType, JoinSynopsisMaintainer,
                       MaintainerConfig, SynopsisSpec, TableSchema)

    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    m = JoinSynopsisMaintainer(
        db, "SELECT * FROM r, s WHERE r.a = s.a",
        MaintainerConfig(spec=SynopsisSpec.fixed_size(100), seed=7),
    )
    m.insert("r", (1, 10))
    m.insert("s", (1, 20))
    print(m.synopsis())        # [(0, 0)]

Everything above the engine — durability, the serving layer,
replication, AQP — wraps a :class:`SynopsisManager` (one registration
per maintained query, updates addressed by base table).  To serve a
synopsis to concurrent writers and readers::

    from repro import SynopsisManager, SynopsisService

    manager = SynopsisManager(db)
    manager.register("rs", "SELECT * FROM r, s WHERE r.a = s.a")
    with SynopsisService(manager) as service:
        service.insert("r", (2, 11))     # thread-safe, queued + applied
        service.synopsis()               # lock-free snapshot read

(`repro serve` exposes the same service over JSON/HTTP.)
"""

from repro.catalog import (
    Column,
    Database,
    DataType,
    ForeignKey,
    Table,
    TableSchema,
)
from repro.core import (
    BatchResult,
    BernoulliSynopsis,
    DeleteOp,
    ENGINES,
    FixedSizeWithReplacement,
    FixedSizeWithoutReplacement,
    InsertOp,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    MaintainerStats,
    ManagerStats,
    OpOutcome,
    SJoinEngine,
    SubsetSynopsis,
    SymmetricJoinEngine,
    SynopsisManager,
    SynopsisSpec,
    SynopsisTarget,
    SYNOPSIS_FAMILIES,
    UpdateOp,
    WeightedFixedSize,
    WeightedWithReplacement,
    family_of_kind,
)
from repro.aqp import (
    AGGREGATES,
    QueryRegistry,
    RegisteredQuery,
)
from repro.errors import (
    CatalogError,
    FollowerReadOnlyError,
    IndexKeyError,
    IntegrityError,
    InvalidArgumentError,
    ParseError,
    PersistError,
    PlanError,
    QueryError,
    QueryParseError,
    RecoveryError,
    ReplicationError,
    ReproError,
    SchemaError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SynopsisError,
    TupleNotFoundError,
)
from repro.obs import MetricsRegistry, NullRegistry
from repro.sampling import WalkerAlias
from repro.query import (
    BandPredicate,
    ComparisonOp,
    FilterPredicate,
    JoinExecutor,
    JoinPredicate,
    JoinQuery,
    MultiTableFilter,
    RangeTable,
    parse_query,
)
from repro.replicate import (
    DirectoryTransport,
    FollowerService,
    ReplicationTransport,
    WalShipper,
)
from repro.service import (
    LocalServiceClient,
    ReadView,
    ServiceConfig,
    ServiceHTTPServer,
    SynopsisService,
)

__version__ = "16.0.0"

__all__ = [
    # catalog
    "Column", "Database", "DataType", "ForeignKey", "Table", "TableSchema",
    # query
    "BandPredicate", "ComparisonOp", "FilterPredicate", "JoinExecutor",
    "JoinPredicate", "JoinQuery", "MultiTableFilter", "RangeTable",
    "parse_query",
    # core
    "SynopsisSpec", "FixedSizeWithoutReplacement",
    "FixedSizeWithReplacement", "BernoulliSynopsis",
    "WeightedFixedSize", "WeightedWithReplacement", "SubsetSynopsis",
    "SYNOPSIS_FAMILIES", "family_of_kind",
    "SJoinEngine", "SymmetricJoinEngine", "JoinSynopsisMaintainer",
    "SynopsisManager", "SynopsisTarget",
    # configuration
    "MaintainerConfig", "ENGINES",
    # stats / batch-update API ("UpdateOp", the Insert|Delete union alias,
    # is importable but not listed: typing aliases carry no docstring)
    "BatchResult", "OpOutcome", "MaintainerStats", "ManagerStats",
    "InsertOp", "DeleteOp",
    # approximate query processing (SQL front door)
    "QueryRegistry", "RegisteredQuery", "AGGREGATES",
    # concurrent serving layer
    "SynopsisService", "ServiceConfig", "ReadView", "ServiceHTTPServer",
    "LocalServiceClient",
    # read scale-out replication
    "WalShipper", "FollowerService", "ReplicationTransport",
    "DirectoryTransport",
    # sampling primitives
    "WalkerAlias",
    # observability
    "MetricsRegistry", "NullRegistry",
    # errors
    "ReproError", "SchemaError", "CatalogError", "QueryError", "ParseError", "QueryParseError",
    "PlanError", "IntegrityError", "TupleNotFoundError", "SynopsisError",
    "InvalidArgumentError", "IndexKeyError",
    "PersistError", "RecoveryError", "ReplicationError",
    "ServiceError", "ServiceOverloadedError", "ServiceClosedError",
    "FollowerReadOnlyError",
    "__version__",
]
