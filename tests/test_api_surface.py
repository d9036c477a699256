"""Public API surface: everything advertised must import and be real."""

import importlib

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"{name} in __all__ but missing"


def test_version():
    assert repro.__version__ == "6.3.0"


@pytest.mark.parametrize("module", [
    "repro.catalog", "repro.query", "repro.index", "repro.graph",
    "repro.sampling", "repro.core", "repro.datagen", "repro.bench",
    "repro.analytics", "repro.stats", "repro.cli",
    "repro.core.window", "repro.core.manager",
    "repro.core.serialize", "repro.core.stats_api",
    "repro.index.api", "repro.index.avl", "repro.query.explain",
    "repro.bench.export",
    "repro.obs", "repro.obs.metrics", "repro.obs.names",
    "repro.obs.expo", "repro.obs.quality",
    "repro.obs.events",
    "repro.persist", "repro.persist.wal", "repro.persist.snapshot",
    "repro.persist.state", "repro.persist.runtime",
    "repro.persist.crashpoints",
    "repro.service", "repro.service.runtime", "repro.service.http",
    "repro.service.client",
    "repro.replicate", "repro.replicate.transport",
    "repro.replicate.shipper", "repro.replicate.follower",
    "repro.aqp", "repro.aqp.registry", "repro.aqp.estimation",
    "repro.aqp.audit",
])
def test_submodules_import(module):
    importlib.import_module(module)


def test_subpackage_all_exports_resolve():
    for module_name in ("repro.catalog", "repro.query", "repro.core",
                        "repro.sampling", "repro.datagen", "repro.bench",
                        "repro.analytics", "repro.stats", "repro.index",
                        "repro.graph", "repro.obs", "repro.persist",
                        "repro.service", "repro.replicate", "repro.aqp"):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name} missing"


def test_every_public_symbol_has_a_docstring():
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_metric_name_catalogue_is_stable():
    """The metric names are a published contract (docs/observability.md);
    renaming one is an API break and must show up here."""
    from repro.obs import names

    assert names.ALL_METRIC_NAMES == (
        "engine.insert_ns", "engine.insert.graph_ns",
        "engine.insert.sample_ns", "engine.insert.enumerate_ns",
        "engine.delete_ns", "engine.delete.graph_ns",
        "engine.delete.replenish_ns",
        "graph.vertices_visited", "graph.index_refreshes",
        "graph.vertex_creations", "graph.vertex_removals",
        "graph.weight_recomputes", "graph.index_maintenance_ops",
        "synopsis.skips_drawn", "synopsis.accepts", "synopsis.replaces",
        "synopsis.purges", "synopsis.redraws",
        "synopsis.redraw_rejections", "synopsis.rebuilds",
        "synopsis.size", "synopsis.total_results",
        "fk.assembles", "fk.assembly_drops", "fk.lookups",
        "fk.member_registrations",
        "persist.wal.appends", "persist.wal.bytes", "persist.wal.syncs",
        "persist.wal.rotations", "persist.wal.append_ns",
        "persist.snapshot.writes", "persist.snapshot.bytes",
        "persist.snapshot.write_ns",
        "persist.recovery.count", "persist.recovery.replayed_ops",
        "persist.recovery_ns",
        "trace.slow_ops",
        "quality.probe_rounds", "quality.probes_drawn",
        "quality.chi_square", "quality.ks_ratio", "quality.flagged",
        "quality.staleness_seconds",
        "aqp.estimates", "aqp.estimate_ns", "aqp.audited",
        "aqp.relative_error", "aqp.coverage", "aqp.coverage_flagged",
        "events.emitted", "events.dropped",
        "replicate.ships", "replicate.ship_segments",
        "replicate.ship_snapshots", "replicate.ship_bytes",
        "replicate.ship_ns",
        "replicate.acked_lsn", "replicate.polls",
        "replicate.replayed_records", "replicate.replayed_ops",
        "replicate.replay_ns", "replicate.applied_lsn",
        "replicate.epoch_lag", "replicate.staleness_seconds",
        "replicate.lag_ms",
        "service.queue_depth", "service.epoch",
        "service.ops_applied", "service.ops_rejected",
        "service.ingest_errors",
        "service.batch_ops", "service.ingest_batch_ns",
        "service.publish_ns", "service.read_ns",
    )
    assert len(set(names.ALL_METRIC_NAMES)) == 75
    assert names.table_insert_ns("ss") == "table.ss.insert_ns"
    assert names.table_delete_ns("ss") == "table.ss.delete_ns"
    assert names.manager_fanout("store_sales") == \
        "manager.store_sales.fanout"
    assert names.manager_insert_ns("t") == "manager.t.insert_ns"
    assert names.manager_delete_ns("t") == "manager.t.delete_ns"


def test_persist_public_surface_is_stable():
    """The repro.persist exports are a published contract: recovery
    tooling and the CI crash-matrix job import these names."""
    from repro import persist

    assert tuple(persist.__all__) == (
        "CrashPoint",
        "CrashPointInjector",
        "PersistentManager",
        "STATE_VERSION",
        "SegmentInfo",
        "SnapshotInfo",
        "SnapshotStore",
        "WriteAheadLog",
        "capture_database",
        "capture_maintainer",
        "capture_manager",
        "has_state",
        "replay_manager_entry",
        "restore_database",
        "restore_maintainer",
        "restore_manager",
    )
    for name in persist.__all__:
        obj = getattr(persist, name)
        assert obj.__doc__, f"repro.persist.{name} lacks a docstring"
    assert persist.STATE_VERSION == 3
    # CrashPoint stands in for SIGKILL: production code catching the
    # library's error hierarchy must never swallow it
    from repro.errors import ReproError

    assert not issubclass(persist.CrashPoint, ReproError)


def test_maintainer_config_fields_are_stable():
    """MaintainerConfig is THE construction contract of the redesigned
    facade; adding a field is fine, renaming or dropping one is not
    (4.0 dropped ``index_backend`` with the backends, 5.0
    ``use_statistics``: ``effective_spec=spec`` means "do not estimate";
    6.0 ``tracer`` with the tracer, and moved ``quality`` to
    ``ServiceConfig``: whoever serves the view owns the monitor)."""
    import dataclasses

    from repro import MaintainerConfig

    fields = [f.name for f in dataclasses.fields(MaintainerConfig)]
    assert fields == ["spec", "engine", "seed", "obs", "name",
                      "effective_spec"]
    config = MaintainerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.engine = "sjoin"
    with pytest.raises(TypeError):  # keyword-only
        MaintainerConfig(None)


def test_service_public_surface_is_stable():
    """The serving layer's exports are a published contract."""
    from repro import service

    assert tuple(service.__all__) == (
        "SynopsisService",
        "ServiceConfig",
        "ReadView",
        "OVERFLOW_POLICIES",
        "ServiceHTTPServer",
        "LocalServiceClient",
    )
    assert service.OVERFLOW_POLICIES == ("block", "reject")
    import dataclasses

    fields = [f.name for f in dataclasses.fields(service.ServiceConfig)]
    assert fields == ["max_queue_ops", "max_batch_ops",
                      "overflow_policy", "block_timeout",
                      "drain_timeout", "obs", "events", "quality"]


def test_replicate_public_surface_is_stable():
    """The replication layer's exports are a published contract: the CI
    replication job and follower deployments import these names."""
    from repro import replicate

    assert tuple(replicate.__all__) == (
        "DirectoryTransport",
        "FollowerService",
        "MANIFEST_NAME",
        "MANIFEST_VERSION",
        "ReplicationTransport",
        "WalShipper",
        "as_transport",
    )
    for name in replicate.__all__:
        obj = getattr(replicate, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"repro.replicate.{name} lacks a docstring"
    # follower rejections must be catchable both as service errors (the
    # HTTP layer's 4xx mapping) and as the library-wide base
    from repro.errors import (FollowerReadOnlyError, ReproError,
                              ReplicationError, ServiceError)

    assert issubclass(FollowerReadOnlyError, ServiceError)
    assert issubclass(ReplicationError, ReproError)


def test_every_public_exception_subclasses_repro_error():
    """Everything exported from repro.errors (except the base) must be
    catchable as ReproError — the single except-clause contract."""
    import inspect

    from repro import errors

    exported = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
                if obj.__module__ == "repro.errors"]
    assert len(exported) >= 15
    for cls in exported:
        assert issubclass(cls, errors.ReproError), cls
    # dual-inheritance shims: pre-redesign except-clauses keep working
    assert issubclass(errors.InvalidArgumentError, ValueError)
    assert issubclass(errors.IndexKeyError, KeyError)
    # service errors share one intermediate base
    assert issubclass(errors.ServiceOverloadedError, errors.ServiceError)
    assert issubclass(errors.ServiceClosedError, errors.ServiceError)


def test_batch_first_surface_is_stable():
    """apply_batch is THE primary update entry point of the batch-first
    redesign: it must exist (with the same signature shape) on every
    applying layer, and BatchResult/OpOutcome must be exported from the
    package root."""
    import inspect

    from repro import BatchResult, OpOutcome  # noqa: F401 -- the contract
    from repro.core.maintainer import JoinSynopsisMaintainer
    from repro.core.manager import SynopsisManager
    from repro.core.serialize import SerializedManager
    from repro.persist import PersistentManager
    from repro.service import SynopsisService

    for cls in (JoinSynopsisMaintainer, SynopsisManager,
                SerializedManager, PersistentManager, SynopsisService):
        assert hasattr(cls, "apply_batch"), cls
        params = list(inspect.signature(cls.apply_batch).parameters)
        assert params[1] == "ops", cls
        # 2.0 removed the deprecated sequence shim everywhere, 3.0 the
        # ``apply`` wrapper and its ApplyResult shape
        assert not hasattr(cls, "insert_many"), cls
        assert not hasattr(cls, "apply"), cls


def test_removed_in_3_0_names_are_absent():
    """3.0 collapsed the maintainer fork of every wrapper and dropped
    what 2.0 marked "removed in the next release"; none of it may creep
    back as an alias (CHANGELOG.md has the replacement table)."""
    from repro import core, persist, replicate, service
    from repro.core import stats_api
    from repro.core.stats_api import (BatchResult, MaintainerStats,
                                      ManagerStats)
    from repro.persist import runtime as persist_runtime

    for module, names in (
        (repro, ("ApplyResult", "SerializedMaintainer",
                 "PersistentMaintainer")),
        (core, ("ApplyResult", "SerializedMaintainer")),
        (stats_api, ("ApplyResult",)),
        (persist, ("PersistentMaintainer", "replay_maintainer_entry")),
        (persist_runtime, ("PersistentMaintainer", "_PersistentBase",
                           "replay_maintainer_entry")),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ()), name
    assert not hasattr(BatchResult, "to_apply_result")
    for stats_type in (MaintainerStats, ManagerStats):
        assert "__getitem__" not in vars(stats_type), stats_type
    for cls in (service.SynopsisService, replicate.FollowerService):
        assert not hasattr(cls, "submit"), cls


def test_one_declared_target_shape(tmp_path):
    """``SynopsisTarget`` lists what wrappers rely on; the manager and
    both of its wrappers satisfy it structurally (no base class)."""
    from repro import (Database, SerializedManager, SynopsisManager,
                       SynopsisTarget)
    from repro.persist import PersistentManager

    members = sorted(name for name in vars(SynopsisTarget)
                     if not name.startswith("_"))
    assert members == sorted([
        "names", "maintainer", "register", "unregister", "apply_batch",
        "synopsis_entries", "total_results", "family_of", "stats"])
    assert list(SynopsisTarget.__annotations__) == ["db"]
    manager = SynopsisManager(Database())
    persistent = PersistentManager(
        SynopsisManager(Database()), str(tmp_path))
    for target in (manager, SerializedManager(manager), persistent):
        assert SynopsisTarget not in type(target).__mro__
        assert target.db is not None
        for name in members:
            assert callable(getattr(target, name)), (target, name)
    persistent.close()


def test_one_aggregate_index_no_selector():
    """4.0 kept the paper's AVL tree as the only aggregate index: the
    alternative backends, the registry that named them, the option that
    selected one and both engine env flags are gone (CHANGELOG.md has
    the table), and none of it may creep back."""
    import inspect

    from repro import MaintainerConfig, errors, index
    from repro.core.stats_api import MaintainerStats
    from repro.graph import join_graph
    from repro.index import api

    for module in ("repro.index.fenwick", "repro.index.skiplist"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert sorted(index.__all__) == ["AggregateTree", "HashIndex",
                                     "IndexRange", "TreeNode"]
    for module, names in (
        (api, ("AggregateIndex", "AggregateIndexBase", "NodeHandle",
               "register_backend", "unregister_backend", "make_index",
               "resolve_backend", "available_backends",
               "RETIRED_BACKENDS", "retired_fallback", "BACKEND_ENV_VAR",
               "BUILTIN_DEFAULT_BACKEND")),
        (index, ("AggregateIndex", "FenwickArena", "AggregateSkipList",
                 "make_index", "available_backends")),
        (join_graph, ("NUMPY_FLAG_ENV_VAR", "_numpy_active", "_np")),
        (errors, ("IndexBackendError",)),
        (repro, ("IndexBackendError",)),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ()), name
    # what the layer benchmark imports for its run metadata
    assert inspect.signature(api.default_backend).parameters == {}
    assert api.default_backend() == "avl"
    with pytest.raises(TypeError):
        MaintainerConfig(index_backend="avl")
    assert "index_backend" not in MaintainerStats.__dataclass_fields__


def test_removed_in_5_0_names_are_absent():
    """5.0 deleted what neither the stack nor a paper figure reaches
    (CHANGELOG.md has the removed -> replacement table); no alias, shim
    or module ``__getattr__`` may bring any of it back."""
    import inspect

    from repro import (MaintainerConfig, SJoinEngine, analytics, core,
                       sampling, stats)
    from repro.core import synopsis
    from repro.graph import join_number
    from repro.graph.join_graph import WeightedJoinGraph
    from repro.obs import names

    for module in ("repro.sampling.weighted_reservoir",
                   "repro.core.static_sampler",
                   "repro.analytics.groupby",
                   "repro.analytics.histogram"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    removed = (
        "WeightedReservoirSampler", "StaticJoinSampler",
        "register_synopsis_kind", "EquiDepthHistogram",
        "histogram_deviation", "sample_size_for_histogram",
        "GroupEstimate", "estimate_groups", "top_k_groups",
        "estimate_quantile", "estimate_filter_selectivity",
        "map_join_number_with_weight", "GRAPH_AVL_ROTATIONS")
    for module in (repro, core, synopsis, sampling, analytics, stats,
                   join_number, names):
        for name in removed:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ()), name
    for cls in (SJoinEngine, WeightedJoinGraph):
        assert "batch_updates" not in inspect.signature(cls).parameters
    with pytest.raises(TypeError):
        MaintainerConfig(use_statistics=False)


def test_one_timing_channel_no_tracer():
    """6.0 made the registry the one timing channel (CHANGELOG.md has
    the removed -> replacement table): no tracer module, name or
    parameter may come back beside it."""
    import inspect

    from repro import (MaintainerConfig, SJoinEngine, SymmetricJoinEngine,
                       obs)
    from repro.persist import PersistentManager
    from repro.replicate import FollowerService, WalShipper
    from repro.service import ServiceConfig

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.trace")
    for name in ("Tracer", "TraceRing", "TraceSpan", "TraceEvent",
                 "NullTracer", "NULL_TRACER", "as_tracer"):
        assert not hasattr(obs, name) and name not in obs.__all__, name
    for owner in (SJoinEngine, SymmetricJoinEngine, PersistentManager,
                  PersistentManager.recover, WalShipper, FollowerService):
        assert "tracer" not in inspect.signature(owner).parameters, owner
    for refused in (lambda: MaintainerConfig(tracer=None),
                    lambda: ServiceConfig(tracer=None),
                    lambda: MaintainerConfig(quality=True)):
        with pytest.raises(TypeError):
            refused()
    assert list(inspect.signature(obs.MetricsRegistry).parameters) == [
        "clock", "max_label_children", "events", "slow_op_threshold_ns"]


def test_legacy_construction_kwargs_removed():
    """2.0 dropped the construction shims: legacy kwargs fail like any
    misspelled keyword, and a bare SynopsisSpec in the config slot is
    rejected with guidance."""
    from repro import (Column, Database, InvalidArgumentError,
                       JoinSynopsisMaintainer, MaintainerConfig,
                       SynopsisSpec, TableSchema)

    db = Database()
    db.create_table(TableSchema("r", [Column("a")]))
    db.create_table(TableSchema("s", [Column("a")]))
    sql = "SELECT * FROM r, s WHERE r.a = s.a"
    with pytest.raises(TypeError):
        JoinSynopsisMaintainer(db, sql, spec=SynopsisSpec.fixed_size(5))
    with pytest.raises(TypeError):
        JoinSynopsisMaintainer(db, sql, algorithm="sjoin")
    with pytest.raises(InvalidArgumentError):
        JoinSynopsisMaintainer(db, sql, SynopsisSpec.fixed_size(5))
    JoinSynopsisMaintainer(
        db, sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(5), seed=1))


def test_aqp_surface_is_stable():
    """The 2.0 SQL front door is a published contract: the registry
    types, the typed parse error with position info, the HTTP routes,
    and the local client's AQP methods."""
    import inspect

    from repro import aqp
    from repro.aqp import (AGGREGATES, QueryRegistry, RegisteredQuery,
                           Snapshot, estimate_from_snapshot)
    from repro.errors import ParseError, QueryParseError
    from repro.service.client import LocalServiceClient

    assert tuple(aqp.__all__) == (
        "AGGREGATES",
        "AccuracyAuditor",
        "AuditConfig",
        "AuditRecord",
        "QueryRegistry",
        "RegisteredQuery",
        "Snapshot",
        "estimate_from_snapshot",
    )
    assert AGGREGATES == ("count", "sum", "avg")
    # package-root exports
    assert repro.QueryRegistry is QueryRegistry
    assert repro.RegisteredQuery is RegisteredQuery
    assert repro.QueryParseError is QueryParseError
    # the typed parse error: subclasses ParseError, carries position info
    assert issubclass(QueryParseError, ParseError)
    for attr in ("position", "token", "sql"):
        assert attr in QueryParseError("x", position=0).__dict__, attr
    # registry surface
    for method in ("register", "get", "names", "describe_all"):
        assert callable(getattr(QueryRegistry, method)), method
    params = list(
        inspect.signature(QueryRegistry.register).parameters)
    assert params[1:3] == ["sql", "name"]
    for method in ("estimate", "explain", "describe"):
        assert callable(getattr(RegisteredQuery, method)), method
    params = list(
        inspect.signature(RegisteredQuery.estimate).parameters)
    assert params[1] == "agg"
    # estimation helpers
    assert list(inspect.signature(Snapshot).parameters)[:4] == [
        "family", "total", "results", "meta"]
    assert callable(estimate_from_snapshot)
    # local client parity with the HTTP routes
    for method in ("register_query", "estimate", "queries"):
        assert callable(getattr(LocalServiceClient, method)), method
