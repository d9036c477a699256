"""The metric name catalogue — a stable contract.

Every metric the maintenance path emits is named here; ``docs/
observability.md`` documents the semantics and ``tests/test_api_surface``
pins the names so dashboards and benchmark post-processing can rely on
them.  Names are dot-separated: ``<subsystem>.<event>[_ns]``; the ``_ns``
suffix marks latency histograms recorded in integer nanoseconds.

Per-table metrics are templated via the helper functions at the bottom
(``table.<alias>.insert_ns``, ``manager.<table>.fanout``); everything else
is a flat constant.
"""

from __future__ import annotations

# -- engine update phases (histograms, nanoseconds) ---------------------
INSERT_NS = "engine.insert_ns"                 # whole insert operation
INSERT_GRAPH_NS = "engine.insert.graph_ns"     # delta propagation (Alg. 1)
INSERT_SAMPLE_NS = "engine.insert.sample_ns"   # skip sampling (Alg. 3)
INSERT_ENUMERATE_NS = "engine.insert.enumerate_ns"  # SJ delta enumeration
DELETE_NS = "engine.delete_ns"                 # whole delete operation
DELETE_GRAPH_NS = "engine.delete.graph_ns"     # graph update / enumeration
DELETE_REPLENISH_NS = "engine.delete.replenish_ns"  # re-draw / rebuild

# -- weighted join graph (counters) -------------------------------------
GRAPH_VERTICES_VISITED = "graph.vertices_visited"
GRAPH_INDEX_REFRESHES = "graph.index_refreshes"
GRAPH_VERTEX_CREATIONS = "graph.vertex_creations"
GRAPH_VERTEX_REMOVALS = "graph.vertex_removals"
GRAPH_WEIGHT_RECOMPUTES = "graph.weight_recomputes"
# AVL rotations summed over all trees (gauge, published on read), under
# the name the layer benchmark reads
GRAPH_INDEX_MAINTENANCE_OPS = "graph.index_maintenance_ops"

# -- synopsis maintenance (counters) ------------------------------------
SYNOPSIS_SKIPS_DRAWN = "synopsis.skips_drawn"
SYNOPSIS_ACCEPTS = "synopsis.accepts"
SYNOPSIS_REPLACES = "synopsis.replaces"
SYNOPSIS_PURGES = "synopsis.purges"
SYNOPSIS_REDRAWS = "synopsis.redraws"
SYNOPSIS_REDRAW_REJECTIONS = "synopsis.redraw_rejections"
SYNOPSIS_REBUILDS = "synopsis.rebuilds"
SYNOPSIS_SIZE = "synopsis.size"                # gauge, published on read
TOTAL_RESULTS = "synopsis.total_results"       # gauge, published on read

# -- foreign-key runtime (§6, counters) ---------------------------------
FK_ASSEMBLES = "fk.assembles"
FK_ASSEMBLY_DROPS = "fk.assembly_drops"
FK_LOOKUPS = "fk.lookups"
FK_MEMBER_REGISTRATIONS = "fk.member_registrations"

# -- durability (repro.persist) -----------------------------------------
PERSIST_WAL_APPENDS = "persist.wal.appends"          # records appended
PERSIST_WAL_BYTES = "persist.wal.bytes"              # payload bytes framed
PERSIST_WAL_SYNCS = "persist.wal.syncs"              # fsync boundaries hit
PERSIST_WAL_ROTATIONS = "persist.wal.rotations"
PERSIST_WAL_APPEND_NS = "persist.wal.append_ns"      # histogram
PERSIST_SNAPSHOT_WRITES = "persist.snapshot.writes"
PERSIST_SNAPSHOT_BYTES = "persist.snapshot.bytes"
PERSIST_SNAPSHOT_WRITE_NS = "persist.snapshot.write_ns"  # histogram
PERSIST_RECOVERIES = "persist.recovery.count"
PERSIST_RECOVERY_REPLAYED_OPS = "persist.recovery.replayed_ops"
PERSIST_RECOVERY_NS = "persist.recovery_ns"          # histogram

# -- slow stages (MetricsRegistry.report) ---------------------------------
TRACE_SLOW_OPS = "trace.slow_ops"      # gauge, stages promoted to the log

# -- sample-quality monitor (repro.obs.quality; published on read) -------
QUALITY_PROBE_ROUNDS = "quality.probe_rounds"    # gauge, rounds run
QUALITY_PROBES_DRAWN = "quality.probes_drawn"    # gauge, probes drawn
QUALITY_CHI_SQUARE = "quality.chi_square"        # gauge, windowed sum
QUALITY_KS_RATIO = "quality.ks_ratio"  # gauge, windowed D / critical D
QUALITY_FLAGGED = "quality.flagged"    # gauge, 0/1 bias flag
# age of the published view (gauge, published on read)
QUALITY_STALENESS_SECONDS = "quality.staleness_seconds"

# -- AQP accuracy audit (repro.aqp.audit; children labeled {query=}) ----
AQP_ESTIMATES = "aqp.estimates"            # counter, estimates answered
AQP_ESTIMATE_NS = "aqp.estimate_ns"        # histogram, estimate latency
AQP_AUDITED = "aqp.audited"                # counter, events with truth
AQP_RELATIVE_ERROR = "aqp.relative_error"  # gauge, |rel err| of last audit
AQP_COVERAGE = "aqp.coverage"              # gauge, realized CI coverage
AQP_COVERAGE_FLAGGED = "aqp.coverage_flagged"  # gauge, 0/1 drift flag

# -- structured event log (repro.obs.events; published on read) ---------
EVENTS_EMITTED = "events.emitted"          # gauge, events emitted (lifetime)
EVENTS_DROPPED = "events.dropped"          # gauge, ring-overwritten events

# -- read scale-out replication (repro.replicate) -----------------------
REPLICATE_SHIPS = "replicate.ships"                  # counter, ship rounds
REPLICATE_SHIP_SEGMENTS = "replicate.ship_segments"  # counter, files touched
REPLICATE_SHIP_SNAPSHOTS = "replicate.ship_snapshots"  # counter
REPLICATE_SHIP_BYTES = "replicate.ship_bytes"        # counter, bytes copied
REPLICATE_SHIP_NS = "replicate.ship_ns"              # histogram, per round
REPLICATE_ACKED_LSN = "replicate.acked_lsn"          # gauge, manifest tip
REPLICATE_POLLS = "replicate.polls"                  # counter, tail polls
REPLICATE_REPLAYED_RECORDS = "replicate.replayed_records"  # counter
REPLICATE_REPLAYED_OPS = "replicate.replayed_ops"    # counter
REPLICATE_REPLAY_NS = "replicate.replay_ns"          # histogram, per record
REPLICATE_APPLIED_LSN = "replicate.applied_lsn"      # gauge, follower tip
REPLICATE_EPOCH_LAG = "replicate.epoch_lag"          # gauge, acked - applied
REPLICATE_STALENESS_SECONDS = "replicate.staleness_seconds"  # gauge
# correlated per-record lag (children labeled {role="leader"|"follower"}):
# leader append wall-clock -> manifest publication (leader role) and
# -> follower apply (follower role), in integer milliseconds
REPLICATE_LAG_MS = "replicate.lag_ms"                # histogram

# -- concurrent serving layer (repro.service) ---------------------------
SERVICE_QUEUE_DEPTH = "service.queue_depth"      # gauge, enqueued ops
SERVICE_EPOCH = "service.epoch"                  # gauge, published epoch
SERVICE_OPS_APPLIED = "service.ops_applied"      # counter
SERVICE_OPS_REJECTED = "service.ops_rejected"    # counter (backpressure)
SERVICE_INGEST_ERRORS = "service.ingest_errors"  # counter
SERVICE_BATCH_OPS = "service.batch_ops"          # histogram, ops/batch
# an ingest batch up to its publish, then the publish (histograms)
SERVICE_INGEST_BATCH_NS = "service.ingest_batch_ns"
SERVICE_PUBLISH_NS = "service.publish_ns"
SERVICE_READ_NS = "service.read_ns"              # histogram, snapshot reads

#: every flat metric name above, in catalogue order — the stable contract.
ALL_METRIC_NAMES = (
    INSERT_NS, INSERT_GRAPH_NS, INSERT_SAMPLE_NS, INSERT_ENUMERATE_NS,
    DELETE_NS, DELETE_GRAPH_NS, DELETE_REPLENISH_NS,
    GRAPH_VERTICES_VISITED, GRAPH_INDEX_REFRESHES,
    GRAPH_VERTEX_CREATIONS, GRAPH_VERTEX_REMOVALS,
    GRAPH_WEIGHT_RECOMPUTES, GRAPH_INDEX_MAINTENANCE_OPS,
    SYNOPSIS_SKIPS_DRAWN, SYNOPSIS_ACCEPTS, SYNOPSIS_REPLACES,
    SYNOPSIS_PURGES, SYNOPSIS_REDRAWS, SYNOPSIS_REDRAW_REJECTIONS,
    SYNOPSIS_REBUILDS, SYNOPSIS_SIZE, TOTAL_RESULTS,
    FK_ASSEMBLES, FK_ASSEMBLY_DROPS, FK_LOOKUPS, FK_MEMBER_REGISTRATIONS,
    PERSIST_WAL_APPENDS, PERSIST_WAL_BYTES, PERSIST_WAL_SYNCS,
    PERSIST_WAL_ROTATIONS, PERSIST_WAL_APPEND_NS,
    PERSIST_SNAPSHOT_WRITES, PERSIST_SNAPSHOT_BYTES,
    PERSIST_SNAPSHOT_WRITE_NS,
    PERSIST_RECOVERIES, PERSIST_RECOVERY_REPLAYED_OPS, PERSIST_RECOVERY_NS,
    TRACE_SLOW_OPS,
    QUALITY_PROBE_ROUNDS, QUALITY_PROBES_DRAWN, QUALITY_CHI_SQUARE,
    QUALITY_KS_RATIO, QUALITY_FLAGGED, QUALITY_STALENESS_SECONDS,
    AQP_ESTIMATES, AQP_ESTIMATE_NS, AQP_AUDITED, AQP_RELATIVE_ERROR,
    AQP_COVERAGE, AQP_COVERAGE_FLAGGED,
    EVENTS_EMITTED, EVENTS_DROPPED,
    REPLICATE_SHIPS, REPLICATE_SHIP_SEGMENTS, REPLICATE_SHIP_SNAPSHOTS,
    REPLICATE_SHIP_BYTES, REPLICATE_SHIP_NS,
    REPLICATE_ACKED_LSN, REPLICATE_POLLS,
    REPLICATE_REPLAYED_RECORDS, REPLICATE_REPLAYED_OPS,
    REPLICATE_REPLAY_NS, REPLICATE_APPLIED_LSN, REPLICATE_EPOCH_LAG,
    REPLICATE_STALENESS_SECONDS, REPLICATE_LAG_MS,
    SERVICE_QUEUE_DEPTH, SERVICE_EPOCH,
    SERVICE_OPS_APPLIED, SERVICE_OPS_REJECTED, SERVICE_INGEST_ERRORS,
    SERVICE_BATCH_OPS, SERVICE_INGEST_BATCH_NS, SERVICE_PUBLISH_NS,
    SERVICE_READ_NS,
)


def table_insert_ns(alias: str) -> str:
    """Per-range-table insert latency histogram name."""
    return f"table.{alias}.insert_ns"


def table_delete_ns(alias: str) -> str:
    """Per-range-table delete latency histogram name."""
    return f"table.{alias}.delete_ns"


def manager_fanout(table: str) -> str:
    """Counter of (query, alias) notifications fanned out per update."""
    return f"manager.{table}.fanout"


def manager_insert_ns(table: str) -> str:
    """Manager-level per-base-table insert latency histogram name."""
    return f"manager.{table}.insert_ns"


def manager_delete_ns(table: str) -> str:
    """Manager-level per-base-table delete latency histogram name."""
    return f"manager.{table}.delete_ns"
