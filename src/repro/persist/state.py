"""Logical snapshot capture and restore for maintainers and managers.

A snapshot is a plain-value description of everything a
restarted process needs to continue *exactly* where the crashed one
stopped:

* the database — every table's schema and full heap (tombstones
  included, so restored TIDs equal the originals);
* per maintainer — the original SQL text, requested and *effective*
  synopsis specs (the effective spec is pinned so a restore never
  re-estimates filter selectivity from restore-time data), the join
  graph's vertices in creation order, the synopsis reservoir plus its
  skip-counter state, the FK combined-node runtimes, the engine's work
  counters, and the ``random.Random`` state — so the restored process
  draws the *same* future sample stream;
* per manager — its registration set and its seed-deriving RNG state,
  so replayed ``register`` calls draw identical per-query seeds.

Restores are verified against a ``verify`` block recorded at capture
time (total results, raw sample count, engine counters); any mismatch
raises :class:`~repro.errors.RecoveryError` rather than silently
continuing from a diverged state.

The SJ baseline engine is *not* persistable: its plain per-table indexes
enumerate duplicate join keys in an order a rebuild cannot reproduce, so
a restored SJ engine would silently draw a different sample stream.
Capturing one raises :class:`~repro.errors.PersistError`.

A recovery or a follower bootstrap decodes and rebuilds the whole state
in one go; :func:`bulk_load` keeps the cyclic collector out of that
phase, and this module is the one place that switches it.
"""

from __future__ import annotations

import dataclasses
import gc
import threading

from repro.catalog.database import Database
from repro.catalog.schema import Column, DataType, ForeignKey, TableSchema
from repro.core.config import MaintainerConfig
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager
from repro.core.sjoin import EngineStats, SJoinEngine
from repro.core.synopsis import SYNOPSIS_FAMILIES, SynopsisSpec
from repro.errors import PersistError, RecoveryError

#: the one on-disk format this release reads and writes; bumped whenever
#: the state or WAL layout changes incompatibly (5: plain-value records)
STATE_VERSION = 5
#: the ``kind`` every snapshot payload carries
STATE_KIND = "manager"


class _BulkLoad:
    """The process's one collector switch; :func:`bulk_load` hands it out."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> "_BulkLoad":
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # allocates no tracked object once the collector is back on: the
        # collection the load owes runs at the caller's next allocation
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                if self._was_enabled:
                    gc.enable()
                else:
                    gc.disable()
        return False


_BULK_LOAD = _BulkLoad()


def bulk_load() -> _BulkLoad:
    """A context manager that runs a one-shot bulk load with the cyclic
    collector paused.

    A snapshot decode, its restore and a WAL replay allocate a
    container per row, vertex, entry and sample, and all of them stay
    reachable, so every collection the allocation count triggers walks
    them and frees nothing.  The first entrant records
    :func:`gc.isenabled` and disables the collector; the last one out,
    on any thread and however it leaves, restores exactly what the first
    one found.  Nothing is collected, frozen or re-tuned: reference
    counting still frees what the load drops, and the first collection
    after the load walks what it allocated once, as its youngest
    generation.
    """
    return _BULK_LOAD


# ----------------------------------------------------------------------
# specs and schemas
# ----------------------------------------------------------------------
def spec_to_dict(spec: SynopsisSpec) -> dict:
    return {"kind": spec.kind, "size": spec.size, "rate": spec.rate,
            "weight_column": spec.weight_column}


def _check_spec_kind(state: dict, error=PersistError,
                     where: str = "a durable spec") -> None:
    """Refuse a spec whose kind is not in the closed
    :data:`~repro.core.synopsis.SYNOPSIS_FAMILIES` table (such as the
    weighted without-replacement kind 19.x maintained) with ``error``,
    listing the kinds this release reads."""
    kind = state["kind"]
    if not isinstance(kind, str) or kind not in SYNOPSIS_FAMILIES:
        raise error(
            f"{where} names synopsis kind {kind!r}; this release "
            f"maintains only {', '.join(SYNOPSIS_FAMILIES)} (state "
            "naming another kind is not readable — rebuild it from the "
            "source data)")


def spec_from_dict(state: dict) -> SynopsisSpec:
    _check_spec_kind(state)
    return SynopsisSpec(kind=state["kind"], size=state["size"],
                        rate=state["rate"],
                        weight_column=state["weight_column"])


def schema_to_dict(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [(c.name, c.dtype.value, c.nullable)
                    for c in schema.columns],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            (list(fk.columns), fk.ref_table, list(fk.ref_columns))
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(state: dict) -> TableSchema:
    return TableSchema(
        name=state["name"],
        columns=[Column(name, DataType(dtype), nullable)
                 for name, dtype, nullable in state["columns"]],
        primary_key=tuple(state["primary_key"]),
        foreign_keys=tuple(
            ForeignKey(tuple(cols), ref_table, tuple(ref_cols))
            for cols, ref_table, ref_cols in state["foreign_keys"]
        ),
    )


# ----------------------------------------------------------------------
# database
# ----------------------------------------------------------------------
def capture_database(db: Database) -> dict:
    """Every table's schema and full heap, in catalog order."""
    return {
        "version": STATE_VERSION,
        "tables": [
            {
                "schema": schema_to_dict(db.table(name).schema),
                "heap": db.table(name).state_dict(),
            }
            for name in db.table_names()
        ],
    }


def restore_database(state: dict) -> Database:
    """Rebuild a :class:`Database` from :func:`capture_database` state."""
    _check_version(state)
    db = Database()
    for entry in state["tables"]:
        table = db.create_table(schema_from_dict(entry["schema"]))
        table.load_state(entry["heap"])
    return db


def _check_version(state: dict) -> None:
    version = state.get("version")
    if version != STATE_VERSION:
        raise PersistError(
            f"snapshot state version {version!r} is not supported "
            f"(expected {STATE_VERSION})"
        )


def check_snapshot_format(payload: dict, where: str,
                          error=PersistError) -> None:
    """The format gate of recovery and follower bootstrap: a snapshot
    payload is read only when it is a version-:data:`STATE_VERSION`
    ``"manager"`` state whose registrations' requested and effective
    specs all name a kind this release maintains.  Anything else — a
    9.0–13.x directory (version 4), 4.0–8.x (3), 3.0 (2), 2.x (1), a
    single-maintainer snapshot, a 19.x directory holding a weighted
    without-replacement registration — raises ``error`` naming what was
    found and what is expected, before any of it is decoded.
    """
    database = payload.get("database")
    version = database.get("version") if isinstance(database, dict) \
        else None
    kind = payload.get("kind")
    if version != STATE_VERSION or kind != STATE_KIND:
        raise error(
            f"{where} holds a version {version!r} {kind!r} state; this "
            f"release reads only version {STATE_VERSION} {STATE_KIND!r} "
            "states (state written by an earlier release is not "
            "readable — rebuild it from the source data)"
        )
    for entry in payload["manager"]["queries"]:
        for field in ("requested_spec", "effective_spec"):
            _check_spec_kind(entry["maintainer"][field], error,
                             f"{where} (query {entry['name']!r}, {field})")


def covered_lsn(payload: dict, header: dict, where: str,
                error=RecoveryError) -> int:
    """The first WAL LSN a format-checked snapshot does not cover.

    The header's ``wal_lsn`` is outside the payload's CRC and the
    payload's copy is inside it: a header that disagrees with its
    payload would start the replay at the wrong record, so it raises
    ``error`` naming ``where``.
    """
    lsn = header["wal_lsn"]
    if payload.get("wal_lsn") != lsn:
        raise error(
            f"{where} header says it covers the log up to LSN {lsn!r} "
            f"and its CRC-checked payload says {payload.get('wal_lsn')!r}")
    return lsn


# ----------------------------------------------------------------------
# maintainer
# ----------------------------------------------------------------------
def capture_maintainer(maintainer: JoinSynopsisMaintainer) -> dict:
    """Maintainer-local state (the shared database is captured once,
    separately, by :func:`capture_database`)."""
    engine = maintainer.engine
    if not isinstance(engine, SJoinEngine):
        raise PersistError(
            f"algorithm {maintainer.algorithm!r} does not support "
            "persistence: the SJ baseline's plain indexes enumerate "
            "duplicate keys in an order a restore cannot reproduce"
        )
    stats = dataclasses.asdict(engine.stats)
    return {
        "version": STATE_VERSION,
        "sql": maintainer.sql,
        "name": maintainer.name,
        "algorithm": maintainer.algorithm,
        "requested_spec": spec_to_dict(maintainer.requested_spec),
        "effective_spec": spec_to_dict(engine.spec),
        "rng_state": engine.rng.getstate(),
        "graph": engine.graph.state_dict(),
        "synopsis": engine.synopsis.state_dict(),
        "engine_stats": stats,
        "combined": [(idx, runtime.state_dict())
                     for idx, runtime in engine._combined.items()],
        "verify": {
            "total_results": engine.total_results(),
            "raw_sample_count": len(engine.raw_samples()),
            "engine_stats": dict(stats),
        },
    }


def restore_maintainer(db: Database, state: dict,
                       obs=None) -> JoinSynopsisMaintainer:
    """Rebuild a maintainer over an already-restored database.

    The constructor builds an *empty* engine (no backfill); the graph is
    then loaded one plan node at a time, each as a single batch of its
    vertices in original creation order — the aggregate trees break ties
    between equal keys by insertion order, so the rebuilt indexes rank
    join results identically and the restored RNG state yields a
    bit-identical future sample stream.
    """
    _check_version(state)
    maintainer = JoinSynopsisMaintainer(
        db,
        state["sql"],
        MaintainerConfig(
            spec=spec_from_dict(state["requested_spec"]),
            engine=state["algorithm"],
            seed=0,  # placeholder; the real RNG state is restored below
            obs=obs,
            name=state["name"],
            effective_spec=spec_from_dict(state["effective_spec"]),
        ),
    )
    engine = maintainer.engine
    # member hashes first: the graph replay rebuilds keys through them
    for idx, runtime_state in state["combined"]:
        engine._combined[idx].load_state(runtime_state, db)
    engine.graph.load_state(state["graph"], engine.key_of, engine.row_of)
    engine.synopsis.load_state(state["synopsis"])
    engine.stats = EngineStats(**state["engine_stats"])
    engine.rng.setstate(state["rng_state"])
    verify_maintainer(maintainer, state["verify"])
    return maintainer


def verify_maintainer(maintainer: JoinSynopsisMaintainer,
                      verify: dict) -> None:
    """Compare a restored maintainer against its capture-time record."""
    engine = maintainer.engine
    actual = {
        "total_results": engine.total_results(),
        "raw_sample_count": len(engine.raw_samples()),
        "engine_stats": dataclasses.asdict(engine.stats),
    }
    for key, expected in verify.items():
        if actual.get(key) != expected:
            raise RecoveryError(
                f"restored maintainer {maintainer.name!r} failed "
                f"verification on {key}: snapshot recorded "
                f"{expected!r}, restored state has {actual.get(key)!r}"
            )


# ----------------------------------------------------------------------
# manager
# ----------------------------------------------------------------------
def capture_manager(manager: SynopsisManager) -> dict:
    """Manager-local state: registrations plus the seed-deriving RNG."""
    return {
        "version": STATE_VERSION,
        "seed_rng_state": manager._seed_rng.getstate(),
        "queries": [
            {"name": name,
             "maintainer": capture_maintainer(reg.maintainer)}
            for name, reg in manager._registrations.items()
        ],
    }


def restore_manager(db: Database, state: dict,
                    obs=None) -> SynopsisManager:
    """Rebuild a manager (and its registrations) over a restored DB."""
    _check_version(state)
    manager = SynopsisManager(db, MaintainerConfig(obs=obs))
    manager._seed_rng.setstate(state["seed_rng_state"])
    for entry in state["queries"]:
        # a child registry per query, as ``register`` hands out: a
        # restored engine reports like a fresh one
        restored = restore_maintainer(db, entry["maintainer"],
                                      obs=manager.obs.child())
        manager._register_restored(entry["name"], restored)
    return manager
