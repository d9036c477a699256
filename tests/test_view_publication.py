"""Differential test of view publication.

The engines keep one reader-visible entry per sample (expanded row,
residual-filter verdict, sampling metadata) and re-derive only the
positions a batch changed; the service and the follower publish those
tuples as they are.  The reference here is the loop that publication
used to run: expand *every* sample from scratch.  After every batch of
a seeded insert/delete stream the published view must equal it bit for
bit — rows, order, ``sample_meta`` and ``total_results`` — on the
leader, on a follower tailing its WAL, and across checkpoint + recover.
"""

import random

import pytest

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.persist import PersistentManager
from repro.persist.state import (
    capture_database,
    capture_manager,
    restore_database,
    restore_manager,
)
from repro.replicate import FollowerService, WalShipper

NAME = "q"
BATCH = 8


# ----------------------------------------------------------------------
# two workloads: a QY-style FK join, and a Linear Road band join whose
# cycle-closing predicate the planner demotes to a residual filter
# ----------------------------------------------------------------------
class FkWorkload:
    sql = ("SELECT * FROM fact, dim, other "
           "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")
    weight_column = "fact.w"
    churned = ("fact", "other")

    @staticmethod
    def make_db():
        db = Database()
        db.create_table(TableSchema(
            "dim", [Column("d_id"), Column("band")],
            primary_key=("d_id",)))
        db.create_table(TableSchema(
            "fact", [Column("f_dim"), Column("val"), Column("w")],
            foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
        db.create_table(TableSchema("other", [Column("band"), Column("z")]))
        return db

    @staticmethod
    def preload():
        # FK parents, never deleted
        return [InsertOp("dim", (d, d % 3)) for d in range(6)]

    @staticmethod
    def row(table, rng):
        if table == "fact":
            return (rng.randrange(6), rng.randrange(100),
                    rng.randrange(1, 4))
        return (rng.randrange(3), rng.randrange(100))


class BandWorkload:
    sql = ("SELECT * FROM lane1, lane2, lane3 "
           "WHERE |lane1.pos - lane2.pos| <= 4 "
           "AND |lane2.pos - lane3.pos| <= 4 AND lane3.ts <= lane1.ts")
    weight_column = "lane2.w"
    churned = ("lane1", "lane2", "lane3")

    @staticmethod
    def make_db():
        db = Database()
        for lane in BandWorkload.churned:
            db.create_table(TableSchema(
                lane, [Column("w"), Column("pos"), Column("ts")]))
        return db

    @staticmethod
    def preload():
        return []

    @staticmethod
    def row(table, rng):
        return (rng.randrange(1, 4), rng.randrange(30), rng.randrange(6))


def stream(workload, seed, batches):
    """Seeded insert/delete batches over the workload's churned tables
    (~40 % deletes once rows exist); predicts TIDs, which are dense."""
    rng = random.Random(seed)
    next_tid = {table: 0 for table in workload.churned}
    live = {table: [] for table in workload.churned}
    out = []
    for _ in range(batches):
        batch = []
        for _ in range(BATCH):
            table = rng.choice(workload.churned)
            if live[table] and rng.random() < 0.4:
                tid = live[table].pop(rng.randrange(len(live[table])))
                batch.append(DeleteOp(table, tid))
            else:
                batch.append(InsertOp(table, workload.row(table, rng)))
                live[table].append(next_tid[table])
                next_tid[table] += 1
        out.append(batch)
    return out


def spec_of(family, workload):
    # one synopsis class per storage layout: a compacting reservoir,
    # fixed slots with holes, and an unbounded Bernoulli-style list
    if family == "uniform":
        return SynopsisSpec.fixed_size(16)
    if family == "weighted":
        return SynopsisSpec.weighted_with_replacement(
            16, workload.weight_column)
    return SynopsisSpec.subset(0.2, workload.weight_column)


CASES = [
    pytest.param(workload, engine, family,
                 id=f"{workload.__name__}-{engine}-{family}")
    for workload in (FkWorkload, BandWorkload)
    for engine in ("sjoin", "sjoin-opt", "sj")
    for family in ("uniform", "weighted", "subset")
    if engine != "sj" or family == "uniform"   # SJ is uniform-only
]


def build_manager(workload, engine, family, seed=5):
    manager = SynopsisManager(workload.make_db(), MaintainerConfig(seed=1))
    manager.register(NAME, workload.sql, MaintainerConfig(
        spec=spec_of(family, workload), engine=engine, seed=seed))
    manager.apply_batch(workload.preload())
    return manager


# ----------------------------------------------------------------------
# the reference: expand every sample from scratch
# ----------------------------------------------------------------------
def reference(maintainer):
    engine = maintainer.engine
    plan = engine.plan
    residuals = list(plan.demoted) + list(engine.query.multi_filters)
    subset = maintainer.family == "subset"
    rows, metas = [], []
    for plan_result in engine.raw_samples():
        row = plan.expand_result(plan_result)
        if not all(
                mflt.matches([plan.original_value(row, alias, attr)
                              for alias, attr in mflt.inputs])
                for mflt in residuals):
            continue
        weight = (engine.result_weight(plan_result)
                  if maintainer.family != "uniform" else 1)
        meta = {"weight": weight}
        if subset:
            meta["inclusion_probability"] = \
                engine.synopsis.inclusion_probability(weight)
        rows.append(row)
        metas.append(meta)
    cap = maintainer.requested_spec.size
    if cap is not None:
        rows, metas = rows[:cap], metas[:cap]
    tables = [maintainer.db.table(rt.table_name)
              for rt in maintainer.query.range_tables]
    heap_rows = tuple(
        tuple(table.get(tid) for table, tid in zip(tables, row))
        for row in rows)
    return (tuple(rows), tuple(metas), heap_rows,
            maintainer.total_results())


def entries_of(manager):
    entries = manager.synopsis_entries(NAME)
    return (entries.rows, tuple(dict(meta) for meta in entries.metas),
            entries.resolved, manager.total_results(NAME))


def published(view):
    return (view.synopses[NAME],
            tuple(dict(meta) for meta in view.sample_meta[NAME]),
            view.sample_rows[NAME],
            view.total_results[NAME])


def assert_view_is_from_scratch(view, manager):
    want = reference(manager.maintainer(NAME))
    assert published(view) == want
    assert view.stats.queries[NAME].synopsis_size == len(want[0])
    assert view.stats.queries[NAME].total_results == want[3]


# ----------------------------------------------------------------------
def assert_every_view_is_from_scratch(service, manager, batches,
                                      between=lambda number, view: None):
    """Drive ``batches``; returns how many of them changed the rows."""
    changed = 0
    assert_view_is_from_scratch(service.view(), manager)
    for number, batch in enumerate(batches):
        before = service.view()
        service.apply_batch(batch)
        # acknowledged => the ingest thread is idle: the test may read
        # the target it otherwise must not touch
        view = service.view()
        assert_view_is_from_scratch(view, manager)
        changed += view.synopses[NAME] != before.synopses[NAME]
        between(number, view)
    return changed


@pytest.mark.parametrize("workload, engine, family", CASES)
def test_every_published_view_equals_a_from_scratch_expansion(
        tmp_path, workload, engine, family):
    batches = stream(workload, seed=11, batches=48)
    manager = build_manager(workload, engine, family)
    if engine == "sj":
        # the SJ baseline cannot be persisted: leader views only
        with SynopsisService(manager) as service:
            changed = assert_every_view_is_from_scratch(
                service, manager, batches)
        assert changed >= 10
        return

    leader_dir, ship_dir = str(tmp_path / "leader"), str(tmp_path / "ship")
    persistent = PersistentManager(manager, leader_dir, sync="never")
    shipper = WalShipper(leader_dir, ship_dir)
    shipper.ship_once()
    follower = FollowerService(ship_dir)
    service = SynopsisService(persistent)

    def checkpoint_and_follow(number, view):
        if number == 20:
            service.checkpoint()
        shipper.ship_once()
        follower.catch_up()
        assert_view_is_from_scratch(follower.view(), follower.target)
        assert published(follower.view()) == published(view)

    try:
        assert_view_is_from_scratch(follower.view(), follower.target)
        changed = assert_every_view_is_from_scratch(
            service, manager, batches[:40], checkpoint_and_follow)
        last = published(service.view())
    finally:
        follower.close()
        service.close()
        persistent.abandon()
    # the stream really moved the synopsis between views
    assert changed >= 10

    recovered = PersistentManager.recover(leader_dir, sync="never")
    try:
        with SynopsisService(recovered) as service:
            assert published(service.view()) == last
            assert_every_view_is_from_scratch(
                service, recovered.manager, batches[40:])
    finally:
        recovered.close()


def test_a_restored_engine_starts_cold_and_still_matches():
    manager = build_manager(BandWorkload, "sjoin", "weighted")
    for batch in stream(BandWorkload, seed=3, batches=30):
        manager.apply_batch(batch)
    warm = manager.synopsis_entries(NAME)
    restored = restore_manager(
        restore_database(capture_database(manager.db)),
        capture_manager(manager))
    engine = restored.maintainer(NAME).engine
    # nothing of the store is in the snapshot: the restored synopsis
    # reports every position as changed and the store holds nothing
    assert engine.synopsis.changed_positions() is None
    assert engine._entries._rows == []
    cold = restored.synopsis_entries(NAME)
    assert list(cold) == list(warm)
    assert entries_of(restored) == reference(restored.maintainer(NAME))


@pytest.mark.parametrize("family", ["uniform", "weighted", "subset"])
def test_entry_store_stays_bounded_under_churn(family):
    """10k churn ops, read every 50: the store holds one entry per
    slot and the synopsis's change set never outgrows its slots — also
    when nobody reads at all (a bare engine that never publishes)."""
    read = build_manager(FkWorkload, "sjoin-opt", family)
    unread = build_manager(FkWorkload, "sjoin-opt", family)
    engine = read.maintainer(NAME).engine
    idle = unread.maintainer(NAME).engine.synopsis
    peak_slots = 0
    for number, batch in enumerate(stream(FkWorkload, 9, 10_000 // BATCH)):
        read.apply_batch(batch)
        unread.apply_batch(batch)
        peak_slots = max(peak_slots, len(idle.slots()))
        assert len(idle.changed_positions() or ()) <= peak_slots
        if number % 50 == 0:
            entries = read.synopsis_entries(NAME)
            store = engine._entries
            assert len(store._rows) == len(store._metas) \
                == len(store._resolved) == len(engine.synopsis.slots())
            assert store._holes == store._rows.count(None)
            assert len(entries) == len(store._rows) - store._holes
            assert engine.synopsis.changed_positions() == set()
    assert list(read.synopsis_entries(NAME)) == \
        list(unread.synopsis_entries(NAME))


def test_an_unchanged_query_shares_its_tuples_with_the_previous_view():
    manager = SynopsisManager(FkWorkload.make_db(), MaintainerConfig(seed=1))
    manager.db.create_table(TableSchema("a", [Column("k")]))
    manager.db.create_table(TableSchema("b", [Column("k")]))
    manager.register("fk", FkWorkload.sql, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(8), seed=2))
    manager.register("ab", "SELECT * FROM a, b WHERE a.k = b.k",
                     MaintainerConfig(spec=SynopsisSpec.fixed_size(8),
                                      seed=3))
    manager.apply_batch(FkWorkload.preload())
    with SynopsisService(manager) as service:
        service.apply_batch(stream(FkWorkload, seed=1, batches=1)[0])
        service.apply_batch([InsertOp("a", (1,)), InsertOp("b", (1,))])
        first = service.view()
        service.apply_batch([InsertOp("a", (1,))])
        second = service.view()
        assert second.synopses["ab"] != first.synopses["ab"]
        assert second.synopses["fk"] is first.synopses["fk"]
        assert second.sample_meta["fk"] is first.sample_meta["fk"]
        assert second.sample_rows["fk"] is first.sample_rows["fk"]
        assert second.sample_rows["ab"] is not first.sample_rows["ab"]
        assert second.epoch == first.epoch + 1


def test_reader_mutation_cannot_leak_into_a_later_view():
    manager = build_manager(FkWorkload, "sjoin-opt", "weighted")
    batches = stream(FkWorkload, seed=4, batches=12)
    with SynopsisService(manager) as service:
        for batch in batches[:10]:
            service.apply_batch(batch)
        view = service.view()
        want = published(view)
        # the payload is the reader's own copy ...
        payload = service.synopsis_payload(NAME)
        assert payload["synopsis"] and payload["meta"]
        for row in payload["synopsis"]:
            row.clear()
        for meta in payload["meta"]:
            meta["weight"] = -1
        payload["synopsis"].clear()
        # ... the library lists are fresh ...
        manager_rows = service.synopsis(NAME)
        manager_rows.clear()
        # ... and what views share is read-only
        with pytest.raises(TypeError):
            view.sample_meta[NAME][0]["weight"] = -1
        with pytest.raises(TypeError):
            view.synopses[NAME][0][0] = -1
        assert published(service.view()) == want
        for batch in batches[10:]:
            service.apply_batch(batch)
            assert_view_is_from_scratch(service.view(), manager)


def test_a_failed_expansion_fails_the_next_read_too(monkeypatch):
    manager = build_manager(FkWorkload, "sjoin-opt", "uniform")
    for batch in stream(FkWorkload, seed=6, batches=10):
        manager.apply_batch(batch)
    maintainer = manager.maintainer(NAME)
    want = reference(maintainer)
    plan = maintainer.engine.plan

    def unreadable(plan_result):
        raise RuntimeError("heap unreadable")

    # the first read after the batches still has changes to expand
    monkeypatch.setattr(plan, "expand_result", unreadable)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="unreadable"):
            manager.synopsis_entries(NAME)
    monkeypatch.undo()
    assert entries_of(manager) == want
