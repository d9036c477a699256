"""Differential test of estimation.

An estimate is answered from the heap rows a view carries — resolved
once per entry by the engine's entry store — with the request compiled
into column terms and evaluated a column at a time.  The reference here
is the estimator that used to run: resolve every sampled TID through
``Table.peek`` on every call, then drive the ``repro.analytics``
estimators with one closure predicate per sample (and one full pass per
group).  After every batch of a seeded insert/delete stream the shipped
payload must equal it with ``==`` — value, stderr, CI, the groups and
their order, sample size, epoch — on the leader, on a follower tailing
its WAL, on a bare manager, and across checkpoint + recover.

The second half counts ``Table.peek`` calls: that an estimate makes
none, and a publish makes one per range table per *changed* entry, is
the mechanism, stated as a count that repeats exactly.
"""

import math
import operator

import pytest

from repro import DeleteOp, QueryRegistry, SynopsisService
from repro.analytics import (
    Estimate,
    estimate_avg,
    estimate_count,
    estimate_sum,
    hansen_hurwitz,
    horvitz_thompson,
    ratio_estimate,
)
from repro.aqp import Snapshot, estimate_from_snapshot
from repro.catalog.table import Table
from repro.persist import PersistentManager
from repro.persist.state import (
    capture_database,
    capture_manager,
    restore_database,
    restore_manager,
)
from repro.query.parser import parse_query
from repro.replicate import FollowerService, WalShipper

from test_view_publication import (
    CASES,
    NAME,
    BandWorkload,
    FkWorkload,
    build_manager,
    stream,
)

#: {COUNT, filtered COUNT, SUM, AVG, filtered GROUP BY SUM, GROUP BY
#: COUNT} per workload
REQUESTS = {
    FkWorkload: [
        dict(agg="count"),
        dict(agg="count", where=[
            {"column": "fact.val", "op": "<=", "value": 50}]),
        dict(agg="sum", column="fact.val"),
        dict(agg="avg", column="other.z", where=[
            {"column": "fact.val", "op": ">", "value": 20},
            {"column": "dim.band", "op": "!=", "value": 1}]),
        dict(agg="sum", column="fact.val", group_by="dim.band", where=[
            {"column": "other.z", "op": ">=", "value": 20}]),
        dict(agg="count", group_by="fact.f_dim", confidence=0.8),
    ],
    BandWorkload: [
        dict(agg="count"),
        dict(agg="count", where=[
            {"column": "lane1.pos", "op": "<=", "value": 15}]),
        dict(agg="sum", column="lane2.pos"),
        dict(agg="avg", column="lane3.pos", where=[
            {"column": "lane2.ts", "op": "<", "value": 4}]),
        dict(agg="sum", column="lane3.pos", group_by="lane1.ts", where=[
            {"column": "lane2.pos", "op": ">", "value": 5}]),
        dict(agg="count", group_by="lane2.w", confidence=0.8),
    ],
}


# ----------------------------------------------------------------------
# the reference: re-resolve every TID, one closure call per sample
# ----------------------------------------------------------------------
_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _accessor(query, db, ref):
    alias, _, attr = ref.partition(".")
    t_idx = query.index_of(alias)
    c_idx = db.table(
        query.range_tables[t_idx].table_name).schema.index_of(attr)
    return lambda rows: rows[t_idx][c_idx]


def _family_sum(family, samples, metas, total, value_of):
    if family == "weighted":
        weights = [float(m.get("weight", 1)) for m in metas]
        return hansen_hurwitz(samples, weights, total, value_of)
    if family == "subset":
        if total == 0:
            return Estimate(0.0, 0.0)
        pis = [float(m.get("inclusion_probability", 1.0)) for m in metas]
        return horvitz_thompson(samples, pis, value_of)
    return estimate_sum(samples, total, value_of)


def _aggregate(family, samples, metas, total, agg, value_of, predicate):
    def indicator(rows):
        return 1.0 if predicate(rows) else 0.0

    def masked(rows):
        return float(value_of(rows)) if predicate(rows) else 0.0

    if agg == "count":
        if family == "uniform":
            return estimate_count(samples, total, predicate)
        return _family_sum(family, samples, metas, total, indicator)
    if agg == "sum":
        return _family_sum(family, samples, metas, total, masked)
    if family == "uniform":
        return estimate_avg(samples, value_of, predicate)
    return ratio_estimate(
        _family_sum(family, samples, metas, total, masked),
        _family_sum(family, samples, metas, total, indicator))


def _fields(est, confidence):
    ci = est.ci(confidence)
    return {
        "value": None if math.isnan(est.value) else est.value,
        "stderr": est.stderr if math.isfinite(est.stderr) else None,
        "ci": list(ci) if ci is not None else None,
    }


def reference_estimate(query, db, *, family, total, results, metas, epoch,
                       agg, column=None, where=None, group_by=None,
                       confidence=0.95):
    value_of = _accessor(query, db, column) if column else None
    key_of = _accessor(query, db, group_by) if group_by else None
    conds = [(_accessor(query, db, c["column"]), _OPS[c["op"]], c["value"])
             for c in where or ()]

    def predicate(rows):
        return all(cmp(get(rows), value) for get, cmp, value in conds)

    tables = [db.table(rt.table_name) for rt in query.range_tables]
    samples = [tuple(table.peek(tid) for table, tid in zip(tables, result))
               for result in results]
    metas = list(metas)
    payload = {"agg": agg, "family": family, "total_results": total,
               "sample_size": len(samples), "confidence": confidence}
    if epoch is not None:
        payload["epoch"] = epoch
    if column is not None:
        payload["column"] = column
    if key_of is None:
        payload.update(_fields(_aggregate(
            family, samples, metas, total, agg, value_of, predicate),
            confidence))
        return payload
    keys = []
    for rows in samples:
        if predicate(rows) and key_of(rows) not in keys:
            keys.append(key_of(rows))
    groups = []
    for key in keys:
        def in_group(rows, _key=key):
            return predicate(rows) and key_of(rows) == _key

        entry = {"key": key}
        entry.update(_fields(_aggregate(
            family, samples, metas, total, agg, value_of, in_group),
            confidence))
        groups.append(entry)
    groups.sort(key=lambda g: (-(g["value"] if g["value"] is not None
                                 else float("-inf")), repr(g["key"])))
    payload["group_by"] = group_by
    payload["groups"] = groups
    return payload


# ----------------------------------------------------------------------
def assert_estimates_match(target, manager, workload):
    """Every request shape, shipped vs reference, on ``target`` (a
    service, a follower or a bare manager) whose rows ``manager`` holds.
    Returns the shipped payloads."""
    registered = QueryRegistry(target).get(NAME)
    if target is manager:
        entries = manager.synopsis_entries(NAME)
        state = dict(family=manager.family_of(NAME),
                     total=manager.total_results(NAME),
                     results=entries.rows, metas=entries.metas, epoch=None)
    else:
        view = target.view()
        state = dict(family=view.families[NAME],
                     total=view.total_results[NAME],
                     results=view.synopses[NAME],
                     metas=view.sample_meta[NAME], epoch=view.epoch)
    shipped = []
    for request in REQUESTS[workload]:
        want = reference_estimate(
            registered.query, manager.db, **state, **request)
        want["name"] = NAME
        got = registered.estimate(**request)
        assert got == want, request
        shipped.append(got)
    return shipped


def without_epoch(payloads):
    return [{k: v for k, v in payload.items() if k != "epoch"}
            for payload in payloads]


@pytest.mark.parametrize("workload, engine, family", CASES)
def test_every_estimate_equals_the_per_call_resolution(
        tmp_path, workload, engine, family):
    batches = stream(workload, seed=11, batches=48)
    manager = build_manager(workload, engine, family)
    # the same stream on a bare manager: no view machinery in between
    bare = build_manager(workload, engine, family)
    answered = set()

    def drive(service, served, batches,
              between=lambda number, on_leader: None):
        for number, batch in enumerate(batches):
            # acknowledged => the ingest thread is idle: the reference
            # may read the database it otherwise must not touch
            service.apply_batch(batch)
            bare.apply_batch(batch)
            on_leader = assert_estimates_match(service, served, workload)
            on_bare = assert_estimates_match(bare, bare, workload)
            assert without_epoch(on_leader) == on_bare
            answered.add(repr(on_bare))
            between(number, on_leader)

    if engine == "sj":
        # the SJ baseline cannot be persisted: leader and bare only
        with SynopsisService(manager) as service:
            drive(service, manager, batches)
        assert len(answered) >= 10
        return

    leader_dir, ship_dir = str(tmp_path / "leader"), str(tmp_path / "ship")
    persistent = PersistentManager(manager, leader_dir, sync="never")
    shipper = WalShipper(leader_dir, ship_dir)
    shipper.ship_once()
    follower = FollowerService(ship_dir)
    service = SynopsisService(persistent)

    def checkpoint_and_follow(number, on_leader):
        if number == 20:
            service.checkpoint()
        shipper.ship_once()
        follower.catch_up()
        on_follower = assert_estimates_match(
            follower, follower.target, workload)
        assert without_epoch(on_follower) == without_epoch(on_leader)

    try:
        drive(service, manager, batches[:40], checkpoint_and_follow)
    finally:
        follower.close()
        service.close()
        persistent.abandon()
    # the stream really moved the answers between batches
    assert len(answered) >= 10

    recovered = PersistentManager.recover(leader_dir, sync="never")
    try:
        with SynopsisService(recovered) as service:
            assert without_epoch(assert_estimates_match(
                service, recovered.manager, workload)) == \
                assert_estimates_match(bare, bare, workload)
            drive(service, recovered.manager, batches[40:])
    finally:
        recovered.close()


def view_snapshot(view):
    return Snapshot(epoch=view.epoch, family=view.families[NAME],
                    total=view.total_results[NAME],
                    results=view.synopses[NAME],
                    meta=view.sample_meta[NAME],
                    rows=view.sample_rows[NAME])


@pytest.mark.parametrize("workload", [FkWorkload, BandWorkload])
def test_a_stale_view_answers_the_same_after_its_rows_are_deleted(workload):
    manager = build_manager(workload, "sjoin-opt", "weighted")
    query = parse_query(workload.sql, manager.db)
    with SynopsisService(manager) as service:
        for batch in stream(workload, seed=8, batches=30):
            service.apply_batch(batch)
        stale = service.view()
        assert len(stale.synopses[NAME]) >= 8

        def answers():
            return [estimate_from_snapshot(query, manager.db,
                                           view_snapshot(stale), **request)
                    for request in REQUESTS[workload]]

        before = answers()
        # delete every row the view references (and every other one),
        # FK children before their parents
        for names in (workload.churned, manager.db.table_names()):
            service.apply_batch([
                DeleteOp(name, tid) for name in names
                for tid in list(manager.db.table(name).live_tids())])
        assert service.view().total_results[NAME] == 0
        assert not any(manager.db.table(name).is_live(tid)
                       for result in stale.synopses[NAME]
                       for name, tid in zip(
                           (rt.table_name for rt in query.range_tables),
                           result))
        assert answers() == before
        # and it is still what per-call resolution reads off the
        # tombstoned heap
        for got, request in zip(before, REQUESTS[workload]):
            assert got == reference_estimate(
                query, manager.db, family=stale.families[NAME],
                total=stale.total_results[NAME],
                results=stale.synopses[NAME],
                metas=stale.sample_meta[NAME], epoch=stale.epoch,
                **request)


# ----------------------------------------------------------------------
# the mechanism, as a count: Table.peek calls
# ----------------------------------------------------------------------
@pytest.fixture
def peeks(monkeypatch):
    """Counts ``Table.peek`` calls: ``peeks()`` reads and resets."""
    calls = [0]
    peek = Table.peek

    def counting(self, tid):
        calls[0] += 1
        return peek(self, tid)

    monkeypatch.setattr(Table, "peek", counting)

    def read_and_reset():
        count, calls[0] = calls[0], 0
        return count

    return read_and_reset


def estimate_all(registered, workload):
    for request in REQUESTS[workload]:
        registered.estimate(**request)


def written_since(store, before):
    """How many slots of the entry store hold heap rows resolved since
    ``before`` (a copy of its column): every re-derived entry is a new
    tuple."""
    return sum(new is not None and (pos >= len(before)
                                    or new is not before[pos])
               for pos, new in enumerate(store._resolved))


@pytest.mark.parametrize("workload", [FkWorkload, BandWorkload])
@pytest.mark.parametrize("family", ["uniform", "weighted", "subset"])
def test_peek_is_called_once_per_changed_entry_and_never_by_an_estimate(
        peeks, workload, family):
    manager = build_manager(workload, "sjoin-opt", family)
    engine = manager.maintainer(NAME).engine
    arity = len(engine.query.range_tables)
    registered = QueryRegistry(manager).get(NAME)
    estimate_all(registered, workload)
    peeks()
    moved = 0
    for batch in stream(workload, seed=13, batches=40):
        manager.apply_batch(batch)
        assert peeks() == 0         # maintenance never resolves rows
        changed = engine.synopsis.changed_positions()
        if changed is None:         # a rebuild: every position
            changed = range(len(engine.synopsis.slots()))
        changed = set(changed)
        before = list(engine._entries._resolved)
        # the first read after the batch resolves the entries the
        # synopsis reports changed (those a residual filter lets
        # through), each once per range table ...
        estimate_all(registered, workload)
        slots = engine.synopsis.slots()
        entries = sum(pos < len(slots)
                      and engine._entries._rows[pos] is not None
                      for pos in changed)
        assert peeks() == entries * arity
        assert written_since(engine._entries, before) == entries
        moved += bool(entries)
        # ... and K more estimates on the now static epoch resolve none
        for _ in range(3):
            estimate_all(registered, workload)
        assert peeks() == 0
    assert moved >= 10


def test_a_publish_pays_per_changed_entry_and_served_estimates_nothing(
        peeks):
    manager = build_manager(FkWorkload, "sjoin-opt", "uniform")
    engine = manager.maintainer(NAME).engine
    arity = len(engine.query.range_tables)
    with SynopsisService(manager) as service:
        registered = QueryRegistry(service).get(NAME)
        peeks()
        published = 0
        for batch in stream(FkWorkload, seed=13, batches=40):
            before = list(engine._entries._resolved)
            # rows are resolved by the publish, on the ingest thread
            # (idle again once the batch is acknowledged)
            service.apply_batch(batch)
            entries = written_since(engine._entries, before)
            assert peeks() == entries * arity
            published += entries
            for _ in range(3):
                estimate_all(registered, FkWorkload)
            assert peeks() == 0
        assert published >= 10


def test_a_cold_restored_engine_resolves_each_entry_once(peeks):
    manager = build_manager(BandWorkload, "sjoin", "weighted")
    for batch in stream(BandWorkload, seed=3, batches=30):
        manager.apply_batch(batch)
    warm = manager.synopsis_entries(NAME)
    restored = restore_manager(
        restore_database(capture_database(manager.db)),
        capture_manager(manager))
    engine = restored.maintainer(NAME).engine
    arity = len(engine.query.range_tables)
    peeks()
    registered = QueryRegistry(restored).get(NAME)
    estimate_all(registered, BandWorkload)
    # nothing of the resolved rows is in the snapshot: the first read
    # resolves every entry, once
    assert peeks() == len(engine.synopsis_entries()) * arity > 0
    assert restored.synopsis_entries(NAME).resolved == warm.resolved
    estimate_all(registered, BandWorkload)
    assert peeks() == 0
