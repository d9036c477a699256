"""Differential test of estimation.

An estimate is answered from the heap rows a view carries — resolved
once per entry by the engine's entry store — with the request compiled
into terms that each select the samples the previous one kept, and
GROUP BY bucketing that selection once.  The reference here is the
estimator that used to run: resolve every sampled TID through
``Table.peek`` on every call, then evaluate one closure predicate per
sample (and one full pass per group) into lists of its own — the kept
values in sample order, or their ``(value, scale)`` draws — which it
hands to the survey estimators with the plan-level sample count.  Each
sample's scale is derived here from its heap rows — its weight is the
weight column's value, its inclusion probability ``1 - (1 - p)^w`` —
never read off the entry store's ``weights`` / ``scales`` columns.
That count is the record's ``drawn``, not the number of samples shown:
on the band workload, whose cycle-closing predicate is a residual
filter, the samples that fail it are zeros of the sample (§5.1), where
the estimator before 21.0 divided by the passing samples shown and read
a residual COUNT about ×1.7 high — the one case whose payloads moved,
once, on purpose.  After every
batch of a seeded insert/delete stream the shipped payload must equal
it with ``==`` — value, stderr, CI, the groups and their order, sample
size, epoch — on the leader, on a follower tailing its WAL, on a bare
manager, and across checkpoint + recover.

The second half counts ``Table.peek`` calls: that an estimate makes
none, and a publish reads each range table's heap at most once per
*changed* sample — once per plan node, a combined node's members coming
from its FK hash lookups — is the mechanism, stated as a count that
repeats exactly.
"""

import math
import operator
from collections import Counter

import pytest

from repro import DeleteOp, QueryRegistry, SynopsisService
from repro.aqp import estimate_from_snapshot
from repro.aqp.estimation import (
    Estimate,
    _count,
    _hansen_hurwitz,
    _horvitz_thompson,
    _mean,
    _ratio,
    _sum,
)
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
    spec_of,
    stream,
)

def every_spelling(column):
    """A filtered COUNT per spelling of a comparison, over a column of a
    three-value domain (1..3), so every compiled evaluator meets the
    reference's own ``operator`` closure."""
    return [dict(agg="count", where=[
        {"column": column, "op": op, "value": 2}])
        for op in ("=", "==", "!=", "<>", "<", "<=", ">", ">=")]


#: {COUNT, filtered COUNT, SUM, AVG, filtered GROUP BY SUM, GROUP BY
#: COUNT} per workload, the selection's edge cases (a first term that
#: keeps nothing, a first term on a NULL-able column, groups of one
#: sample), then a filtered COUNT per comparison spelling
NOTHING = {
    FkWorkload: [{"column": "fact.val", "op": ">", "value": 1000},
                 {"column": "other.z", "op": "<", "value": 50}],
    BandWorkload: [{"column": "lane1.pos", "op": "<", "value": 0},
                   {"column": "lane2.ts", "op": ">=", "value": 2}],
}
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
        dict(agg="count", where=NOTHING[FkWorkload]),
        dict(agg="avg", column="fact.val", where=NOTHING[FkWorkload]),
        dict(agg="count", where=[
            {"column": "other.z", "op": "<=", "value": 60},
            {"column": "fact.w", "op": ">", "value": 1}]),
        dict(agg="sum", column="other.z", where=[
            {"column": "other.z", "op": "!=", "value": 35}]),
        dict(agg="count", group_by="fact.val"),
        dict(agg="avg", column="other.z", group_by="fact.val"),
        # unfiltered and ungrouped over a NULL-able and a plain column,
        # and an unfiltered GROUP BY AVG
        dict(agg="sum", column="other.z"),
        dict(agg="avg", column="fact.val"),
        dict(agg="avg", column="fact.val", group_by="dim.band"),
        *every_spelling("fact.w"),
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
        dict(agg="count", where=NOTHING[BandWorkload]),
        dict(agg="avg", column="lane1.pos", where=NOTHING[BandWorkload]),
        dict(agg="count", group_by="lane3.pos"),
        dict(agg="avg", column="lane1.pos", group_by="lane2.pos"),
        dict(agg="avg", column="lane2.pos"),
        dict(agg="sum", column="lane1.pos", group_by="lane3.ts"),
        *every_spelling("lane1.w"),
    ],
}


# ----------------------------------------------------------------------
# the reference: re-resolve every TID, one closure call per sample
# ----------------------------------------------------------------------
_OPS = {"=": operator.eq, "==": operator.eq, "!=": operator.ne,
        "<>": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _accessor(query, db, ref):
    alias, _, attr = ref.partition(".")
    t_idx = query.index_of(alias)
    c_idx = db.table(
        query.range_tables[t_idx].table_name).schema.index_of(attr)
    return lambda rows: rows[t_idx][c_idx]


def _family_sum(family, draws, total, n):
    values = [value for value, _ in draws]
    scales = [scale for _, scale in draws]
    if family == "weighted":
        return _hansen_hurwitz(values, scales, total, n)
    if total == 0:
        return Estimate(0.0, 0.0)
    return _horvitz_thompson(values, scales, n)


def _scaler(query, db, spec):
    """A sample's scale off its heap rows, derived here: the weight
    column's value for Hansen-Hurwitz, ``1 - (1 - p)^w`` for
    Horvitz-Thompson; None on the uniform family."""
    if spec.family == "uniform":
        return None
    weight_of = _accessor(query, db, spec.weight_column)
    if spec.family == "weighted":
        return weight_of
    return lambda rows: 1 - (1 - spec.rate) ** weight_of(rows)


def _aggregate(family, samples, scales, total, n, agg, value_of,
               predicate):
    """``agg`` from lists built here: the hits, then the values of the
    hits (uniform) or their ``(value, scale)`` draws, in sample order,
    out of ``n`` samples — a NULL value left out as if filtered."""
    hits = [predicate(rows) for rows in samples]
    if agg == "count":
        if family == "uniform":
            return _count(hits.count(True), n, total)
        return _family_sum(family, [
            (1.0, scale) for scale, hit in zip(scales, hits) if hit],
            total, n)
    values = [value_of(rows) if hit else None
              for rows, hit in zip(samples, hits)]
    if family == "uniform":
        kept = [value for value in values if value is not None]
        if agg == "avg":
            return _mean(kept)
        return _sum(kept, total, n)
    draws = [(value, scale)
             for value, scale in zip(values, scales) if value is not None]
    total_est = _family_sum(family, draws, total, n)
    if agg == "sum":
        return total_est
    return _ratio(
        total_est,
        _family_sum(family, [(1.0, scale) for _, scale in draws], total, n),
        lambda r: _family_sum(
            family, [(value - r, scale) for value, scale in draws],
            total, n))


def _fields(est, confidence):
    ci = est.ci(confidence)
    return {
        "value": None if math.isnan(est.value) else est.value,
        "stderr": est.stderr if math.isfinite(est.stderr) else None,
        "ci": list(ci) if ci is not None else None,
    }


def reference_estimate(query, db, *, spec, total, results, drawn, epoch,
                       agg, column=None, where=None, group_by=None,
                       confidence=0.95):
    family = spec.family
    value_of = _accessor(query, db, column) if column else None
    key_of = _accessor(query, db, group_by) if group_by else None
    conds = [(_accessor(query, db, c["column"]), _OPS[c["op"]], c["value"])
             for c in where or ()]

    def predicate(rows):
        # SQL: a NULL satisfies no condition
        return all(get(rows) is not None and cmp(get(rows), value)
                   for get, cmp, value in conds)

    tables = [db.table(rt.table_name) for rt in query.range_tables]
    samples = [tuple(table.peek(tid) for table, tid in zip(tables, result))
               for result in results]
    scale_of = _scaler(query, db, spec)
    scales = (None if scale_of is None
              else [scale_of(rows) for rows in samples])
    payload = {"agg": agg, "family": family, "total_results": total,
               "sample_size": drawn, "confidence": confidence}
    if epoch is not None:
        payload["epoch"] = epoch
    if column is not None:
        payload["column"] = column
    if key_of is None:
        payload.update(_fields(_aggregate(
            family, samples, scales, total, drawn, agg, value_of,
            predicate),
            confidence))
        return payload
    def group_of(rows):
        # every NaN is one group, as NULL is
        key = key_of(rows)
        return math.nan if key != key else key

    keys = []
    for rows in samples:
        if (predicate(rows) and group_of(rows) not in keys
                and (agg == "count" or value_of(rows) is not None)):
            keys.append(group_of(rows))
    groups = []
    for key in keys:
        def in_group(rows, _key=key):
            key = group_of(rows)
            return predicate(rows) and (key is _key or key == _key)

        entry = {"key": key}
        entry.update(_fields(_aggregate(
            family, samples, scales, total, drawn, agg, value_of,
            in_group),
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
    maintainer = manager.maintainer(NAME)
    spec = maintainer.requested_spec
    if target is manager:
        entries = maintainer.synopsis_entries()
        state = dict(spec=spec, total=maintainer.total_results(),
                     results=entries.rows, drawn=entries.drawn, epoch=None)
    else:
        record = target.view().queries[NAME]
        assert record.family == spec.family
        state = dict(spec=spec, total=record.total,
                     results=record.results, drawn=record.drawn,
                     epoch=record.epoch)
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
                                           stale.queries[NAME], **request)
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
        record = stale.queries[NAME]
        for got, request in zip(before, REQUESTS[workload]):
            assert got == reference_estimate(
                query, manager.db,
                spec=spec_of(record.family, workload),
                total=record.total, results=record.results,
                drawn=record.drawn, epoch=record.epoch, **request)


# ----------------------------------------------------------------------
# the mechanism, as a count: Table.peek calls
# ----------------------------------------------------------------------
@pytest.fixture
def peeks(monkeypatch):
    """Counts ``Table.peek`` calls per table: ``peeks()`` reads and
    resets (an empty ``Counter``: none)."""
    calls = Counter()
    peek = Table.peek

    def counting(self, tid):
        calls[self.schema.name] += 1
        return peek(self, tid)

    monkeypatch.setattr(Table, "peek", counting)

    def read_and_reset():
        count = Counter(calls)
        calls.clear()
        return count

    return read_and_reset


def one_read_per_node(engine, samples):
    """``samples`` resolutions: each reads every plan node's heap once —
    a combined node's anchor heap, its members coming from the FK hash
    lookups — so at most once per range table."""
    reads = Counter()
    for node in engine.plan.nodes:
        reads[node.table.schema.name] += samples
    return +reads


def estimate_all(registered, workload):
    for request in REQUESTS[workload]:
        registered.estimate(**request)


def written_since(store, before):
    """How many slots of the entry store hold heap rows resolved since
    ``before`` (a copy of its column): every re-derived entry is a new
    tuple."""
    return sum(new is not None and (pos >= len(before)
                                    or new is not before[pos])
               for pos, new in enumerate(store._columns[1]))


@pytest.mark.parametrize("workload", [FkWorkload, BandWorkload])
@pytest.mark.parametrize("family", ["uniform", "weighted", "subset"])
def test_peek_is_called_once_per_changed_entry_and_never_by_an_estimate(
        peeks, workload, family):
    manager = build_manager(workload, "sjoin-opt", family)
    engine = manager.maintainer(NAME).engine
    registered = QueryRegistry(manager).get(NAME)
    estimate_all(registered, workload)
    peeks()
    moved = 0
    for batch in stream(workload, seed=13, batches=40):
        manager.apply_batch(batch)
        assert not peeks()          # maintenance never resolves rows
        changed = engine.synopsis.changed_positions()
        if changed is None:         # a rebuild: every position
            changed = range(len(engine.synopsis.slots()))
        changed = set(changed)
        before = list(engine._entries._columns[1])
        # the first read after the batch resolves the samples the
        # synopsis reports changed, each reading every range table's
        # heap at most once (a combined node's members: none) ...
        estimate_all(registered, workload)
        slots = engine.synopsis.slots()
        resolved = sum(pos < len(slots) and slots[pos] is not None
                       for pos in changed)
        assert peeks() == one_read_per_node(engine, resolved)
        # ... and each is an entry, passing a residual filter or not
        entries = sum(pos < len(slots)
                      and engine._entries._columns[0][pos] is not None
                      for pos in changed)
        assert written_since(engine._entries, before) == entries
        assert entries == resolved
        moved += bool(entries)
        # ... and K more estimates on the now static epoch resolve none
        for _ in range(3):
            estimate_all(registered, workload)
        assert not peeks()
    assert moved >= 10


def test_a_publish_pays_per_changed_entry_and_served_estimates_nothing(
        peeks):
    manager = build_manager(FkWorkload, "sjoin-opt", "uniform")
    engine = manager.maintainer(NAME).engine
    with SynopsisService(manager) as service:
        registered = QueryRegistry(service).get(NAME)
        peeks()
        published = 0
        for batch in stream(FkWorkload, seed=13, batches=40):
            before = list(engine._entries._columns[1])
            # rows are resolved by the publish, on the ingest thread
            # (idle again once the batch is acknowledged); no residual
            # filter here, so every resolved sample is an entry
            service.apply_batch(batch)
            entries = written_since(engine._entries, before)
            assert peeks() == one_read_per_node(engine, entries)
            published += entries
            for _ in range(3):
                estimate_all(registered, FkWorkload)
            assert not peeks()
        assert published >= 10


def test_a_cold_restored_engine_resolves_each_entry_once(peeks):
    manager = build_manager(BandWorkload, "sjoin", "weighted")
    for batch in stream(BandWorkload, seed=3, batches=30):
        manager.apply_batch(batch)
    warm = manager.maintainer(NAME).synopsis_entries()
    restored = restore_manager(
        restore_database(capture_database(manager.db)),
        capture_manager(manager))
    engine = restored.maintainer(NAME).engine
    peeks()
    registered = QueryRegistry(restored).get(NAME)
    estimate_all(registered, BandWorkload)
    # nothing of the resolved rows is in the snapshot: the first read
    # resolves every sample, once
    samples = len(engine.raw_samples())
    assert samples >= len(engine.synopsis_entries()) > 0
    assert peeks() == one_read_per_node(engine, samples)
    assert restored.maintainer(NAME).synopsis_entries().resolved == \
        warm.resolved
    estimate_all(registered, BandWorkload)
    assert not peeks()
