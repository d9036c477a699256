"""``BatchResult`` is columns, and reads like the object-per-op record.

Since 6.3 ``apply_batch`` hands back the ops it applied and one TID per
op; ``OpOutcome`` objects exist only for a caller that reads
``.outcomes``.  Checked here, over random mixed batches (inserts,
inserts a pre-filter rejects, deletes; two registrations) through the
maintainer, the manager and a service that coalesces submissions:

* ``outcomes`` equals the list the producers used to build op by op
  (``script`` below builds it beside the ops), ``tids`` keeps
  its convention (``None`` for a delete, ``-1`` for a rejected insert),
  the counters sum to ``len(ops)``, every ``slice(a, b)`` reads like
  ``outcomes[a:b]`` with counters re-derived the way ``from_outcomes``
  derived them, ``outcomes`` read twice is one object, and the caller's
  op list is neither copied nor written;
* the failure protocol: an op that fails mid-batch leaves
  ``exc.ops_applied`` at the number of ops applied in full, and
  recovery of that directory stops at the same record;
* the write path is object-free: no ``OpOutcome`` is constructed by
  ``apply_batch`` at any layer, by ``recover`` or by a follower's
  ``catch_up`` until ``.outcomes`` is read, and then ``len(ops)`` once.
"""

import shutil
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    DeleteOp,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisSpec,
)
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.stats_api import BatchResult, OpOutcome
from repro.errors import ReproError
from repro.persist import PersistentManager
from repro.replicate import FollowerService, WalShipper
from repro.service import ServiceConfig, SynopsisService

from conftest import make_tables

#: ``r.c1 <= 2`` is a pre-filter: the bare maintainer rejects the row
#: (``-1``, nothing stored), the manager stores it and the engine skips it
SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0 AND r.c1 <= 2"
OTHER_SQL = "SELECT * FROM s, t WHERE s.c1 = t.c0"
TABLES = ("r", "s", "t")


def make_db():
    db = Database()
    make_tables(db, [(name, 2) for name in TABLES])
    return db


def make_maintainer():
    return JoinSynopsisMaintainer(make_db(), SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(6), seed=3))


def make_manager():
    manager = SynopsisManager(make_db())
    manager.register("q", SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(6), seed=3))
    manager.register("other", OTHER_SQL, MaintainerConfig(
        spec=SynopsisSpec.bernoulli(0.5), engine="sjoin", seed=4))
    return manager


#: one drawn step: (table, c0, c1, delete?, which live tuple)
STEPS = st.lists(
    st.tuples(st.sampled_from(TABLES), st.integers(0, 3), st.integers(0, 4),
              st.booleans(), st.integers(0, 10 ** 6)),
    min_size=1, max_size=24)


def script(steps, *, stores_rejected):
    """Turn drawn steps into a valid op list and the per-op record the
    parent's producers built: TIDs are sequential per table, a delete
    names a tuple the script inserted and has not deleted.  A row the
    pre-filter rejects takes no TID on the bare maintainer
    (``stores_rejected=False``; it holds ``r`` and ``s`` only) and an
    ordinary one on a manager."""
    if not stores_rejected:
        steps = [step for step in steps if step[0] != "t"]
    ops, expected = [], []
    live = {name: [] for name in TABLES}
    next_tid = dict.fromkeys(TABLES, 0)
    for table, c0, c1, delete, pick in steps:
        if delete and live[table]:
            tid = live[table].pop(pick % len(live[table]))
            ops.append(DeleteOp(table, tid))
            expected.append(OpOutcome("delete", table, tid))
        elif table == "r" and c1 > 2 and not stores_rejected:
            ops.append(InsertOp(table, (c0, c1)))
            expected.append(OpOutcome("insert", table, -1, True))
        else:
            tid = next_tid[table]
            next_tid[table] += 1
            live[table].append(tid)
            ops.append(InsertOp(table, (c0, c1)))
            expected.append(OpOutcome("insert", table, tid))
    return ops, expected


def counters_of(outcomes):
    """The counters as ``from_outcomes`` derived them from objects."""
    inserted = sum(1 for o in outcomes
                   if o.kind == "insert" and not o.rejected)
    deleted = sum(1 for o in outcomes if o.kind == "delete")
    return inserted, deleted, len(outcomes) - inserted - deleted


def tids_of(outcomes):
    return tuple(None if o.kind == "delete" else o.tid for o in outcomes)


def assert_reads_like(result, expected):
    expected = tuple(expected)
    assert isinstance(result, BatchResult)
    assert result.outcomes == expected
    assert result.outcomes is result.outcomes
    assert result.tids == tids_of(expected)
    assert (result.inserted, result.deleted, result.rejected) == \
        counters_of(expected)
    assert result.inserted + result.deleted + result.rejected == \
        len(expected)
    for a in range(len(expected) + 1):
        for b in range(a, len(expected) + 1):
            piece = result.slice(a, b)
            assert piece.outcomes == expected[a:b]
            assert piece.tids == tids_of(expected[a:b])
            assert (piece.inserted, piece.deleted, piece.rejected) == \
                counters_of(expected[a:b])
            assert piece.elapsed_ns == result.elapsed_ns


# ----------------------------------------------------------------------
# the three producers
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_maintainer_result_reads_like_the_per_op_record(steps):
    ops, expected = script(steps, stores_rejected=False)
    handed_over = list(ops)
    result = make_maintainer().apply_batch(ops)
    assert result._ops is ops               # kept, not copied ...
    assert ops == handed_over               # ... and not written
    assert_reads_like(result, expected)
    assert result.rejected == sum(o.rejected for o in expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_manager_result_reads_like_the_per_op_record(steps):
    ops, expected = script(steps, stores_rejected=True)
    handed_over = list(ops)
    result = make_manager().apply_batch(ops)
    assert result._ops is ops
    assert ops == handed_over
    assert_reads_like(result, expected)
    assert result.rejected == 0             # a manager stores every row


def test_an_iterable_of_ops_is_taken_once():
    ops, expected = script(
        [("r", 1, 1, False, 0), ("s", 1, 0, False, 0), ("r", 0, 0, True, 0)],
        stores_rejected=True)
    assert_reads_like(make_manager().apply_batch(iter(ops)), expected)
    assert_reads_like(make_maintainer().apply_batch(tuple(ops)), expected)


@contextmanager
def counting_slices():
    """Every ``BatchResult.slice`` call made inside the block."""
    calls = []
    original = BatchResult.slice

    def counting(self, start, stop, elapsed_ns=None):
        calls.append((start, stop))
        return original(self, start, stop, elapsed_ns)

    BatchResult.slice = counting
    try:
        yield calls
    finally:
        BatchResult.slice = original


class GatedTarget:
    """Hold the ingest thread inside its first ``apply_batch`` so that
    what is submitted meanwhile is coalesced into the second."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.batches = []

    def apply_batch(self, ops):
        self.batches.append(len(ops))
        if len(self.batches) == 1:
            self.entered.set()
            assert self.gate.wait(30)
        return self.inner.apply_batch(ops)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=STEPS, cuts=st.lists(st.integers(0, 24), max_size=4),
       waits=st.lists(st.booleans(), min_size=5, max_size=5))
def test_service_slices_a_coalesced_batch_per_waiting_submission(
        steps, cuts, waits):
    ops, expected = script(
        [("t", 0, 0, False, 0)] + steps, stores_rejected=True)
    bounds = sorted({1, len(ops), *(1 + c % len(ops) for c in cuts)})
    pieces = [(a, b) for a, b in zip(bounds, bounds[1:])]
    target = GatedTarget(make_manager())
    service = SynopsisService(target, ServiceConfig(max_batch_ops=1000))
    results = {}

    def submit(index, a, b):
        results[index] = service.apply_batch(ops[a:b])

    threads = []
    with counting_slices() as slices:
        service.apply_batch(ops[:1], wait=False)       # holds the thread
        assert target.entered.wait(30)
        queued = 0
        for index, (a, b) in enumerate(pieces):
            if waits[index]:
                threads.append(threading.Thread(
                    target=submit, args=(index, a, b)))
                threads[-1].start()
            else:
                service.apply_batch(ops[a:b], wait=False)
            queued += b - a
            while service.service_metrics()["queue_depth"] < queued:
                time.sleep(0.0005)       # submission order is op order
        target.gate.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        service.close()
    assert target.batches == [1, len(ops) - 1]          # one coalesced batch
    waiting = [i for i in range(len(pieces)) if waits[i]]
    assert sorted(results) == waiting
    # a submission nobody waits on gets no result built for it
    assert len(slices) == len(waiting)
    for index in waiting:
        a, b = pieces[index]
        result = results[index]
        assert result.outcomes == tuple(expected[a:b])
        assert result.outcomes is result.outcomes
        assert result.tids == tids_of(expected[a:b])
        assert (result.inserted, result.deleted, result.rejected) == \
            counters_of(expected[a:b])


def test_empty_submission_is_an_empty_result():
    with SynopsisService(make_manager()) as service:
        result = service.apply_batch([])
        assert (result.outcomes, result.tids) == ((), ())
        assert (result.inserted, result.deleted, result.rejected) == \
            (0, 0, 0)
        assert service.apply_batch([], wait=False) is None


# ----------------------------------------------------------------------
# the failure protocol: ops_applied is the TID column's length
# ----------------------------------------------------------------------
def fingerprint(target):
    return [(name, target.total_results(name), target.synopsis(name),
             target.maintainer(name).engine.rng.getstate())
            for name in ("q", "other")]


BAD_OPS = (
    DeleteOp("s", 10 ** 6),             # no such tuple
    InsertOp("r", ("short",)),          # arity
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(before=STEPS, steps=STEPS, at=st.integers(0, 24),
       bad=st.sampled_from(BAD_OPS))
def test_a_failing_op_reports_the_ops_applied_in_full(before, steps, at,
                                                      bad):
    ops, expected = script(before + steps, stores_rejected=True)
    head, ops = ops[:len(before)], ops[len(before):]
    at %= len(ops) + 1
    directory = tempfile.mkdtemp(prefix="repro-batch-result-")
    try:
        durable = PersistentManager(make_manager(), directory, sync="never")
        durable.apply_batch(head)
        with pytest.raises(ReproError) as refused:
            durable.apply_batch(ops[:at] + [bad] + ops[at:])
        assert refused.value.ops_applied == at
        # exactly the ops before the bad one happened
        twin = make_manager()
        assert_reads_like(twin.apply_batch(head + ops[:at]),
                          expected[:len(head) + at])
        live = fingerprint(durable)
        assert live == fingerprint(twin)
        durable.apply_batch(ops[at:])       # and the rest still applies
        live = fingerprint(durable)
        durable.abandon()
        # recovery fails on the same record, at the same op
        recovered = PersistentManager.recover(directory, sync="never")
        try:
            assert recovered.replay_failures == 1
            assert recovered.replayed_ops == len(head) + len(ops) - at
            assert fingerprint(recovered) == live
        finally:
            recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_a_non_op_stops_the_batch_where_it_stands():
    manager = make_manager()
    ops, _ = script([("r", 1, 1, False, 0), ("s", 1, 0, False, 0)],
                    stores_rejected=True)
    with pytest.raises(ReproError) as refused:
        manager.apply_batch(ops + ["not-an-op"] + ops)
    assert refused.value.ops_applied == 2


# ----------------------------------------------------------------------
# the write path builds no object per op
# ----------------------------------------------------------------------
@pytest.fixture
def constructions(monkeypatch):
    """Count every ``OpOutcome`` constructed, whoever names the class."""
    built = []
    original = OpOutcome.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(OpOutcome, "__init__", counting)
    return built


def mixed_batch(stores_rejected):
    steps = [(TABLES[i % 3], i % 4, i % 5, i % 7 == 6, i)
             for i in range(60)]
    return script(steps, stores_rejected=stores_rejected)


def assert_built_on_first_read_only(result, expected, built):
    assert built == []
    assert result.tids == tids_of(expected)
    assert result.inserted + result.deleted + result.rejected == \
        len(expected)
    assert result.slice(1, len(expected) - 1).tids == \
        tids_of(expected[1:-1])
    assert built == []                      # columns answer for free
    assert len(result.outcomes) == len(expected)
    assert len(built) == len(expected)
    assert result.outcomes == tuple(expected)
    assert len(built) == len(expected)      # ... and only once
    del built[:]


def test_no_outcome_is_built_until_outcomes_is_read(tmp_path,
                                                    constructions):
    built = constructions
    ops, expected = mixed_batch(stores_rejected=False)
    del built[:]                            # the script built its own
    assert_built_on_first_read_only(
        make_maintainer().apply_batch(ops), expected, built)

    ops, expected = mixed_batch(stores_rejected=True)
    del built[:]
    assert_built_on_first_read_only(
        make_manager().apply_batch(ops), expected, built)

    durable = PersistentManager(make_manager(), str(tmp_path / "leader"))
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    follower = FollowerService(str(tmp_path / "ship"))
    try:
        half = len(ops) // 2
        assert_built_on_first_read_only(
            durable.apply_batch(ops[:half]), expected[:half], built)
        with SynopsisService(durable) as service:
            second = service.apply_batch(ops[half:])
            assert service.insert("t", (0, 0)) == sum(
                isinstance(op, InsertOp) and op.target == "t" for op in ops)
            assert built == []
            assert_built_on_first_read_only(second, expected[half:], built)
        shipper.ship_once()
        follower.catch_up()
        assert follower.applied_lsn == durable.wal.next_lsn
        assert built == []
        live = fingerprint(durable)
        assert fingerprint(follower.target) == live
        durable.abandon()
        recovered = PersistentManager.recover(str(tmp_path / "leader"))
        try:
            assert recovered.replayed_ops == len(ops) + 1
            assert fingerprint(recovered) == live
            assert built == []
        finally:
            recovered.close()
    finally:
        follower.close()
