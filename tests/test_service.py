"""The concurrent serving layer: correctness under real thread contention.

The two headline properties:

* **Differential** — N writer threads racing through the service must
  leave *exactly* the synopsis a serial replay of the same (recorded)
  op sequence leaves: the single-writer ingest loop is a
  serialization point, so concurrency must change nothing.
* **Snapshot isolation** — readers polling views while writers submit
  multi-op batches must never observe a half-applied batch.

The differential stress test also exports its read-latency percentiles
— under the test's ``tmp_path`` unless ``$REPRO_BENCH_SERVICE_EXPORT``
names a file (the CI ``service`` job does, and checks it).

Every service here wraps a manager holding the single registration
``"q"``; ``r``/``s`` are base tables and aliases at once, and unnamed
reads resolve to the sole query.
"""

import json
import os
import threading
import time

import pytest

from repro import (
    BatchResult,
    Column,
    Database,
    DeleteOp,
    InsertOp,
    InvalidArgumentError,
    MaintainerConfig,
    MetricsRegistry,
    ReadView,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.obs import names as metric_names

SQL = "SELECT * FROM r, s WHERE r.a = s.a"

EXPORT_ENV = "REPRO_BENCH_SERVICE_EXPORT"
Q = "q"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def make_target(db=None, size=200, seed=42):
    """A manager with the one registration ``Q``."""
    manager = SynopsisManager(db if db is not None else make_db())
    manager.register(
        Q, SQL,
        MaintainerConfig(spec=SynopsisSpec.fixed_size(size), seed=seed))
    return manager


class RecordingTarget:
    """Record the exact op order the ingest thread applies.

    Only the single ingest thread calls :meth:`apply_batch`, so the log
    needs no lock; it *is* the serialization the service imposed.
    """

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def apply_batch(self, ops):
        ops = list(ops)
        self.log.extend(ops)
        return self.inner.apply_batch(ops)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestDifferential:
    WRITERS = 4
    READERS = 4
    OPS_PER_WRITER = 2500  # 4 x 2500 = 10k ops (the acceptance floor)

    def test_concurrent_equals_serial_replay(self, tmp_path):
        recording = RecordingTarget(make_target())
        obs = MetricsRegistry()
        service = SynopsisService(
            recording, ServiceConfig(max_batch_ops=64, obs=obs))
        stop = threading.Event()
        failures = []

        def writer(idx):
            try:
                my_tids = []  # (alias, tid) acknowledged as applied
                n = 0
                while n < self.OPS_PER_WRITER:
                    step = n % 10
                    alias = "r" if (n + idx) % 2 == 0 else "s"
                    key = (idx * 31 + n) % 50
                    if step == 9 and my_tids:
                        alias, tid = my_tids.pop()
                        service.delete(alias, tid)
                        n += 1
                    elif step == 5:
                        # a multi-op batch: must stay atomic for readers
                        take = min(4, self.OPS_PER_WRITER - n)
                        ops = [InsertOp(alias, (key + j, idx)) for j in
                               range(take)]
                        result = service.apply_batch(ops)
                        assert isinstance(result, BatchResult)
                        my_tids.extend(
                            (alias, t) for t in result.tids
                            if t is not None and t >= 0)
                        n += take
                    else:
                        tid = service.insert(alias, (key, idx))
                        if tid >= 0:
                            my_tids.append((alias, tid))
                        n += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        read_counts = [0] * self.READERS

        def reader(idx):
            try:
                last_epoch = -1
                while not stop.is_set():
                    view = service.view()
                    assert isinstance(view, ReadView)
                    assert view.epoch >= last_epoch, "epoch went backwards"
                    last_epoch = view.epoch
                    sample = service.synopsis(limit=16)
                    assert len(sample) <= 16
                    assert service.total_results(None) >= 0
                    read_counts[idx] += 1
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.WRITERS)]
        readers = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=600)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert not failures, failures[:3]
        service.close()

        applied = len(recording.log)
        assert applied >= self.WRITERS * self.OPS_PER_WRITER
        assert all(count > 0 for count in read_counts)

        # serial replay of the recorded order on a fresh manager:
        # deterministic TIDs + seeded RNG => bit-identical synopsis
        replayed = make_target()
        replayed.apply_batch(recording.log)
        assert replayed.total_results(Q) == \
            recording.inner.total_results(Q)
        assert replayed.synopsis(Q) == recording.inner.synopsis(Q)
        assert replayed.maintainer(Q).engine.raw_samples() == \
            recording.inner.maintainer(Q).engine.raw_samples()

        # final view reflects every acknowledged op
        final = service.view()
        assert final.synopses[Q] == tuple(recording.inner.synopsis(Q))

        self._export(
            os.environ.get(EXPORT_ENV)
            or str(tmp_path / "BENCH_service.json"),
            obs, applied, sum(read_counts))

    def _export(self, path, obs, applied_ops, total_reads):
        read_ns = obs.histogram(metric_names.SERVICE_READ_NS).snapshot()
        batch = obs.histogram(metric_names.SERVICE_BATCH_OPS).snapshot()
        payload = {
            "benchmark": "service_concurrent_stress",
            "writers": self.WRITERS,
            "readers": self.READERS,
            "ops_applied": applied_ops,
            "reads": total_reads,
            "read_ns": {k: read_ns.get(k) for k in
                        ("count", "mean", "p50", "p95", "p99")},
            "ingest_batch_ops": {k: batch.get(k) for k in
                                 ("count", "mean", "p50", "p95", "p99")},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


class TestSnapshotIsolation:
    def test_readers_never_see_half_a_batch(self):
        """Each submission pairs one r-row with one s-row on a unique
        key, so in every *consistent* state: inserts is even and the
        join count is exactly inserts/2.  A view built mid-batch would
        break both."""
        service = SynopsisService(
            make_target(size=50),
            ServiceConfig(max_batch_ops=16))
        stop = threading.Event()
        failures = []
        PAIRS = 400

        def writer(idx):
            try:
                for n in range(PAIRS):
                    key = idx * PAIRS + n  # unique join key per pair
                    service.apply_batch([InsertOp("r", (key, idx)),
                                    InsertOp("s", (key, idx))])
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        views_checked = [0]

        def reader():
            try:
                while not stop.is_set():
                    view = service.view()
                    inserts = view.stats.queries[Q].metrics["inserts"]
                    assert inserts % 2 == 0, \
                        f"half-applied batch visible: {inserts} inserts"
                    assert view.total_results[Q] == inserts // 2
                    assert len(view.synopses[Q]) == \
                        min(inserts // 2, 50)
                    views_checked[0] += 1
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=300)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        service.close()
        assert not failures, failures[:3]
        assert views_checked[0] > 0
        assert service.total_results() == 2 * PAIRS


class SlowTarget:
    """Manager wrapper whose apply_batch() stalls — fills the queue."""

    def __init__(self, inner, delay=0.05):
        self.inner = inner
        self.delay = delay

    def apply_batch(self, ops):
        time.sleep(self.delay)
        return self.inner.apply_batch(ops)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestBackpressure:
    def test_reject_policy_raises_when_full(self):
        service = SynopsisService(
            SlowTarget(make_target()),
            ServiceConfig(max_queue_ops=4, max_batch_ops=1,
                          overflow_policy="reject"))
        try:
            with pytest.raises(ServiceOverloadedError):
                for n in range(200):
                    service.apply_batch([InsertOp("r", (n, 0))], wait=False)
        finally:
            service.close()

    def test_block_policy_times_out(self):
        service = SynopsisService(
            SlowTarget(make_target(), delay=0.2),
            ServiceConfig(max_queue_ops=2, max_batch_ops=1,
                          overflow_policy="block", block_timeout=0.05))
        try:
            with pytest.raises(ServiceOverloadedError,
                               match="timed out"):
                for n in range(50):
                    service.apply_batch([InsertOp("r", (n, 0))], wait=False)
        finally:
            service.close()

    def test_block_policy_eventually_admits(self):
        service = SynopsisService(
            SlowTarget(make_target(), delay=0.01),
            ServiceConfig(max_queue_ops=2, max_batch_ops=1,
                          overflow_policy="block"))
        for n in range(10):  # 5x the queue bound; every op must land
            service.apply_batch([InsertOp("r", (n, 0))], wait=False)
        service.close()  # drains
        assert service.service_metrics()["applied_ops"] == 10


class TestLifecycle:
    def test_close_drains_pending_writes(self):
        service = SynopsisService(
            SlowTarget(make_target(), delay=0.01),
            ServiceConfig(max_batch_ops=1))
        for n in range(20):
            service.apply_batch([InsertOp("r", (n, 0))], wait=False)
        service.close(drain=True)
        assert service.service_metrics()["applied_ops"] == 20
        assert service.healthz()["status"] == "closed"

    def test_close_without_drain_discards(self):
        service = SynopsisService(
            SlowTarget(make_target(), delay=0.05),
            ServiceConfig(max_batch_ops=1))
        for n in range(20):
            service.apply_batch([InsertOp("r", (n, 0))], wait=False)
        service.close(drain=False)
        assert service.service_metrics()["applied_ops"] < 20

    def test_writes_after_close_rejected(self):
        service = SynopsisService(make_target())
        service.close()
        with pytest.raises(ServiceClosedError):
            service.insert("r", (1, 1))
        with pytest.raises(ServiceClosedError):
            service.apply_batch([DeleteOp("r", 0)])

    def test_reads_survive_close(self):
        service = SynopsisService(make_target())
        service.insert("r", (1, 1))
        service.insert("s", (1, 2))
        service.close()
        assert service.total_results() == 1
        assert service.synopsis() == [(0, 0)]

    def test_context_manager(self):
        with SynopsisService(make_target()) as service:
            service.insert("r", (1, 1))
        assert service.closed

    def test_ingest_error_propagates_and_service_survives(self):
        with SynopsisService(make_target()) as service:
            with pytest.raises(Exception):
                service.delete("r", 12345)  # no such tuple
            assert service.insert("r", (1, 1)) == 0
            assert service.service_metrics()["ingest_errors"] == 1


class TestManagerMode:
    def test_named_reads_and_register(self):
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=3))
        manager.register(
            "q", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
        with SynopsisService(manager) as service:
            service.insert("r", (1, 1))
            service.insert("s", (1, 2))
            assert service.total_results("q") == 1
            assert service.synopsis("q") == [(0, 0)]
            # registering through the service is serialized with ingest
            service.register(
                "q2", SQL,
                MaintainerConfig(spec=SynopsisSpec.fixed_size(5)))
            service.insert("r", (2, 2))
            assert "q2" in service.view().synopses

    def test_unknown_name_is_typed_error(self):
        with SynopsisService(SynopsisManager(make_db())) as service:
            with pytest.raises(ServiceError, match="no query 'nope'"):
                service.synopsis("nope")

    def test_unnamed_read_answers_the_sole_query(self):
        with SynopsisService(make_target()) as service:
            service.insert("r", (1, 1))
            service.insert("s", (1, 2))
            assert service.synopsis() == service.synopsis(Q) == [(0, 0)]
            assert service.total_results() == 1
            assert service.synopsis_payload()["name"] == Q
            assert service.view().sole_name() == Q

    def test_unnamed_read_with_two_queries_lists_both(self):
        with SynopsisService(make_target()) as service:
            service.register("q2", SQL)
            for read in (service.synopsis, service.total_results,
                         service.synopsis_payload):
                with pytest.raises(ServiceError,
                                   match=r"known: \['q', 'q2'\]"):
                    read()
            assert service.view().sole_name() is None
            assert service.synopsis("q2") == []

    def test_unnamed_read_with_no_query_is_typed_error(self):
        with SynopsisService(SynopsisManager(make_db())) as service:
            with pytest.raises(ServiceError, match=r"known: \[\]"):
                service.synopsis()

    def test_view_keys_are_registration_names(self):
        with SynopsisService(make_target()) as service:
            view = service.view()
            for mapping in (view.synopses, view.total_results,
                            view.families, view.sample_meta):
                assert list(mapping) == [Q]


class TestCheckpointWhileServing:
    def test_checkpoint_between_batches_and_recover(self, tmp_path):
        from repro.persist import PersistentManager

        directory = str(tmp_path / "state")
        pm = PersistentManager(make_target(size=20, seed=9), directory)
        with SynopsisService(pm) as service:
            stop = threading.Event()
            failures = []

            def writer():
                try:
                    for n in range(200):
                        service.apply_batch([InsertOp("r", (n % 20, n)),
                                        InsertOp("s", (n % 20, n))])
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            thread = threading.Thread(target=writer)
            thread.start()
            paths = [service.checkpoint() for _ in range(3)]
            thread.join(timeout=300)
            stop.set()
            assert not failures, failures[:1]
            assert all(paths)
            final_total = service.total_results()
            final_synopsis = service.synopsis()
        pm.close()

        recovered = PersistentManager.recover(directory)
        try:
            assert recovered.total_results(Q) == final_total
            assert recovered.synopsis(Q) == final_synopsis
        finally:
            recovered.close()

    def test_checkpoint_on_plain_maintainer_is_typed_error(self):
        with SynopsisService(make_target()) as service:
            with pytest.raises(ServiceError, match="no checkpoint"):
                service.checkpoint()


class TestReadYourWrites:
    def test_ack_implies_visible(self):
        with SynopsisService(make_target()) as service:
            for n in range(50):
                service.apply_batch([InsertOp("r", (n, 0)),
                                InsertOp("s", (n, 0))])
                # the covering view must already be published
                assert service.total_results() == n + 1

    def test_empty_submit_is_noop(self):
        with SynopsisService(make_target()) as service:
            result = service.apply_batch([])
            assert isinstance(result, BatchResult)
            assert result.tids == ()
            assert service.apply_batch([], wait=False) is None


class BrokenReadTarget:
    """Manager wrapper whose reads fail on demand — the view builder
    blows up after an otherwise-successful apply_batch()."""

    def __init__(self, inner):
        self.inner = inner
        self.broken = False

    def synopsis_entries(self, name, limit=None):
        if self.broken:
            raise RuntimeError("target unreadable")
        return self.inner.synopsis_entries(name, limit)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestReviewRegressions:
    def test_control_submissions_do_not_leak_queue_accounting(self):
        # every register() used to leave one phantom op in _queued_ops;
        # with a small bound the phantom ops eventually rejected real
        # writes against an empty queue
        manager = SynopsisManager(make_db(), MaintainerConfig(seed=1))
        config = ServiceConfig(max_queue_ops=4, overflow_policy="reject")
        with SynopsisService(manager, config) as service:
            for n in range(8):
                service.register(
                    f"q{n}", SQL,
                    MaintainerConfig(spec=SynopsisSpec.fixed_size(5)))
            assert service.queue_depth == 0
            assert service.healthz()["epoch_lag_ops"] == 0
            # a batch as large as the bound must still be admitted
            service.apply_batch([InsertOp("r", (n, n)) for n in range(4)])
            assert service.queue_depth == 0

    def test_negative_limit_is_typed_error(self):
        with SynopsisService(make_target()) as service:
            service.insert("r", (1, 1))
            service.insert("s", (1, 2))
            with pytest.raises(InvalidArgumentError, match="limit"):
                service.synopsis(limit=-1)
            with pytest.raises(InvalidArgumentError, match="limit"):
                service.synopsis_payload(limit=-1)
            assert service.synopsis(limit=0) == []

    def test_fatal_publish_error_fails_fast_not_silent(self):
        target = BrokenReadTarget(make_target())
        service = SynopsisService(target)
        service.insert("r", (1, 1))
        target.broken = True
        # apply_batch() succeeds but the post-batch view build raises: the
        # submitter must get the error instead of hanging forever
        with pytest.raises(RuntimeError, match="unreadable"):
            service.insert("s", (1, 2))
        assert service.healthz()["status"] == "failed"
        assert "last_error" in service.healthz()
        # later writes are rejected with a typed error, not enqueued
        with pytest.raises(ServiceError, match="ingest loop died"):
            service.insert("r", (2, 2))
        # reads keep answering from the last good view
        assert service.total_results() == 0
        service.close()

    def test_close_drain_timeout_unblocks_queued_waiters(self):
        service = SynopsisService(
            SlowTarget(make_target(), delay=1.0),
            ServiceConfig(max_batch_ops=1, drain_timeout=0.05))
        # occupy the ingest thread with one slow batch
        service.apply_batch([InsertOp("r", (0, 0))], wait=False)
        outcomes = []

        def waiter():
            try:
                service.apply_batch([InsertOp("r", (1, 0))])
                outcomes.append("applied")
            except ServiceClosedError:
                outcomes.append("failed")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.2)  # let the waiter enqueue behind the slow batch
        service.close(drain=True)
        thread.join(timeout=10)
        assert not thread.is_alive(), "queued waiter hung after close()"
        assert outcomes == ["failed"]
        # the service must not claim a clean close while the ingest
        # thread is still applying
        if service._thread.is_alive():
            assert service.healthz()["status"] == "draining"
        service._thread.join(timeout=10)
        assert service.healthz()["status"] == "closed"
