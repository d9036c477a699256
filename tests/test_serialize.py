"""Serialisation wrapper tests (§5.1 locking): multi-threaded updates and
synopsis requests must leave the wrapped manager in a consistent state."""

import inspect
import random
import threading

import pytest

from repro import (
    Column,
    Database,
    JoinExecutor,
    MaintainerConfig,
    SerializedManager,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
    parse_query,
)


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def one_query(db, size, seed=0):
    """A locked manager holding the single registration ``"rs"``."""
    wrapped = SerializedManager(SynopsisManager(db))
    wrapped.register("rs", SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(size), seed=seed))
    return wrapped


def test_concurrent_inserts_and_reads():
    db = make_db()
    wrapped = one_query(db, 20)
    errors = []

    def writer(worker):
        rng = random.Random(worker)
        try:
            tids = []
            for i in range(120):
                alias = "r" if rng.random() < 0.5 else "s"
                tid = wrapped.insert(alias, (rng.randrange(5), i))
                tids.append((alias, tid))
                if rng.random() < 0.2 and tids:
                    a, t = tids.pop(rng.randrange(len(tids)))
                    wrapped.delete(a, t)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader():
        try:
            for _ in range(200):
                samples = wrapped.synopsis("rs")
                assert len(samples) <= 20
                wrapped.total_results("rs")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(4)]
    threads.append(threading.Thread(target=reader))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # final state must be exactly consistent with the surviving tuples
    query = parse_query(SQL, db)
    exact = set(JoinExecutor(db, query).results())
    assert wrapped.total_results("rs") == len(exact)
    assert set(wrapped.synopsis("rs")) <= exact
    wrapped.maintainer("rs").engine.graph.check_invariants()


def test_concurrent_manager():
    db = make_db()
    manager = SerializedManager(SynopsisManager(db, MaintainerConfig(seed=1)))
    manager.register(
        "rs", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(10)))
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(100):
                name = "r" if rng.random() < 0.5 else "s"
                manager.insert(name, (rng.randrange(4), i))
                if rng.random() < 0.3:
                    manager.synopsis("rs")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    query = parse_query(SQL, db)
    exact = set(JoinExecutor(db, query).results())
    assert manager.total_results("rs") == len(exact)


def test_facades_cover_wrapped_public_surface():
    """Anti-drift regression: every public method added to the wrapped
    class must gain a locked passthrough on its facade.  ``stats`` once
    drifted out of sync; this pins the full surface so the next
    addition fails loudly here."""
    def public_methods(cls):
        return {n for n, _ in inspect.getmembers(cls, inspect.isfunction)
                if not n.startswith("_")}

    assert public_methods(SynopsisManager) <= \
        public_methods(SerializedManager)


def test_facade_apply_batch_stats_passthrough():
    """The passthroughs drift once cost us: exercise them against
    the wrapped manager directly."""
    from repro.core.stats_api import DeleteOp, InsertOp

    mgr = one_query(make_db(), 5, seed=1)
    assert mgr.names() == ["rs"]
    assert mgr.db is mgr.manager.db
    tids = mgr.apply_batch(
        [InsertOp("r", (1, 10)), InsertOp("r", (2, 11))]).tids
    assert list(tids) == [0, 1]
    results = mgr.apply_batch([InsertOp("s", (1, 20)),
                               DeleteOp("r", tids[1])])
    assert results.tids == (0, None)
    assert mgr.total_results("rs") == 1
    assert mgr.family_of("rs") == "uniform"
    stats = mgr.stats()
    assert stats == mgr.manager.stats()
    assert stats.queries["rs"].metrics["inserts"] == 3
    assert stats.queries["rs"].metrics["deletes"] == 1


def test_wrapper_passthrough():
    wrapped = one_query(make_db(), 5)
    wrapped.insert("r", (1, 10))
    wrapped.insert("s", (1, 20))
    assert wrapped.total_results("rs") == 1
    assert wrapped.synopsis("rs") == [(0, 0)]
    assert wrapped.synopsis_entries("rs").rows == ((0, 0),)
    (rows,) = wrapped.maintainer("rs").synopsis_rows()
    assert rows == ((1, 10), (1, 20))
