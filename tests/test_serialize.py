"""§5.1 serialisation: updates and synopsis requests racing on several
threads must leave the synopsis consistent with the surviving tuples.

The service's single-writer ingest queue is that serialisation; there is
no locked manager beside it, so every scenario here goes through
:class:`SynopsisService`.
"""

import random
import threading

from repro import (
    Column,
    Database,
    JoinExecutor,
    MaintainerConfig,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
    parse_query,
)


SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def one_query(db, size, seed=0):
    """A service over a manager holding the single registration ``"rs"``."""
    manager = SynopsisManager(db)
    manager.register("rs", SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(size), seed=seed))
    return SynopsisService(manager)


def run_threads(threads):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_inserts_and_reads():
    """Four writers inserting and deleting their own rows while a reader
    polls: the final J is the brute-force join size, every sample is a
    join result and the join graph's invariants hold."""
    db = make_db()
    service = one_query(db, 20)
    errors = []

    def writer(worker):
        rng = random.Random(worker)
        try:
            tids = []
            for i in range(120):
                alias = "r" if rng.random() < 0.5 else "s"
                tids.append((alias, service.insert(alias, (rng.randrange(5), i))))
                if rng.random() < 0.2 and tids:
                    service.delete(*tids.pop(rng.randrange(len(tids))))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def reader():
        try:
            for _ in range(200):
                assert len(service.synopsis("rs")) <= 20
                assert service.total_results("rs") >= 0
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    threads.append(threading.Thread(target=reader))
    run_threads(threads)
    service.close()
    assert not errors, errors[:3]
    # final state must be exactly consistent with the surviving tuples
    exact = set(JoinExecutor(db, parse_query(SQL, db)).results())
    assert service.total_results("rs") == len(exact)
    assert set(service.synopsis("rs")) <= exact
    service.target.maintainer("rs").engine.graph.check_invariants()


def test_concurrent_manager():
    """Three threads each interleaving inserts with synopsis requests."""
    db = make_db()
    service = one_query(db, 10, seed=1)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(100):
                name = "r" if rng.random() < 0.5 else "s"
                service.insert(name, (rng.randrange(4), i))
                if rng.random() < 0.3:
                    assert len(service.synopsis("rs")) <= 10
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    run_threads([threading.Thread(target=worker, args=(s,))
                 for s in range(3)])
    service.close()
    assert not errors, errors[:3]
    exact = set(JoinExecutor(db, parse_query(SQL, db)).results())
    assert service.total_results("rs") == len(exact)
    assert len(exact) > 0
