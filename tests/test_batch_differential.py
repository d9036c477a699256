"""Cross-path differential: ``apply_batch`` ≡ serial per-op replay.

The batch-first hot path coalesces consecutive same-target inserts into
one graph registration (weight deltas propagated once per vertex and
direction, skip-sampling decisions drawn over merged delta views).  The
redesign's contract is that this is *exactly* serializable: for any op
sequence and any chunking into micro-batches, the maintained synopsis,
the raw sample multiset, AND the engine's RNG state are bit-identical to
applying the ops one at a time.  These tests enforce that contract for
every synopsis type, both engines, delete-heavy streams, and batches
that straddle a persistence checkpoint.
"""

import random
import shutil
import tempfile

import pytest

from repro import Database
from repro.core.config import MaintainerConfig
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager
from repro.core.stats_api import BatchResult, DeleteOp, InsertOp
from repro.core.synopsis import SynopsisSpec

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"

SPECS = {
    "fixed": SynopsisSpec.fixed_size(8),
    "replacement": SynopsisSpec.with_replacement(8),
    "bernoulli": SynopsisSpec.bernoulli(0.4),
}
ENGINES = ("sjoin-opt", "sjoin")


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    return db


def make_maintainer(spec, engine, seed=11):
    return JoinSynopsisMaintainer(
        make_db(), SQL,
        MaintainerConfig(spec=spec, engine=engine, seed=seed),
    )


def make_stack(spec, engine, seed=11):
    """The same query as the manager stack holds it: ``(manager,
    maintainer)``, one registration."""
    return single_query(
        make_db(), SQL,
        MaintainerConfig(spec=spec, engine=engine, seed=seed))


def build_ops(seed, n, delete_prob):
    """A reproducible op script.  Delete targets are drawn from the TIDs
    the script itself will have inserted (TIDs are deterministic:
    sequential per table), so the same script replays on any path."""
    rng = random.Random(seed)
    ops = []
    live = {"r": [], "s": [], "t": []}
    next_tid = {"r": 0, "s": 0, "t": 0}
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < delete_prob:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            ops.append(DeleteOp(alias, tid))
        else:
            ops.append(InsertOp(
                alias, (rng.randrange(5), rng.randrange(5))))
            live[alias].append(next_tid[alias])
            next_tid[alias] += 1
    return ops


def chunk(ops, size):
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def state_of(maintainer):
    return (
        maintainer.total_results(),
        maintainer.engine.raw_samples(),
        maintainer.synopsis(),
        maintainer.engine.rng.getstate(),
    )


# ----------------------------------------------------------------------
# maintainer level: every synopsis type x both engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("delete_prob,seed", [
    (0.0, 101), (0.3, 202), (0.7, 303),
], ids=["insert-only", "mixed", "delete-heavy"])
def test_apply_batch_bit_identical_to_serial(engine, spec_name,
                                             delete_prob, seed):
    spec = SPECS[spec_name]
    ops = build_ops(seed, 240, delete_prob)

    serial = make_maintainer(spec, engine)
    for op in ops:
        serial.apply_batch([op])

    for size in (4, 16, 64, 240):
        batched = make_maintainer(spec, engine)
        for piece in chunk(ops, size):
            result = batched.apply_batch(piece)
            assert isinstance(result, BatchResult)
            assert len(result.outcomes) == len(piece)
        batched.engine.graph.check_invariants()
        assert state_of(batched) == state_of(serial), \
            f"batch size {size} diverged from serial replay"


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_tids_match_serial(engine):
    """Per-op outcomes (TIDs, rejections) agree between the paths."""
    ops = build_ops(7, 120, 0.25)
    serial = make_maintainer(SPECS["fixed"], engine)
    serial_tids = [serial.apply_batch([op]).tids[0] for op in ops]
    batched = make_maintainer(SPECS["fixed"], engine)
    batched_tids = list(batched.apply_batch(ops).tids)
    assert batched_tids == serial_tids


# ----------------------------------------------------------------------
# manager level: fan-out batching (incl. duplicated aliases)
# ----------------------------------------------------------------------
MANAGER_SQL_PLAIN = "SELECT * FROM r, s WHERE r.c0 = s.c0"
MANAGER_SQL_SELF = (
    "SELECT * FROM r AS r1, r AS r2, s "
    "WHERE r1.c0 = s.c0 AND r2.c1 = s.c1"
)


def build_table_ops(seed, n, delete_prob):
    rng = random.Random(seed)
    ops = []
    live = {"r": [], "s": []}
    next_tid = {"r": 0, "s": 0}
    for _ in range(n):
        table = rng.choice(["r", "s"])
        if live[table] and rng.random() < delete_prob:
            tid = live[table].pop(rng.randrange(len(live[table])))
            ops.append(DeleteOp(table, tid))
        else:
            ops.append(InsertOp(
                table, (rng.randrange(4), rng.randrange(4))))
            live[table].append(next_tid[table])
            next_tid[table] += 1
    return ops


def make_manager(seed=3):
    manager = SynopsisManager(make_db(), MaintainerConfig(seed=seed))
    manager.register("plain", MANAGER_SQL_PLAIN, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(6)))
    # r appears twice: this query's notifications must stay in the
    # serial per-row alias interleaving even inside a batched run
    manager.register("self", MANAGER_SQL_SELF, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(6)))
    return manager


def manager_state(manager):
    return {
        name: (
            manager.total_results(name),
            manager.maintainer(name).engine.raw_samples(),
            manager.synopsis(name),
            manager.maintainer(name).engine.rng.getstate(),
        )
        for name in manager.names()
    }


@pytest.mark.parametrize("delete_prob,seed", [(0.0, 41), (0.4, 42)],
                         ids=["insert-only", "mixed"])
def test_manager_apply_batch_bit_identical(delete_prob, seed):
    ops = build_table_ops(seed, 180, delete_prob)
    serial = make_manager()
    for op in ops:
        serial.apply_batch([op])
    for size in (8, 64, 180):
        batched = make_manager()
        for piece in chunk(ops, size):
            batched.apply_batch(piece)
        assert manager_state(batched) == manager_state(serial), \
            f"manager batch size {size} diverged"


# ----------------------------------------------------------------------
# persistence: batches straddling a checkpoint
# ----------------------------------------------------------------------
def test_checkpoint_straddling_batches_recover_identically():
    """A WAL with whole-batch entries before AND after a checkpoint
    recovers to the same state as the uninterrupted run."""
    from repro.persist.runtime import PersistentManager

    ops = build_ops(13, 200, 0.3)
    pieces = chunk(ops, 16)
    directory = tempfile.mkdtemp(prefix="repro-batch-ckpt-")
    try:
        manager, maintainer = make_stack(SPECS["fixed"], "sjoin-opt")
        pm = PersistentManager(manager, directory)
        for i, piece in enumerate(pieces):
            pm.apply_batch(piece)
            if i == len(pieces) // 2:
                pm.checkpoint()  # WAL tail starts mid-stream
        expected = state_of(maintainer)
        pm.abandon()  # crash simulation: no clean close
        recovered = PersistentManager.recover(directory)
        assert state_of(recovered.maintainer(QUERY)) == expected
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# run-boundary edges, through the service ingest path
# ----------------------------------------------------------------------
def build_seed_inserts(n=36, seed=17):
    """Inserts only: the live-TID pool the edge batches delete from."""
    rng = random.Random(seed)
    ops = []
    next_tid = {"r": 0, "s": 0, "t": 0}
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        ops.append(InsertOp(alias, (rng.randrange(5), rng.randrange(5))))
        next_tid[alias] += 1
    return ops, next_tid


def edge_batches(next_tid):
    """Batches hitting every coalescing run boundary: the batch-native
    hot path merges consecutive same-target insert runs, so a delete in
    first / last / every position exercises run open, run close, and the
    degenerate no-run batch."""
    def tid(alias, k):
        return next_tid[alias] - 1 - k

    return {
        "delete-first": [
            DeleteOp("r", tid("r", 0)),
            InsertOp("r", (1, 1)), InsertOp("r", (2, 2)),
            InsertOp("s", (1, 2)),
        ],
        "delete-last": [
            InsertOp("s", (3, 1)), InsertOp("s", (3, 2)),
            InsertOp("t", (2, 0)),
            DeleteOp("s", tid("s", 0)),
        ],
        "delete-both-ends": [
            DeleteOp("t", tid("t", 0)),
            InsertOp("r", (0, 4)), InsertOp("r", (0, 3)),
            DeleteOp("r", tid("r", 1)),
        ],
        "all-delete": [
            DeleteOp("r", tid("r", 2)),
            DeleteOp("s", tid("s", 1)),
            DeleteOp("t", tid("t", 1)),
        ],
        "single-op-runs": [
            InsertOp("r", (4, 4)), DeleteOp("s", tid("s", 2)),
            InsertOp("s", (4, 0)), DeleteOp("t", tid("t", 2)),
            InsertOp("t", (4, 1)),
        ],
    }


def test_run_boundary_batches_via_service_match_serial():
    """Every edge batch applied through SynopsisService ingest is
    bit-identical to per-op serial replay on a bare maintainer, and
    each batch lands in exactly one published epoch."""
    from repro.service import ServiceConfig, SynopsisService

    seed_ops, next_tid = build_seed_inserts()
    batches = edge_batches(next_tid)

    serial = make_maintainer(SPECS["fixed"], "sjoin-opt")
    for op in seed_ops:
        serial.apply_batch([op])
    for _, batch in sorted(batches.items()):
        for op in batch:
            serial.apply_batch([op])

    manager, target = make_stack(SPECS["fixed"], "sjoin-opt")
    service = SynopsisService(manager, ServiceConfig())
    try:
        service.apply_batch(seed_ops)
        for name, batch in sorted(batches.items()):
            epoch_before = service.epoch
            result = service.apply_batch(batch)
            assert len(result.outcomes) == len(batch), name
            # the whole batch becomes visible as ONE epoch step — a
            # reader can never observe a strict prefix of it
            assert service.epoch == epoch_before + 1, name
        # reads served from the view agree with the engine state
        assert service.synopsis() == [tuple(r) for r in
                                      target.synopsis()]
        assert service.total_results() == target.total_results()
    finally:
        service.close()
    assert state_of(target) == state_of(serial)


@pytest.mark.parametrize("engine", ENGINES)
def test_run_boundary_batches_direct_apply_match_serial(engine):
    """The same edge batches, straight through maintainer.apply_batch
    (no service): both engines, outcome-for-outcome."""
    seed_ops, next_tid = build_seed_inserts()
    batches = edge_batches(next_tid)

    serial = make_maintainer(SPECS["fixed"], engine)
    batched = make_maintainer(SPECS["fixed"], engine)
    for op in seed_ops:
        serial.apply_batch([op])
    batched.apply_batch(seed_ops)
    assert state_of(batched) == state_of(serial)

    for name, batch in sorted(batches.items()):
        serial_tids = [serial.apply_batch([op]).tids[0] for op in batch]
        batched_result = batched.apply_batch(batch)
        assert list(batched_result.tids) == serial_tids, name
        batched.engine.graph.check_invariants()
        assert state_of(batched) == state_of(serial), \
            f"edge batch {name!r} diverged from serial replay"


def test_all_delete_batch_drains_to_empty():
    """An all-delete batch that empties every table leaves a coherent
    zero state (total 0, empty synopsis) on both paths."""
    from repro.service import ServiceConfig, SynopsisService

    inserts = [InsertOp("r", (1, 1)), InsertOp("s", (1, 1)),
               InsertOp("t", (1, 1))]
    deletes = [DeleteOp("r", 0), DeleteOp("s", 0), DeleteOp("t", 0)]

    serial = make_maintainer(SPECS["fixed"], "sjoin-opt")
    for op in inserts + deletes:
        serial.apply_batch([op])

    manager, target = make_stack(SPECS["fixed"], "sjoin-opt")
    service = SynopsisService(manager, ServiceConfig())
    try:
        service.apply_batch(inserts)
        assert service.total_results() == 1
        service.apply_batch(deletes)
        assert service.total_results() == 0
        assert service.synopsis() == []
    finally:
        service.close()
    assert state_of(target) == state_of(serial)
    assert target.total_results() == 0
