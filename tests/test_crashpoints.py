"""Crash-point matrix: kill the writer at every fsync boundary, recover.

The harness first runs the workload once with a counting injector to
learn how many durability boundaries it crosses, then replays it once
per ``(boundary, mode)`` pair with an armed injector.  After each
injected crash the directory is recovered and the result is compared —
*strongly*, including the ordered raw sample list, the engine counters
and the RNG state — against a never-crashed twin driven over the same op
prefix.

The atomicity contract: the recovered state must equal the twin after
exactly ``k`` ops (all acknowledged ones) or ``k + 1`` (one logged op
whose acknowledgement the crash swallowed — legitimate, never torn).
"""

import dataclasses
import random

import pytest

from repro import MaintainerConfig
from repro import Database
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager
from repro.core.stats_api import DeleteOp, InsertOp
from repro.core.synopsis import SynopsisSpec
from repro.errors import PersistError
from repro.persist import (
    CrashPoint,
    CrashPointInjector,
    PersistentManager,
)

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"
N_OPS = 18
SEED = 7


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    return db


def op_stream(n=N_OPS):
    """A deterministic insert/delete stream with precomputed TIDs.

    TIDs are deterministic (heap slots are assigned in arrival order and
    the query has no pre-filters), so the same list works on every run.
    """
    rng = random.Random(123)
    counts = {"r": 0, "s": 0, "t": 0}
    live = {"r": [], "s": [], "t": []}
    ops = []
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < 0.35:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            ops.append(DeleteOp(alias, tid))
        else:
            row = (rng.randrange(4), rng.randrange(4))
            ops.append(InsertOp(alias, row))
            live[alias].append(counts[alias])
            counts[alias] += 1
    return ops


def fingerprint(maintainer):
    engine = maintainer.engine
    return (
        engine.total_results(),
        tuple(engine.raw_samples()),
        dataclasses.asdict(engine.stats),
        engine.rng.getstate(),
    )


def twin_fingerprints(ops):
    """Fingerprint of a never-crashed maintainer after each op count."""
    maintainer = JoinSynopsisMaintainer(
        make_db(), SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(6), seed=SEED))
    fps = [fingerprint(maintainer)]
    for op in ops:
        maintainer.apply_batch([op])
        fps.append(fingerprint(maintainer))
    return fps


def run_workload(directory, hook, acked):
    """The crashed process: one op per synced WAL append, with an
    initial, a midway and a final checkpoint."""
    manager, _ = single_query(
        make_db(), SQL,
        MaintainerConfig(spec=SynopsisSpec.fixed_size(6), seed=SEED))
    pm = PersistentManager(manager, directory, sync="batch",
                           sync_hook=hook)
    ops = op_stream()
    for i, op in enumerate(ops):
        pm.apply_batch([op])
        acked.append(op)
        if i == len(ops) // 2:
            pm.checkpoint()
    pm.checkpoint()
    pm.close()


def count_boundaries(tmp_path):
    probe = CrashPointInjector()
    run_workload(str(tmp_path / "probe"), probe, [])
    return probe.boundaries


@pytest.mark.parametrize("mode", ["after", "before", "torn"])
def test_crash_matrix_every_fsync_boundary(tmp_path, mode):
    ops = op_stream()
    twins = twin_fingerprints(ops)
    boundaries = count_boundaries(tmp_path)
    # one sync per op plus the snapshot syncs: a single-record append
    # syncs once whatever the policy
    assert boundaries == 24 > N_OPS
    for crash_at in range(boundaries):
        directory = str(tmp_path / f"{mode}-{crash_at}")
        injector = CrashPointInjector(crash_at=crash_at, mode=mode)
        acked = []
        try:
            run_workload(directory, injector, acked)
        except CrashPoint:
            assert injector.fired
        else:
            pytest.fail(f"boundary {crash_at} never crashed "
                        f"({boundaries} counted)")
        try:
            recovered = PersistentManager.recover(directory)
        except PersistError:
            # only legitimate when the crash hit the *initial*
            # checkpoint: nothing was acknowledged yet
            assert acked == [], (
                f"mode={mode} crash_at={crash_at}: recovery failed "
                f"after {len(acked)} acknowledged ops"
            )
            continue
        fp = fingerprint(recovered.maintainer(QUERY))
        k = len(acked)
        candidates = [twins[k]]
        if k + 1 < len(twins):
            candidates.append(twins[k + 1])  # logged but unacknowledged
        assert fp in candidates, (
            f"mode={mode} crash_at={crash_at}: recovered state matches "
            f"neither {k} nor {k + 1} acknowledged ops"
        )
        recovered.close()


def test_crashed_recovery_continues_bit_identically(tmp_path):
    """After recovering from a crash, the survivor and a never-crashed
    twin fed the same further ops stay bit-identical."""
    ops = op_stream()
    crash_at = N_OPS // 2  # mid-stream op sync
    injector = CrashPointInjector(crash_at=crash_at, mode="torn")
    acked = []
    with pytest.raises(CrashPoint):
        run_workload(str(tmp_path / "crash"), injector, acked)
    recovered = PersistentManager.recover(str(tmp_path / "crash"))
    survivor = recovered.maintainer(QUERY)
    twin = JoinSynopsisMaintainer(
        make_db(), SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(6), seed=SEED))
    k = survivor.engine.stats.inserts + survivor.engine.stats.deletes
    twin.apply_batch(ops[:k])
    assert fingerprint(survivor) == fingerprint(twin)
    rng = random.Random(99)  # shared post-recovery insert stream
    for _ in range(30):
        alias = rng.choice(["r", "s", "t"])
        row = (rng.randrange(4), rng.randrange(4))
        recovered.insert(alias, row)
        twin.insert(alias, row)
    assert fingerprint(survivor) == fingerprint(twin)
    recovered.close()


def test_manager_crash_matrix_torn(tmp_path):
    """A compact manager matrix: registrations + updates, torn mode."""
    def manager_workload(directory, hook, acked):
        pm = PersistentManager(SynopsisManager(make_db(), MaintainerConfig(seed=5)),
                               directory, sync="batch", sync_hook=hook)
        pm.register("q1", SQL, MaintainerConfig(spec=SynopsisSpec.fixed_size(6)))
        acked.append("register")
        rng = random.Random(21)
        for i in range(8):
            pm.insert("r", (rng.randrange(4), rng.randrange(4)))
            acked.append("insert")
            if i == 3:
                pm.checkpoint()
        pm.close()

    probe = CrashPointInjector()
    manager_workload(str(tmp_path / "probe"), probe, [])
    total = probe.boundaries
    assert total == 13
    for crash_at in range(total):
        directory = str(tmp_path / f"run-{crash_at}")
        injector = CrashPointInjector(crash_at=crash_at, mode="torn")
        acked = []
        try:
            manager_workload(directory, injector, acked)
        except CrashPoint:
            pass
        else:
            pytest.fail(f"boundary {crash_at} never crashed")
        try:
            recovered = PersistentManager.recover(directory)
        except PersistError:
            assert acked == []
            continue
        # the recovered registration count matches the acked prefix
        # (possibly plus the one in-flight op)
        acked_registers = acked.count("register")
        assert len(recovered.names()) in (acked_registers,
                                          min(acked_registers + 1, 1))
        if recovered.names():
            acked_inserts = acked.count("insert")
            inserts = recovered.maintainer("q1").engine.stats.inserts
            assert inserts in (acked_inserts, acked_inserts + 1)
        recovered.close()
