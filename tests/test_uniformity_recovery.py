"""Statistical validation across a restore (Theorem 5.1 + durability).

A checkpoint/restore in the middle of the update stream must not bias
the synopsis: the restored process continues with the *captured* RNG
state, so over many independent seeds the post-restore synopsis must
remain a uniform sample of the surviving join results — for every
synopsis type.  A companion test pins the stronger per-seed property the
uniformity argument rests on: the restored maintainer draws the exact
same future sample stream as a never-restarted twin.
"""

import random
from collections import Counter

import pytest

from repro import MaintainerConfig
from repro import JoinExecutor, SynopsisSpec, parse_query
from repro.catalog.database import Database
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.persist import (
    capture_database,
    capture_maintainer,
    restore_database,
    restore_maintainer,
)
from repro.persist.wal import dump_plain, load_plain

from conftest import chi_square_threshold, chi_square_uniform, make_tables
from test_uniformity import build_workload

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"
TRIALS = 400


def make_maintainer(spec, seed):
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    return JoinSynopsisMaintainer(db, SQL, MaintainerConfig(spec=spec, seed=seed))


def apply_script(maintainer, script):
    for op, alias, payload in script:
        if op == "insert":
            maintainer.insert(alias, payload)
        else:
            maintainer.delete(alias, payload)


def round_trip(maintainer):
    """Capture, encode, restore: the crash-recovery path in miniature."""
    blob = dump_plain({
        "database": capture_database(maintainer.db),
        "maintainer": capture_maintainer(maintainer),
    })
    state = load_plain(blob)
    db = restore_database(state["database"])
    return restore_maintainer(db, state["maintainer"])


def run_with_restore(spec, seed, script):
    """Apply half the workload, restore from a snapshot, finish it."""
    maintainer = make_maintainer(spec, seed)
    half = len(script) // 2
    apply_script(maintainer, script[:half])
    maintainer = round_trip(maintainer)
    apply_script(maintainer, script[half:])
    return maintainer


@pytest.fixture(scope="module")
def script():
    return build_workload(random.Random(20240615))


@pytest.fixture(scope="module")
def exact_results(script):
    maintainer = make_maintainer(SynopsisSpec.fixed_size(1), 0)
    apply_script(maintainer, script)
    query = parse_query(SQL, maintainer.db)
    return sorted(JoinExecutor(maintainer.db, query).results())


class TestPostRestoreUniformity:
    def test_fixed_without_replacement(self, script, exact_results):
        m = 4
        counts = Counter()
        for t in range(TRIALS):
            maintainer = run_with_restore(
                SynopsisSpec.fixed_size(m), t, script)
            samples = maintainer.engine.raw_samples()
            assert len(samples) == min(m, len(exact_results))
            assert len(set(samples)) == len(samples)
            for s in samples:
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(len(exact_results) - 1)

    def test_fixed_with_replacement(self, script, exact_results):
        counts = Counter()
        for t in range(TRIALS):
            maintainer = run_with_restore(
                SynopsisSpec.with_replacement(3), t, script)
            for s in maintainer.engine.raw_samples():
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(len(exact_results) - 1)

    def test_bernoulli(self, script, exact_results):
        p = 0.25
        counts = Counter()
        sizes = 0
        for t in range(TRIALS):
            maintainer = run_with_restore(
                SynopsisSpec.bernoulli(p), t, script)
            samples = maintainer.engine.raw_samples()
            sizes += len(samples)
            for s in samples:
                counts[s] += 1
        n = len(exact_results)
        assert abs(sizes / (TRIALS * n) - p) < 0.05
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(n - 1)


class TestSeededBitIdentity:
    """The per-seed mechanism behind the aggregate uniformity: a restore
    replays the captured RNG state, so the restored maintainer and a
    never-restarted twin draw identical future sample streams."""

    @pytest.mark.parametrize("spec", [
        SynopsisSpec.fixed_size(4),
        SynopsisSpec.with_replacement(3),
        SynopsisSpec.bernoulli(0.25),
    ], ids=["fixed", "with_replacement", "bernoulli"])
    def test_restored_draws_match_twin(self, script, spec):
        half = len(script) // 2
        twin = make_maintainer(spec, 42)
        apply_script(twin, script)

        restored = make_maintainer(spec, 42)
        apply_script(restored, script[:half])
        restored = round_trip(restored)
        apply_script(restored, script[half:])

        assert restored.engine.raw_samples() == twin.engine.raw_samples()
        assert restored.total_results() == twin.total_results()
        assert restored.engine.rng.getstate() == twin.engine.rng.getstate()
