"""End-to-end statistical validation (Theorem 5.1).

After a fixed interleaving of insertions and deletions, the synopsis must
be a uniform sample of the surviving join results — for every synopsis
type and both engines.  Each test replays the same workload under many
independent RNG seeds and chi-square-tests the per-result selection counts
against uniformity.
"""

import random
from collections import Counter

import pytest

from repro import (
    JoinExecutor,
    SJoinEngine,
    SymmetricJoinEngine,
    SynopsisSpec,
    parse_query,
)
from repro.catalog.database import Database

from conftest import (
    chi_square_threshold, chi_square_uniform, engine_delete, engine_insert,
    make_tables)


def build_workload(rng):
    """A fixed insert/delete script over a two-table many-to-many join."""
    script = []
    live = {"r": [], "s": []}
    counter = {"r": 0, "s": 0}
    for _ in range(70):
        if rng.random() < 0.28 and any(live.values()):
            alias = rng.choice([a for a in live if live[a]])
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            script.append(("delete", alias, tid))
        else:
            alias = rng.choice(["r", "s"])
            row = (rng.randrange(3), counter[alias])
            counter[alias] += 1
            script.append(("insert", alias, row))
            live[alias].append(script.__len__())  # placeholder
    # re-simulate to get real tids
    fixed = []
    tids = {"r": [], "s": []}
    next_tid = {"r": 0, "s": 0}
    for op, alias, payload in script:
        if op == "insert":
            fixed.append(("insert", alias, payload))
            tids[alias].append(next_tid[alias])
            next_tid[alias] += 1
        else:
            if not tids[alias]:
                continue
            tid = tids[alias].pop(payload % len(tids[alias]))
            fixed.append(("delete", alias, tid))
    return fixed


def run_engine(engine_cls, spec, seed, script, fk=False):
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    query = parse_query("SELECT * FROM r, s WHERE r.c0 = s.c0", db)
    if engine_cls is SJoinEngine:
        engine = SJoinEngine(db, query, spec, seed=seed, fk_optimize=fk)
    else:
        engine = SymmetricJoinEngine(db, query, spec, seed=seed)
    for op, alias, payload in script:
        if op == "insert":
            engine_insert(engine, alias, payload)
        else:
            engine_delete(engine, alias, payload)
    return db, engine


@pytest.fixture(scope="module")
def script():
    return build_workload(random.Random(20240615))


@pytest.fixture(scope="module")
def exact_results(script):
    db, engine = run_engine(SJoinEngine, SynopsisSpec.fixed_size(1),
                            0, script)
    return sorted(JoinExecutor(db, engine.query).results())


TRIALS = 400


class TestSJoinUniformity:
    def test_fixed_without_replacement(self, script, exact_results):
        m = 4
        counts = Counter()
        for t in range(TRIALS):
            _, engine = run_engine(
                SJoinEngine, SynopsisSpec.fixed_size(m), t, script
            )
            samples = engine.raw_samples()
            assert len(samples) == min(m, len(exact_results))
            assert len(set(samples)) == len(samples)
            for s in samples:
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(len(exact_results) - 1)

    def test_fixed_with_replacement(self, script, exact_results):
        counts = Counter()
        for t in range(TRIALS):
            _, engine = run_engine(
                SJoinEngine, SynopsisSpec.with_replacement(3), t, script
            )
            for s in engine.raw_samples():
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(len(exact_results) - 1)

    def test_bernoulli(self, script, exact_results):
        p = 0.25
        counts = Counter()
        sizes = 0
        for t in range(TRIALS):
            _, engine = run_engine(
                SJoinEngine, SynopsisSpec.bernoulli(p), t, script
            )
            samples = engine.raw_samples()
            sizes += len(samples)
            for s in samples:
                counts[s] += 1
        # each surviving result included with probability ~p
        n = len(exact_results)
        assert abs(sizes / (TRIALS * n) - p) < 0.05
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(n - 1)


class TestSJUniformity:
    def test_fixed_without_replacement(self, script, exact_results):
        m = 4
        counts = Counter()
        for t in range(TRIALS):
            _, engine = run_engine(
                SymmetricJoinEngine, SynopsisSpec.fixed_size(m), t, script
            )
            samples = engine.raw_samples()
            assert len(samples) == min(m, len(exact_results))
            for s in samples:
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in exact_results])
        assert stat < chi_square_threshold(len(exact_results) - 1)


class TestDeltaViewUniformity:
    def test_redraw_is_uniform(self):
        """Uniform re-draws via the full view: draw a random join number
        many times over a fixed database, chi-square the hit counts."""
        from repro.graph.join_number import map_join_number

        db = Database()
        make_tables(db, [("r", 2), ("s", 2)])
        query = parse_query("SELECT * FROM r, s WHERE r.c0 = s.c0", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(1), seed=0)
        rng = random.Random(8)
        for i in range(12):
            engine_insert(engine, "r", (rng.randrange(3), i))
            engine_insert(engine, "s", (rng.randrange(3), i))
        j = engine.total_results()
        exact = sorted(JoinExecutor(db, query).results())
        assert j == len(exact)
        draws = Counter()
        n = 8000
        for _ in range(n):
            draws[map_join_number(engine.graph, 0, rng.randrange(j))] += 1
        stat = chi_square_uniform([draws[r] for r in exact])
        assert stat < chi_square_threshold(len(exact) - 1)
