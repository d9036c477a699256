"""Uniformity of SJoin-opt on an FK-collapsed multi-way query.

The plain-engine uniformity tests (test_uniformity.py) cover the sampling
machinery; this module checks that routing through combined nodes (FK
assembly, §6) preserves uniformity end-to-end, including deletions that
trigger purge + re-draw through the collapsed plan.
"""

import random
from collections import Counter

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    JoinExecutor,
    SJoinEngine,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import (
    chi_square_threshold, chi_square_uniform, engine_delete, engine_insert)

SQL = ("SELECT * FROM fact, dim, other "
       "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")


def build_db(fact_columns=("f_dim", "v")):
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column(name) for name in fact_columns],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band")]))
    return db


def build_script():
    """Fixed workload: dims, facts, others, then a deletion wave."""
    rng = random.Random(77)
    script = []
    for d in range(6):
        script.append(("insert", "dim", (d, d % 3)))
    fact_tids = []
    other_tids = []
    next_tid = {"fact": 0, "other": 0}
    for i in range(30):
        script.append(("insert", "fact", (rng.randrange(6), i)))
        fact_tids.append(next_tid["fact"])
        next_tid["fact"] += 1
        if i % 2 == 0:
            script.append(("insert", "other", (rng.randrange(3),)))
            other_tids.append(next_tid["other"])
            next_tid["other"] += 1
    rng.shuffle(fact_tids)
    for tid in fact_tids[:12]:
        script.append(("delete", "fact", tid))
    rng.shuffle(other_tids)
    for tid in other_tids[:4]:
        script.append(("delete", "other", tid))
    return script


SCRIPT = build_script()


def run_once(seed, spec):
    db = build_db()
    query = parse_query(SQL, db)
    engine = SJoinEngine(db, query, spec, fk_optimize=True, seed=seed)
    for op, alias, payload in SCRIPT:
        if op == "insert":
            engine_insert(engine, alias, payload)
        else:
            engine_delete(engine, alias, payload)
    return db, engine


@pytest.fixture(scope="module")
def exact_results():
    db, engine = run_once(0, SynopsisSpec.fixed_size(1))
    return sorted(JoinExecutor(db, engine.query).results())


def test_workload_is_interesting(exact_results):
    # guard: the fixed script must leave a non-trivial result set
    assert 10 <= len(exact_results) <= 200


def test_fixed_size_uniform_through_fk_collapse(exact_results):
    m = 4
    trials = 500
    counts = Counter()
    for t in range(trials):
        _, engine = run_once(t, SynopsisSpec.fixed_size(m))
        results = engine.synopsis_entries().rows
        assert len(results) == min(m, len(exact_results))
        assert set(results) <= set(exact_results)
        for r in results:
            counts[r] += 1
    stat = chi_square_uniform([counts[r] for r in exact_results])
    assert stat < chi_square_threshold(len(exact_results) - 1)


def test_with_replacement_uniform_through_fk_collapse(exact_results):
    trials = 500
    counts = Counter()
    for t in range(trials):
        _, engine = run_once(t, SynopsisSpec.with_replacement(3))
        for r in engine.synopsis_entries().rows:
            counts[r] += 1
    stat = chi_square_uniform([counts[r] for r in exact_results])
    assert stat < chi_square_threshold(len(exact_results) - 1)


# ----------------------------------------------------------------------
# the Poisson kinds (Bernoulli, subset with a weight column): after the
# deletion wave and a refill, on SJoin and SJoin-opt, each result is in
# with its own probability pi_i and, sharing a fact tuple or not,
# independently of the others
# ----------------------------------------------------------------------
def build_refill_script():
    """:data:`SCRIPT` with a weight per fact (1..3), then a refill of
    facts and others after its deletion wave."""
    rng = random.Random(78)
    script = [(op, alias, payload + (rng.randrange(1, 4),))
              if op == "insert" and alias == "fact" else (op, alias, payload)
              for op, alias, payload in SCRIPT]
    for i in range(10):
        script.append(("insert", "fact",
                       (rng.randrange(6), 30 + i, rng.randrange(1, 4))))
        if i % 3 == 0:
            script.append(("insert", "other", (rng.randrange(3),)))
    return script


REFILL_SCRIPT = build_refill_script()
POISSON_TRIALS = 1500
POISSON_SPECS = {
    "bernoulli": SynopsisSpec.bernoulli(0.4),
    "subset": SynopsisSpec.subset(0.3, "fact.w"),
}


def run_refill(seed, spec, fk_optimize):
    db = build_db(("f_dim", "v", "w"))
    engine = SJoinEngine(db, parse_query(SQL, db), spec,
                         fk_optimize=fk_optimize, seed=seed)
    for op, alias, payload in REFILL_SCRIPT:
        if op == "insert":
            engine_insert(engine, alias, payload)
        else:
            engine_delete(engine, alias, payload)
    return db, engine


def binomial_chi_square(counts, probabilities, trials):
    """Sum over cells of (count - T q)^2 / (T q (1 - q)): one dof per
    cell, each count Binomial(T, q) under the null."""
    return sum((c - trials * q) ** 2 / (trials * q * (1 - q))
               for c, q in zip(counts, probabilities))


@pytest.mark.parametrize("fk_optimize", [False, True],
                         ids=["sjoin", "sjoin-opt"])
@pytest.mark.parametrize("kind", sorted(POISSON_SPECS))
def test_poisson_kinds_include_each_result_independently(kind, fk_optimize):
    spec = POISSON_SPECS[kind]
    db, engine = run_refill(0, spec, fk_optimize)
    exact = sorted(JoinExecutor(db, engine.query).results())
    weight = {tid: row[2] for tid, row in db.table("fact").scan()}
    pi = {r: (spec.rate if kind == "bernoulli"
              else 1 - (1 - spec.rate) ** weight[r[0]]) for r in exact}
    # pairs of results that share a fact tuple (range-table order:
    # fact, dim, other) — one purge or re-draw touches both
    pairs = [(a, b) for i, a in enumerate(exact) for b in exact[i + 1:]
             if a[0] == b[0]]
    assert len(exact) >= 50 and len(pairs) >= 100
    singles, joint = Counter(), Counter()
    for t in range(POISSON_TRIALS):
        _, engine = run_refill(t, spec, fk_optimize)
        shown = set(engine.synopsis_entries().rows)
        assert shown <= pi.keys()
        singles.update(shown)
        joint.update(pair for pair in pairs
                     if pair[0] in shown and pair[1] in shown)
    per_result = binomial_chi_square(
        [singles[r] for r in exact], [pi[r] for r in exact],
        POISSON_TRIALS)
    assert per_result < chi_square_threshold(len(exact)), per_result
    per_pair = binomial_chi_square(
        [joint[p] for p in pairs], [pi[a] * pi[b] for a, b in pairs],
        POISSON_TRIALS)
    assert per_pair < chi_square_threshold(len(pairs)), per_pair
