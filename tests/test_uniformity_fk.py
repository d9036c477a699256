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


def build_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("v")],
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
