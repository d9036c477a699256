"""Uniformity of the residual-filtered synopsis (cyclic queries, §5.1).

For a cyclic query, the demoted edge is applied as a filter on top of the
synopsis.  Filtering a uniform sample uniformly thins it, so the returned
(filtered) synopsis must be a uniform sample of the *filtered* result set
— checked by chi-square over many seeds on a fixed workload.
"""

import random
from collections import Counter

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinExecutor,
    JoinSynopsisMaintainer,
    SynopsisSpec,
    TableSchema,
    parse_query,
)

from conftest import chi_square_threshold, chi_square_uniform

# triangle: r-s, s-t equality edges + the cycle-closing inequality t-r,
# which the planner demotes to a residual filter
SQL = ("SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b "
       "AND t.c <= r.x")


def build_script():
    rng = random.Random(31337)
    script = []
    for i in range(14):
        script.append(("r", (rng.randrange(3), rng.randrange(6))))
        script.append(("s", (rng.randrange(3), rng.randrange(3))))
        script.append(("t", (rng.randrange(3), rng.randrange(6))))
    return script


SCRIPT = build_script()


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    db.create_table(TableSchema("t", [Column("b"), Column("c")]))
    return db


def run_once(seed):
    db = make_db()
    maintainer = JoinSynopsisMaintainer(
        db, SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(6), engine="sjoin", seed=seed,
            effective_spec=SynopsisSpec.fixed_size(6)))
    for alias, row in SCRIPT:
        maintainer.insert(alias, row)
    return db, maintainer


@pytest.fixture(scope="module")
def oracle():
    db, maintainer = run_once(0)
    query = parse_query(SQL, db)
    filtered = sorted(JoinExecutor(db, query).results())
    # tree-only semantics: the same query without the cycle-closing edge
    tree_sql = "SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b"
    unfiltered = JoinExecutor(db, parse_query(tree_sql, db)).count()
    return filtered, unfiltered


def test_workload_filters_meaningfully(oracle):
    filtered, unfiltered = oracle
    assert 8 <= len(filtered) < unfiltered


def test_filtered_synopsis_is_uniform_over_filtered_results(oracle):
    filtered, _ = oracle
    counts = Counter()
    trials = 600
    for t in range(trials):
        db, maintainer = run_once(t)
        results = maintainer.synopsis()
        assert set(results) <= set(filtered)
        for r in results:
            counts[r] += 1
    stat = chi_square_uniform([counts[r] for r in filtered])
    assert stat < chi_square_threshold(len(filtered) - 1)


def test_total_results_counts_tree_results(oracle):
    _, unfiltered = oracle
    _, maintainer = run_once(5)
    # J counts tree-predicate results; the residual is read-time only
    assert maintainer.total_results() == unfiltered
