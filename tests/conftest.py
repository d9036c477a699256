"""Shared test helpers: tiny-database builders and random-query machinery.

``random_setup`` builds a random database + random acyclic multi-way join
query (mixed equality / inequality / band predicates over small value
domains) — the workhorse of the property tests that cross-check the
weighted join graph, the join-number mapping and the engines against the
exact executor.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import (
    BandPredicate,
    Column,
    ComparisonOp,
    Database,
    JoinPredicate,
    JoinQuery,
    RangeTable,
    SynopsisManager,
    TableSchema,
)

#: registration name :func:`single_query` uses unless told otherwise
QUERY = "q"


def single_query(db: Database, sql, config=None, name: str = QUERY):
    """One maintained query as every layer above the engine spells it:
    a manager with a single registration.  Returns ``(manager,
    maintainer)`` — with an explicit ``config.seed`` the maintainer is
    the engine a bare ``JoinSynopsisMaintainer(db, sql, config)`` would
    be, RNG stream included.  Updates address base tables (which double
    as aliases wherever a query names each table once)."""
    manager = SynopsisManager(db)
    return manager, manager.register(name, sql, config)


def engine_insert(engine, alias: str, row) -> int:
    """One row into a bare engine: an insert run of one; the TID, -1
    when a pre-filter rejected the row."""
    with engine.open_insert_run() as run:
        return run.insert(alias, row)


def engine_delete(engine, alias: str, tid: int) -> None:
    """One stored tuple out of a bare engine: a delete run of one, the
    heap tombstone after the unregister."""
    with engine.delete_run(alias) as unregister:
        table = engine._routes[alias][0]
        unregister(tid, table.get(tid))
        table.delete(tid)


def delete_one(graph, node_idx: int, tid: int, key: tuple):
    """One tuple out of a bare join graph, the way the engines take it
    out: a delete run of one on its vertex key, flushed.  The number of
    join results removed; None, with nothing changed, when the node does
    not hold the tuple."""
    run = graph.delete_run(node_idx)
    removed = run.delete(tid, key)
    run.flush()
    return removed


def as_written_by_3_0(payload: dict) -> None:
    """Rewrite a fresh snapshot payload into what 3.0 wrote: format
    version 2, every query's state naming its ``index_backend``."""
    payload["database"]["version"] = 2
    payload["manager"]["version"] = 2
    for query in payload["manager"]["queries"]:
        query["maintainer"]["version"] = 2
        query["maintainer"]["index_backend"] = "avl"


def make_tables(db: Database, spec: List[Tuple[str, int]]) -> None:
    """Create tables named per ``spec`` with ``ncols`` integer columns
    named ``c0..c{n-1}``."""
    for name, ncols in spec:
        db.create_table(
            TableSchema(name, [Column(f"c{i}") for i in range(ncols)])
        )


def _random_range_predicate(rng: random.Random, left: str, left_attr: str,
                            right: str, right_attr: str):
    if rng.random() < 0.5:
        return BandPredicate(
            left=left, left_attr=left_attr,
            right=right, right_attr=right_attr,
            width=rng.randrange(3), inclusive=rng.random() < 0.5,
        )
    op = rng.choice([ComparisonOp.LT, ComparisonOp.LE,
                     ComparisonOp.GT, ComparisonOp.GE])
    return JoinPredicate(
        left=left, left_attr=left_attr, op=op,
        right=right, right_attr=right_attr,
        coeff=rng.choice([1, 1, 2, -1]),
        offset=rng.randrange(-2, 3),
    )


def random_query(rng: random.Random, num_tables: int,
                 max_cols: int = 3) -> Tuple[Database, JoinQuery]:
    """A random acyclic join query over ``num_tables`` fresh tables.

    Edges may carry one predicate (equality / inequality / band) or a
    composite of an equality plus a range predicate — exercising the
    composite-sort-key machinery everywhere this helper is used.
    """
    db = Database()
    ncols = [1 + rng.randrange(max_cols) for _ in range(num_tables)]
    names = [f"t{i}" for i in range(num_tables)]
    make_tables(db, list(zip(names, ncols)))
    predicates = []
    for i in range(1, num_tables):
        j = rng.randrange(i)  # random tree parent
        a_attr = f"c{rng.randrange(ncols[i])}"
        b_attr = f"c{rng.randrange(ncols[j])}"
        kind = rng.random()
        if kind < 0.45:
            predicates.append(JoinPredicate(
                left=names[i], left_attr=a_attr, op=ComparisonOp.EQ,
                right=names[j], right_attr=b_attr,
            ))
        elif kind < 0.85:
            predicates.append(_random_range_predicate(
                rng, names[i], a_attr, names[j], b_attr))
        else:
            # composite edge: plain equality + one range predicate on
            # (possibly) different attributes of the same pair
            predicates.append(JoinPredicate(
                left=names[i], left_attr=a_attr, op=ComparisonOp.EQ,
                right=names[j], right_attr=b_attr,
            ))
            predicates.append(_random_range_predicate(
                rng,
                names[i], f"c{rng.randrange(ncols[i])}",
                names[j], f"c{rng.randrange(ncols[j])}",
            ))
    query = JoinQuery([RangeTable(n, n) for n in names], predicates)
    return db, query


def random_row(rng: random.Random, ncols: int, domain: int = 5) -> tuple:
    return tuple(rng.randrange(domain) for _ in range(ncols))


def graph_state(graph):
    """Every vertex's tuple ids and weights, keyed by (node, key); the
    positional ``w_out`` / ``W_in`` read at the node's neighbours."""
    state = {}
    for node_idx, hash_index in enumerate(graph.hash_indexes):
        nbrs = sorted(nbr_idx for nbr_idx, _ in graph.neighbors(node_idx))
        for key, vertex in sorted(hash_index.items()):
            state[(node_idx, key)] = (
                tuple(vertex.ids), vertex.w_full,
                tuple((nbr, vertex.w_out[nbr]) for nbr in nbrs),
                tuple((nbr, vertex.W_in[nbr]) for nbr in nbrs),
            )
    return state


def contains(lo, hi, lo_open: bool, hi_open: bool, value) -> bool:
    """Brute-force range membership: ``value`` lies between ``lo`` and
    ``hi`` (``None``: unbounded on that side), an open end excluding its
    bound — the oracle the compiled cuts are checked against."""
    if lo is not None and (value < lo or (lo_open and value == lo)):
        return False
    if hi is not None and (value > hi or (hi_open and value == hi)):
        return False
    return True


def chi_square_uniform(counts: List[int]) -> float:
    """Chi-square statistic against the uniform distribution."""
    total = sum(counts)
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def chi_square_threshold(dof: int) -> float:
    """~99.9th percentile of chi-square via the Wilson-Hilferty cube
    approximation — loose enough to keep statistical tests stable."""
    z = 3.09  # 99.9th percentile of N(0,1)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * (h ** 0.5)) ** 3


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
