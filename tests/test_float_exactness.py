"""FLOAT range joins are exact in every engine.

A float row value such as ``1.1`` is not the decimal it prints as; the
key stored in the index is its binary value.  The range bounds computed
from a float, and the predicate tested on one, must both read it as
that exact binary rational, or a key on a bound falls on the wrong side
of it.  Over one-decimal FLOAT values, for each range shape and each
engine, ``J`` must equal the brute-force executor's count and every
sample must be an exact join result, after inserts and again after
deletes.
"""

import random

import pytest

from repro import (
    Column,
    Database,
    DataType,
    JoinExecutor,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisSpec,
    TableSchema,
)

SHAPES = {
    "le": "s.a <= t.a",
    "scaled eq": "s.a = 2 * t.a",
    "zero band": "|s.a - t.a| <= 0",
    "offset eq": "s.a = t.a + 0.5",
}
ENGINES = ("sjoin", "sjoin-opt", "sj")


def maintainer(where, engine, seed=0):
    db = Database()
    for name in ("s", "t"):
        db.create_table(TableSchema(name, [Column("a", DataType.FLOAT)]))
    return JoinSynopsisMaintainer(
        db, f"SELECT * FROM s, t WHERE {where}",
        MaintainerConfig(spec=SynopsisSpec.fixed_size(20), engine=engine,
                         seed=seed))


def assert_exact(m):
    exact = set(JoinExecutor(m.db, m.query).results())
    assert m.total_results() == len(exact)
    assert set(m.synopsis()) <= exact


def test_one_row_each_side_on_the_bound():
    for engine in ENGINES:
        m = maintainer(SHAPES["le"], engine)
        m.insert("s", (1.1,))
        m.insert("t", (1.1,))
        assert m.total_results() == 1, engine
        assert_exact(m)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_float_range_join_count_is_exact(shape, engine):
    for seed in range(10):
        rnd = random.Random(seed)
        m = maintainer(SHAPES[shape], engine, seed)
        live = []
        for _ in range(24):
            alias = rnd.choice("st")
            live.append((alias, m.insert(
                alias, (rnd.randrange(-30, 31) / 10,))))
        assert_exact(m)
        for alias, tid in rnd.sample(live, 8):
            m.delete(alias, tid)
        assert_exact(m)
