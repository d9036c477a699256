"""Micro-benchmark of the aggregate index alone: microseconds per operation
at a given size, for the three access patterns the engine makes.

* ``insert`` — insert under a random key into a tree of ``n`` entries;
* ``churn`` — delete a random live entry, then insert under a random key
  (one pair per operation; the tree stays at ``n``);
* ``alternation`` — change one entry's value and ``refresh`` it, then a
  ``range_sum`` and a ranged ``select`` over a random key range (one
  triple per operation): a lazily aggregated index pays its rebuild
  here, in the query after every update;
* ``ranged_select`` — change one entry's value and ``refresh`` it, then
  one ``select`` over the range a band edge joins to a random source
  key, built the way Algorithm 2's child step builds it (one pair per
  operation): the edge's compiled cut (``TreeEdge.cut_fn``).  The
  script needs a checkout that has ``cut_fn`` and ``cut_points``.

Keys are ``(prefix, value)`` pairs with four prefixes, the shape of a
join-graph edge index, and every range pins the prefix.  Run it from the
repository root, once per checkout being compared::

    PYTHONPATH=src python benchmarks/index_micro.py [--reps 5]

It prints one line per size and pattern: the median over ``--reps`` runs.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.index import AggregateTree
from repro.index.api import cut_points
from repro.query.predicates import BandPredicate, ComparisonOp, JoinPredicate
from repro.query.query_tree import TreeEdge

SIZES = (200, 2_000, 20_000, 100_000)
OPS = 2_000


class Item:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def read(item: Item) -> list:
    return [item.value]


def _key(rnd: random.Random) -> tuple:
    return (rnd.randrange(4), rnd.randrange(1 << 30))


def _build(n: int, rnd: random.Random):
    tree = AggregateTree(1, read)
    handles = [tree.insert(_key(rnd), Item(rnd.randrange(1, 9)))
               for _ in range(n)]
    tree.total(0)
    return tree, handles


def _insert(tree, handles, rnd):
    keys = [_key(rnd) for _ in range(OPS)]
    items = [Item(rnd.randrange(1, 9)) for _ in range(OPS)]
    start = time.perf_counter()
    for key, item in zip(keys, items):
        tree.insert(key, item)
    return time.perf_counter() - start


def _churn(tree, handles, rnd):
    picks = [rnd.randrange(len(handles)) for _ in range(OPS)]
    keys = [_key(rnd) for _ in range(OPS)]
    items = [Item(rnd.randrange(1, 9)) for _ in range(OPS)]
    start = time.perf_counter()
    for pick, key, item in zip(picks, keys, items):
        tree.delete(handles[pick])
        handles[pick] = tree.insert(key, item)
    return time.perf_counter() - start


def _alternation(tree, handles, rnd):
    plan = []
    for _ in range(OPS):
        lo, hi = sorted(rnd.randrange(1 << 30) for _ in range(2))
        plan.append((handles[rnd.randrange(len(handles))],
                     rnd.randrange(1, 9),
                     cut_points((rnd.randrange(4),), lo, hi),
                     rnd.random()))
    start = time.perf_counter()
    for handle, value, rng, share in plan:
        handle.item.value = value
        tree.refresh(handle)
        total = tree.range_sum(0, rng)
        if total:
            tree.select(0, int(total * share), rng)
    return time.perf_counter() - start


def _band_range_of(n: int):
    """``source key -> cut`` of a band edge ``s.e = t.e AND |s.a -
    t.a| <= w`` toward ``t``, as the engine compiles it; ``w`` spans
    about 32 entries of an ``n``-entry tree."""
    edge = TreeEdge("s", "t", (
        JoinPredicate("s", "e", ComparisonOp.EQ, "t", "e"),),
        BandPredicate("s", "a", "t", "a", width=(1 << 30) * 64 // n))
    return edge.cut_fn("t", (0, 1))


def _ranged_select(tree, handles, rnd):
    range_of = _band_range_of(len(handles))
    plan = []
    for _ in range(OPS):
        key = _key(rnd)
        # a target inside the range's total before the loop's updates,
        # as Algorithm 2 draws one inside the child's W_in
        total = tree.range_sum(0, range_of(key))
        plan.append((handles[rnd.randrange(len(handles))],
                     rnd.randrange(1, 9), key, int(total * rnd.random())))
    start = time.perf_counter()
    for handle, value, key, target in plan:
        handle.item.value = value
        tree.refresh(handle)
        tree.select(0, target, range_of(key))
    return time.perf_counter() - start


PATTERNS = (("insert", _insert), ("churn", _churn),
            ("alternation", _alternation), ("ranged_select", _ranged_select))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for n in SIZES:
        for name, run in PATTERNS:
            times = []
            for rep in range(args.reps):
                rnd = random.Random(args.seed * 1000 + rep)
                tree, handles = _build(n, rnd)
                times.append(run(tree, handles, rnd) / OPS * 1e6)
            print(f"n={n:>7} {name:<12} {statistics.median(times):8.2f} us/op")


if __name__ == "__main__":
    main()
