"""The compiled cut ≡ the predicate's bounds ≡ the predicate.

The join graph and the SJ baseline hand the aggregate tree a range as
its two cut points, compiled once per edge direction from a key holding
the edge key (:meth:`TreeEdge.cut_fn`).  The reference here is built
from the *edge* key in the test: the equality components as the prefix,
the range predicate's :meth:`~ThetaPredicate.bounds_for` on the last
one.  Over every range-predicate shape — bands inclusive and strict,
``<``, ``<=``, ``>``, ``>=`` and an arithmetic ``=``, integral and
fractional coefficients, offsets and widths, with and without an
equality component — and over int, float and past-2⁵³ source values,
``select``, ``range_sum`` and ``iter_nodes`` must answer alike on the
compiled cut and on the reference's :func:`cut_points`, alike with a
brute-force model of the reference's fields, and that model must hold
exactly the keys :meth:`TreeEdge.matches` joins with the edge key — on
trees whose blocks hold two entries (``LOAD`` patched to 2).

The last test seeds the two mistakes such a compile invites — a cut
that drops ``lo_open``, and one that slices the equality prefix one
position short — and shows the same check catches each.
"""

import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.aggregate import AggregateTree
from repro.index.api import cut_points
from repro.query import query_tree
from repro.query.predicates import (BandPredicate, ComparisonOp,
                                    JoinPredicate)
from repro.query.query_tree import TreeEdge

from conftest import contains
from test_aggregate_index import Item, read, small_blocks

COEFFS = (1, 2, -1, Fraction(1, 2), 0.5, -1.5)
CONSTANTS = (0, 1, 3, -2, Fraction(5, 2), 0.25, 1.5)


def make_edge(shape, coeff, constant, num_eq):
    """Edge ``s`` — ``t``: ``num_eq`` plain equalities on ``e`` and one
    range predicate on ``a`` of the given shape."""
    if shape in ("band", "strict band"):
        rng_pred = BandPredicate("s", "a", "t", "a", width=abs(constant),
                                 coeff=coeff, inclusive=shape == "band")
    else:
        rng_pred = JoinPredicate("s", "a", ComparisonOp(shape), "t", "a",
                                 coeff=coeff, offset=constant)
    eqs = tuple(JoinPredicate("s", "e", ComparisonOp.EQ, "t", "e")
                for _ in range(num_eq))
    return TreeEdge("s", "t", eqs, rng_pred)


def vertex_layout(num_eq, padded):
    """A source vertex key's layout and the edge key's positions in it:
    the edge key itself, or ``(z, a, e)`` — an unrelated attribute
    first, the equality component after the range one."""
    if not padded:
        return tuple(range(num_eq + 1))
    return (2, 1) if num_eq else (1,)


def vertex_key(padded, num_eq, eq_value, value):
    if not padded:
        return (eq_value, value) if num_eq else (value,)
    return ("z", value, eq_value) if num_eq else ("z", value)


def near(bound):
    """Keys on and around a bound: the bound, its float, the integers
    either side of it."""
    if bound is None:
        return []
    keys = [bound, float(bound)]
    for base in (math.floor(bound), math.ceil(bound)):
        keys += [base - 1, base, base + 1]
    return keys


def reference(edge, target, edge_key):
    """The range of ``target``'s edge keys that join ``edge_key``, as the
    arguments of :func:`cut_points`: the equality components pinned as
    the prefix, the range predicate's bounds on the last component; on a
    pure-equality edge the single point ``edge_key``."""
    if edge.range_predicate is None:
        return edge_key, None, None, False, False
    bounds, lo_open, hi_open = edge.range_predicate.bounds_for(target)
    lo, hi = bounds(edge_key[-1])
    return edge_key[:-1], lo, hi, lo_open, hi_open


def build_tree(edge_key, ref, num_eq, rnd):
    """A tree of target edge keys around the bounds of ``ref`` (see
    :func:`reference`), every equality value in {0, 1, 2}, weights 0–3,
    in random order."""
    _, lo, hi, _, _ = ref
    values = near(lo) + near(hi) + [edge_key[-1]]
    values += [rnd.randint(-60, 60) for _ in range(4)]
    keys = [((p, v) if num_eq else (v,)) for v in values
            for p in (range(3) if num_eq else (None,))]
    rnd.shuffle(keys)
    tree = AggregateTree(1, read)
    for key in keys:
        tree.insert(key, Item([rnd.randint(0, 3)]))
    return tree


def model(tree, ref):
    """The nodes of the range ``ref`` by brute force over its own fields
    (not through any cut)."""
    prefix, lo, hi, lo_open, hi_open = ref
    plen = len(prefix)
    return [node for node in tree.iter_nodes()
            if node.key[:plen] == prefix
            and (plen == len(node.key)
                 or contains(lo, hi, lo_open, hi_open, node.key[plen]))]


def mismatches(edge, target, key_pos, vkey, tree, cut):
    """Where ``cut`` (compiled for ``vkey``) and the reference's cut
    (for its edge key) disagree, either disagrees with the model, or
    the model with :meth:`TreeEdge.matches`; empty when all answer
    alike."""
    edge_key = tuple(vkey[i] for i in key_pos)
    ref = reference(edge, target, edge_key)
    nodes = model(tree, ref)
    expected_nodes = [node.sort_key for node in nodes]
    found = []
    joining = [node.sort_key for node in tree.iter_nodes()
               if edge.matches(target, node.key, edge_key)]
    if joining != expected_nodes:
        found.append(("matches", joining, expected_nodes))
    for name, arg in (("cut_points", cut_points(*ref)), ("cut", cut(vkey))):
        got = [node.sort_key for node in tree.iter_nodes(arg)]
        if got != expected_nodes:
            found.append((name, "iter_nodes", got, expected_nodes))
        total = sum(node.item.values[0] for node in nodes)
        if tree.range_sum(0, arg) != total:
            found.append((name, "range_sum", tree.range_sum(0, arg), total))
        running = 0
        for node in nodes:
            value = node.item.values[0]
            for number in range(running, running + value):
                got = tree.select(0, number, arg)
                if got != (node.item, running):
                    found.append((name, "select", number, got))
            running += value
        if tree.select(0, running, arg) is not None:
            found.append((name, "select past the range", running))
    return found


source_values = st.one_of(
    st.integers(-50, 50),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    st.integers(2 ** 53 - 3, 2 ** 53 + 3),
    st.integers(-2 ** 53 - 3, -2 ** 53 + 3),
)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["band", "strict band", "<", "<=", ">", ">=",
                              "="]),
       coeff=st.sampled_from(COEFFS),
       constant=st.sampled_from(CONSTANTS),
       num_eq=st.integers(0, 1),
       padded=st.booleans(),
       towards_t=st.booleans(),
       eq_value=st.integers(0, 2),
       value=source_values,
       seed=st.integers(0, 2 ** 16))
def test_compiled_cut_matches_index_range(shape, coeff, constant, num_eq,
                                          padded, towards_t, eq_value,
                                          value, seed):
    """The compiled cut selects the index range the predicate's bounds
    describe, and exactly the keys the predicate joins."""
    edge = make_edge(shape, coeff, constant, num_eq)
    target = "t" if towards_t else "s"
    key_pos = vertex_layout(num_eq, padded)
    vkey = vertex_key(padded, num_eq, eq_value, value)
    edge_key = tuple(vkey[i] for i in key_pos)
    with small_blocks():
        tree = build_tree(edge_key, reference(edge, target, edge_key),
                          num_eq, random.Random(seed))
        assert mismatches(edge, target, key_pos, vkey, tree,
                          edge.cut_fn(target, key_pos)) == []
        tree.check_invariants()


def test_pure_equality_cut_is_the_point_range():
    edge = TreeEdge("s", "t", (
        JoinPredicate("s", "e", ComparisonOp.EQ, "t", "e"),
        JoinPredicate("s", "f", ComparisonOp.EQ, "t", "f")))
    with small_blocks():
        tree = AggregateTree(1, read)
        rnd = random.Random(3)
        for _ in range(40):
            tree.insert((rnd.randrange(3), rnd.randrange(3)),
                        Item([rnd.randint(0, 3)]))
        for e in range(3):
            for f in range(3):
                vkey = ("z", f, e)
                assert mismatches(edge, "t", (2, 1), vkey, tree,
                                  edge.cut_fn("t", (2, 1))) == []


def _examples(count=200):
    """Fixed random cases over every shape, each with one equality
    component and a source value on the integer grid."""
    rnd = random.Random(35)
    shapes = ["band", "strict band", "<", "<=", ">", ">=", "="]
    for _ in range(count):
        yield (rnd.choice(shapes), rnd.choice(COEFFS), rnd.choice(CONSTANTS),
               rnd.randint(0, 2), rnd.randint(-20, 20), rnd.random() < 0.5,
               rnd.randrange(2 ** 16))


def _caught(compile_cut):
    """Whether :func:`mismatches` flags a cut compiled by
    ``compile_cut(edge, target, key_pos)`` on any fixed example."""
    for shape, coeff, constant, eq_value, value, towards_t, seed \
            in _examples():
        edge = make_edge(shape, coeff, constant, 1)
        target = "t" if towards_t else "s"
        key_pos = vertex_layout(1, True)
        vkey = vertex_key(True, 1, eq_value, value)
        edge_key = tuple(vkey[i] for i in key_pos)
        with small_blocks():
            tree = build_tree(edge_key, reference(edge, target, edge_key),
                              1, random.Random(seed))
            if mismatches(edge, target, key_pos, vkey, tree,
                          compile_cut(edge, target, key_pos)):
                return True
    return False


def test_the_check_catches_seeded_mistakes():
    def faithful(edge, target, key_pos):
        return edge.cut_fn(target, key_pos)

    def drops_lo_open(edge, target, key_pos):
        pred = edge.range_predicate
        bounds, _, hi_open = pred.bounds_for(target)
        with mock.patch.object(type(pred), "bounds_for",
                               lambda self, alias: (bounds, False, hi_open)):
            return edge.cut_fn(target, key_pos)

    def prefix_one_short(edge, target, key_pos):
        project = query_tree.key_projection
        with mock.patch.object(query_tree, "key_projection",
                               lambda positions: project(positions[:-1])):
            return edge.cut_fn(target, key_pos)

    assert not _caught(faithful)
    assert _caught(drops_lo_open)
    assert _caught(prefix_one_short)
