"""Aggregate index tests: unit behaviour + model-based property tests.

Ranges reach the tree as cuts, built here with
:func:`repro.index.api.cut_points`; the models keep their own bound
fields and decide membership from those.

The model is a brute-force sorted list of ``(key, tie, item)``; every
tree query (range_sum, select, prefix_sum, iteration) is cross-checked
against it after random interleavings of insert / delete / value-change
operations, the batch entry point ``update_many`` and prefix sums over a
group of handles included.  The property tests run with ``LOAD`` patched
to 2, so blocks hold a handful of entries and nearly every operation
splits, merges or empties one.

A comparison-counting key type pins the paper's ``O(log N)`` bound on
the range operations as a count no box can blur.
"""

import math
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexKeyError
from repro.index import aggregate
from repro.index.aggregate import AggregateTree
from repro.index.api import cut_points

from conftest import contains


class Item:
    """A mutable item with per-slot values (stands in for a vertex)."""

    def __init__(self, values):
        self.values = list(values)


def read(item):
    return list(item.values)


@contextmanager
def small_blocks(load=2):
    with mock.patch.object(aggregate, "LOAD", load):
        yield


class TestUnit:
    def test_empty(self):
        tree = AggregateTree(1, read)
        assert len(tree) == 0
        assert tree.total(0) == 0
        assert tree.select(0, 0) is None
        assert list(tree.iter_items()) == []
        assert tree.range_sum(0, cut_points((), 1, 2)) == 0
        assert list(tree.iter_nodes(cut_points((), 1, 2))) == []

    def test_insert_and_total(self):
        tree = AggregateTree(1, read)
        for v in (3, 1, 4):
            tree.insert((v,), Item([v]))
        assert tree.total(0) == 8
        assert [i.values[0] for i in tree.iter_items()] == [1, 3, 4]

    def test_duplicate_keys_ordered_by_tie(self):
        tree = AggregateTree(1, read)
        a = tree.insert((5,), Item([1]))
        b = tree.insert((5,), Item([2]))
        assert a.tie < b.tie
        assert tree.total(0) == 3
        assert list(tree.iter_nodes()) == [a, b]

    def test_find(self):
        tree = AggregateTree(0, lambda item: [])
        tree.insert((2,), "two")
        tree.insert((7,), "seven")
        assert tree.find((7,)).item == "seven"
        assert tree.find((3,)) is None
        assert tree.find((8,)) is None

    def test_refresh_propagates(self):
        tree = AggregateTree(1, read)
        item = Item([5])
        node = tree.insert((1,), item)
        tree.insert((2,), Item([10]))
        item.values[0] = 50
        tree.refresh(node)
        assert tree.total(0) == 60
        tree.check_invariants()
        # on a current tree a lone refresh shifts the sums in place
        item.values[0] = 7
        tree.refresh(node)
        tree.check_invariants()
        assert tree.total(0) == 17
        assert tree.prefix_sum(0, node) == 7

    def test_delete_by_handle(self):
        tree = AggregateTree(1, read)
        nodes = [tree.insert((v,), Item([v])) for v in range(10)]
        tree.delete(nodes[5])
        assert tree.total(0) == 45 - 5
        assert len(tree) == 9
        tree.check_invariants()

    def test_handles_survive_other_deletions(self):
        with small_blocks():
            tree = AggregateTree(1, read)
            nodes = [tree.insert((v,), Item([v])) for v in range(30)]
            rng = random.Random(5)
            order = list(range(30))
            rng.shuffle(order)
            for pos in order:
                node = nodes[pos]
                # handle must still identify its own item
                assert node.item.values[0] == pos
                tree.delete(node)
                tree.check_invariants()
            assert len(tree) == 0
            assert tree.restructures > 0

    def test_handles_survive_splits_and_merges(self):
        """Every handle keeps answering for its own entry while blocks
        split under it (inserts) and merge under it (deletes)."""
        with small_blocks():
            tree = AggregateTree(1, read)
            rnd = random.Random(9)
            live = {}
            for step in range(400):
                if live and rnd.random() < 0.45:
                    node = live.pop(rnd.choice(sorted(live)))
                    tree.delete(node)
                else:
                    key = (rnd.randrange(50), step)
                    live[key] = tree.insert(key, Item([rnd.randrange(4)]))
                if step % 25 == 0:
                    tree.check_invariants()
            assert tree.restructures > 10
            order = sorted(live)
            running = 0
            for key in order:
                node = live[key]
                running += node.item.values[0]
                assert tree.find(key) is node
                assert tree.prefix_sum(0, node) == running
                node.item.values[0] += 1
                tree.refresh(node)
                running += 1
            tree.check_invariants()

    def test_select_skips_zero_weight(self):
        tree = AggregateTree(1, read)
        tree.insert((1,), Item([0]))
        tree.insert((2,), Item([4]))
        tree.insert((3,), Item([0]))
        item, prefix = tree.select(0, 0)
        assert item.values[0] == 4 and prefix == 0
        assert tree.select(0, 4) is None

    def test_select_target_bounds(self):
        tree = AggregateTree(1, read)
        tree.insert((1,), Item([3]))
        with pytest.raises(ValueError):
            tree.select(0, -1)

    def test_prefix_sum(self):
        tree = AggregateTree(1, read)
        nodes = [tree.insert((v,), Item([v + 1])) for v in range(20)]
        for k, node in enumerate(nodes):
            expect = sum(v + 1 for v in range(k + 1))
            assert tree.prefix_sum(0, node) == expect
            assert tree.prefix_sum(0, node, inclusive=False) == \
                expect - (k + 1)

    def test_range_queries_with_prefix(self):
        tree = AggregateTree(1, read)
        for a in range(3):
            for b in range(4):
                tree.insert((a, b), Item([1]))
        rng = cut_points((1,), 1, 2)
        assert tree.range_sum(0, rng) == 2
        items = list(tree.iter_nodes(rng))
        assert [n.key for n in items] == [(1, 1), (1, 2)]
        # a bound shorter than the keys: every key under the prefix
        assert [n.key for n in tree.iter_nodes(cut_points((1,)))] == \
            [(1, b) for b in range(4)]
        assert tree.range_sum(0, cut_points((2,), None, None)) == 4

    def test_multi_slot(self):
        tree = AggregateTree(2, read)
        tree.insert((1,), Item([2, 30]))
        tree.insert((2,), Item([5, 70]))
        assert tree.total(0) == 7
        assert tree.total(1) == 100

    def test_double_delete_raises(self):
        tree = AggregateTree(1, read)
        node = tree.insert((1,), Item([1]))
        tree.insert((2,), Item([2]))
        tree.delete(node)
        with pytest.raises(KeyError):
            tree.delete(node)
        with pytest.raises(KeyError):
            tree.refresh(node)

    @pytest.mark.parametrize("victim", [0, 1, 2],
                             ids=["leaf", "root", "other-leaf"])
    def test_stale_handle_raises_and_leaves_tree_intact(self, victim):
        """A deleted handle is refused by every handle-taking method,
        and a refused call changes nothing (victims: the smallest,
        middle and largest key, each block holding one entry)."""
        with small_blocks(load=1):
            tree = AggregateTree(1, read)
            nodes = [tree.insert((k,), Item([k])) for k in (1, 2, 3)]
            stale = nodes.pop(victim)
            tree.delete(stale)
            live = nodes[0]
            for misuse in (
                lambda: tree.delete(stale),
                lambda: tree.refresh(stale),
                lambda: tree.update_many([stale]),
                lambda: tree.update_many([live, stale, live]),
                lambda: tree.prefix_sum(0, stale),
            ):
                with pytest.raises(IndexKeyError, match="stale handle"):
                    misuse()
                assert len(tree) == 2
                assert tree.total(0) == sum(n.item.values[0] for n in nodes)
                tree.check_invariants()
            # nodes hold their items' values: a refused batch must not
            # have read any of them, or the tree would be half-updated —
            # new values held by ``live``, the running sums still old
            before = tree.total(0)
            for node in nodes:
                node.item.values[0] += 10
            stale.item.values[0] += 10
            with pytest.raises(IndexKeyError, match="stale handle"):
                tree.update_many([live, stale, live])
            assert tree.total(0) == before
            assert tree.select(0, before - 1)[0] is nodes[-1].item
            for node in nodes:          # as the tree still sees them
                node.item.values[0] -= 10
            tree.check_invariants()
            for node in nodes:
                node.item.values[0] += 10
            tree.update_many(nodes)
            assert tree.total(0) == before + 20
            tree.check_invariants()

    def test_deleted_only_node_is_stale_too(self):
        tree = AggregateTree(1, read)
        node = tree.insert((1,), Item([4]))
        tree.delete(node)
        with pytest.raises(IndexKeyError):
            tree.delete(node)
        assert len(tree) == 0 and tree.total(0) == 0
        other = tree.insert((1,), Item([6]))
        with pytest.raises(IndexKeyError):
            tree.refresh(node)
        assert tree.prefix_sum(0, other) == 6


def test_directory_stays_square_root_sized():
    """Blocks grow with ``sqrt(n)``: ascending inserts, random inserts,
    a shrink to 5 % by random deletes and a sliding window all keep the
    directory within a small multiple of ``sqrt(n)`` blocks."""
    rnd = random.Random(3)
    n = 20000

    def check(tree):
        tree.check_invariants()
        assert len(tree._blocks) <= 3 * math.isqrt(len(tree)) + 2, \
            (len(tree), len(tree._blocks))

    ascending = AggregateTree(1, read)
    for k in range(n):
        ascending.insert((k,), Item([1]))
    check(ascending)

    shuffled = AggregateTree(1, read)
    live = [shuffled.insert((rnd.random(),), Item([1])) for _ in range(n)]
    check(shuffled)
    rnd.shuffle(live)
    for node in live[:n - n // 20]:         # shrink to 5 %
        shuffled.delete(node)
    check(shuffled)

    window = AggregateTree(1, read)
    handles = []
    for k in range(3 * n):
        handles.append(window.insert((k,), Item([1])))
        if len(handles) > n // 4:
            window.delete(handles.pop(0))
    check(window)


# ----------------------------------------------------------------------
# model-based property tests (blocks of two: nearly every op restructures)
# ----------------------------------------------------------------------
def _model_select(weighted, target):
    """Brute-force ``select`` over ``(value, item)`` pairs in key order."""
    running = 0
    for value, item in weighted:
        if running <= target < running + value:
            return item, running
        running += value
    return None


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "change",
                         "update_many", "prefix_sums"]),
        st.integers(min_value=0, max_value=15),   # key
        st.integers(min_value=0, max_value=9),    # value
    ),
    min_size=1, max_size=120,
)

range_strategy = st.tuples(
    st.integers(min_value=-1, max_value=16),
    st.integers(min_value=-1, max_value=16),
    st.booleans(), st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(ops_strategy, range_strategy, st.integers(0, 200))
def test_tree_matches_model(ops, rng_spec, target):
    with small_blocks():
        _tree_matches_model(ops, rng_spec, target)


def _tree_matches_model(ops, rng_spec, target):
    tree = AggregateTree(1, read)
    model = []  # list of (key, node, item), insertion order
    for op, key, value in ops:
        if op == "insert" or not model:
            item = Item([value])
            node = tree.insert((key,), item)
            model.append((key, node, item))
        elif op == "delete":
            key_idx = (key * 7 + value) % len(model)
            _, node, _ = model.pop(key_idx)
            tree.delete(node)
        elif op == "change":
            key_idx = (key * 5 + value) % len(model)
            _, node, item = model[key_idx]
            item.values[0] = value
            tree.refresh(node)
        else:
            # a group of entries (any order, duplicates allowed), the
            # way the join graph hands over all vertices of one sweep
            group = [model[(key * 3 + step * (value + 1)) % len(model)]
                     for step in range(1 + key % 5)]
            handles = [node for _, node, _ in group]
            if op == "update_many":
                for offset, (_, _, item) in enumerate(group):
                    item.values[0] = (value + offset) % 10
                tree.update_many(handles)
            else:
                for inclusive in (True, False):
                    assert [tree.prefix_sum(0, handle, inclusive)
                            for handle in handles] == [
                        sum(i.values[0] for k, n, i in model
                            if (k, n.tie) < (gk, gn.tie)
                            or (inclusive and n is gn))
                        for gk, gn, _ in group
                    ]
        tree.check_invariants()
    assert len(tree) == len(model)
    assert tree.total(0) == sum(i.values[0] for _, __, i in model)
    assert list(tree.iter_nodes()) == [
        node for _, node, __ in sorted(model, key=lambda m: m[1].sort_key)]

    lo, hi, lo_open, hi_open = rng_spec
    rng = cut_points((), lo, hi, lo_open, hi_open)
    in_range = [
        (key, node.tie, item) for key, node, item in model
        if contains(lo, hi, lo_open, hi_open, key)
    ]
    in_range.sort(key=lambda x: (x[0], x[1]))
    assert tree.range_sum(0, rng) == sum(i.values[0] for *_, i in in_range)
    got = [n.tie for n in tree.iter_nodes(rng)]
    assert got == [tie for _, tie, __ in in_range]
    assert tree.select(0, target, rng) == _model_select(
        [(item.values[0], item) for *_, item in in_range], target)


composite_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # prefix component
        st.integers(min_value=0, max_value=6),    # range component
        st.integers(min_value=0, max_value=9),    # value
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(composite_ops,
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=-1, max_value=7),
       st.integers(min_value=-1, max_value=7),
       st.booleans(), st.booleans(),
       st.integers(0, 120))
def test_prefix_ranges_match_model(entries, prefix, lo, hi, lo_open,
                                   hi_open, target):
    """Composite keys (p, v): range queries pin the prefix and constrain
    the last component — the shape every join-graph edge query uses."""
    with small_blocks():
        tree = AggregateTree(1, read)
        model = []
        for p, v, value in entries:
            item = Item([value])
            node = tree.insert((p, v), item)
            model.append(((p, v), node.tie, item))
        lo = lo if lo >= 0 else None
        hi = hi if hi >= 0 else None
        rng = cut_points((prefix,), lo, hi, lo_open, hi_open)
        in_range = sorted(
            (key, tie, item) for key, tie, item in model
            if key[0] == prefix and contains(lo, hi, lo_open, hi_open,
                                              key[1])
        )
        assert tree.range_sum(0, rng) == \
            sum(item.values[0] for *_, item in in_range)
        assert [n.tie for n in tree.iter_nodes(rng)] == \
            [tie for _, tie, __ in in_range]
        assert tree.select(0, target, rng) == _model_select(
            [(item.values[0], item) for *_, item in in_range], target)


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_prefix_sum_matches_model(ops):
    with small_blocks():
        tree = AggregateTree(1, read)
        model = []
        for op, key, value in ops:
            if op == "delete" and model:
                idx = (key + value) % len(model)
                _, node, _ = model.pop(idx)
                tree.delete(node)
            else:
                item = Item([value])
                node = tree.insert((key,), item)
                model.append((key, node, item))
        for key, node, item in model:
            expected = sum(
                i.values[0] for k, n, i in model
                if (k, n.tie) <= (key, node.tie)
            )
            assert tree.prefix_sum(0, node) == expected


# ----------------------------------------------------------------------
# differential: composite keys, two slots, every select target
# ----------------------------------------------------------------------
def _model_side(spec, key):
    """-1 when ``key`` sorts entirely below the range ``spec`` — the
    ``(prefix, lo, hi, lo_open, hi_open)`` arguments of its
    :func:`cut_points` — +1 above, 0 in."""
    prefix, lo, hi, lo_open, hi_open = spec
    plen = len(prefix)
    head = key[:plen]
    if head < prefix:
        return -1
    if head > prefix:
        return 1
    if lo is None and hi is None:
        return 0
    value = key[plen]
    if lo is not None and (value < lo or (lo_open and value == lo)):
        return -1
    if hi is not None and (value > hi or (hi_open and value == hi)):
        return 1
    return 0


_component = st.integers(min_value=0, max_value=3)
_bound = st.one_of(st.none(), st.integers(min_value=-1, max_value=4))

differential_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "change",
                         "update_many"]),
        st.tuples(_component, _component, _component),          # key
        # zero-valued items must stay unselectable: make them common
        st.tuples(st.sampled_from([0, 0, 1, 2, 5]),
                  st.sampled_from([0, 3, 7])),                  # values
    ),
    min_size=1, max_size=60,
)

# prefix lengths 0-2; open / closed / absent bounds; lo past hi included
differential_ranges = st.lists(
    st.tuples(st.lists(_component, max_size=2), _bound, _bound,
              st.booleans(), st.booleans()),
    min_size=1, max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(differential_ops, differential_ranges)
def test_range_ops_match_sorted_list_model(ops, ranges):
    """Keys longer than the range's bound (prefixes of length 0-2 over
    3-component keys), two slots, every select target up to one past
    the range sum."""
    with small_blocks():
        tree = AggregateTree(2, read)
        live = []  # (node, item)
        for op, key, values in ops:
            if op == "insert" or not live:
                item = Item(values)
                live.append((tree.insert(key, item), item))
                continue
            pick = (key[0] * 16 + key[1] * 4 + key[2]) % len(live)
            if op == "delete":
                node, _ = live.pop(pick)
                tree.delete(node)
            elif op == "change":
                node, item = live[pick]
                item.values[:] = values
                tree.refresh(node)
            else:
                group = [live[(pick + step * (key[2] + 1)) % len(live)]
                         for step in range(1 + key[1])]
                for offset, (_, item) in enumerate(group):
                    item.values[:] = [(v + offset) % 6 for v in values]
                tree.update_many([node for node, _ in group])
        tree.check_invariants()
        ordered = sorted((node for node, _ in live),
                         key=lambda node: node.sort_key)
        for prefix, lo, hi, lo_open, hi_open in ranges:
            spec = (tuple(prefix), lo, hi, lo_open, hi_open)
            rng = cut_points(*spec)
            in_range = [node for node in ordered
                        if _model_side(spec, node.key) == 0]
            assert list(tree.iter_nodes(rng)) == in_range
            for slot in (0, 1):
                total = sum(node.values[slot] for node in in_range)
                assert tree.range_sum(slot, rng) == total
                # every prefix boundary and the first target past the sum
                for target in range(total + 2):
                    assert tree.select(slot, target, rng) == _model_select(
                        [(n.values[slot], n.item) for n in in_range],
                        target)


# ----------------------------------------------------------------------
# the paper's bound as a count: O(log N) key comparisons per range op
# ----------------------------------------------------------------------
class Counted:
    """A key component that counts every comparison made on it."""

    __slots__ = ("v",)
    comparisons = 0

    def __init__(self, v):
        self.v = v

    def __hash__(self):
        return hash(self.v)

    def _counting(op):
        def compare(self, other):
            if not isinstance(other, Counted):
                return NotImplemented
            Counted.comparisons += 1
            return op(self.v, other.v)
        return compare

    __eq__ = _counting(lambda a, b: a == b)
    __ne__ = _counting(lambda a, b: a != b)
    __lt__ = _counting(lambda a, b: a < b)
    __le__ = _counting(lambda a, b: a <= b)
    __gt__ = _counting(lambda a, b: a > b)
    __ge__ = _counting(lambda a, b: a >= b)
    del _counting


def test_range_ops_cost_logarithmic_key_comparisons():
    """Ranged ``select`` and ``range_sum`` are bisects over the directory
    and one block: at most ``c * ceil(log2 n) + d`` key comparisons per
    call for fixed ``c`` and ``d``, and the worst call grows by a
    constant per doubling of the tree.  (A select that re-summed the
    in-range part at every level made 137 comparisons at 2**8 entries
    and 367 at 2**14, and fails both.)"""
    # a bisect probe compares two sort keys: up to two ``==`` to find the
    # differing component, then the ``<``; a call locates at most two
    # cuts (a bisect of the directory, then of one block each), plus the
    # selected item's own check
    per_level, per_call = 12, 10
    rnd = random.Random(22)
    tree = AggregateTree(1, read)
    worst = []  # (ceil(log2 n), costliest single call) per size
    for exponent in range(8, 15):
        while len(tree) < 2 ** exponent:
            tree.insert((Counted(rnd.randrange(4)),
                         Counted(rnd.randrange(2 ** 20))),
                        Item([rnd.randrange(5)]))
        costliest = 0
        for _ in range(300):
            plen = rnd.randrange(2)
            domain = 2 ** 20 if plen else 4
            lo, hi = sorted(rnd.randrange(-1, domain + 1) for _ in range(2))
            rng = cut_points(
                (Counted(rnd.randrange(4)),) if plen else (),
                None if rnd.random() < 0.2 else Counted(lo),
                None if rnd.random() < 0.2 else Counted(hi),
                rnd.random() < 0.5, rnd.random() < 0.5)
            Counted.comparisons = 0
            total = tree.range_sum(0, rng)
            costliest = max(costliest, Counted.comparisons)
            if total:
                Counted.comparisons = 0
                assert tree.select(0, rnd.randrange(total), rng) is not None
                costliest = max(costliest, Counted.comparisons)
        worst.append((math.ceil(math.log2(len(tree))), costliest))
    for levels, costliest in worst:
        assert costliest <= per_level * levels + per_call, worst
    # one more level per doubling, in the directory or in a block
    for (_, smaller), (_, larger) in zip(worst, worst[1:]):
        assert larger - smaller <= 2 * per_level, worst
