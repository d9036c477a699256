"""Aggregate AVL tree tests: unit behaviour + model-based property tests.

The model is a plain Python list of (key, tie, value) kept sorted; every
tree query (range_sum, select, prefix_sum, iteration) is cross-checked
against brute force over the model after random interleavings of insert /
delete / value-change operations, the batch entry points (``update_many``,
``prefix_many``) included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexKeyError
from repro.index.avl import AggregateTree, IndexRange
from repro.query.intervals import Interval


class Item:
    """A mutable item with per-slot values (stands in for a vertex)."""

    def __init__(self, values):
        self.values = list(values)


def value_of(item, slot):
    return item.values[slot]


class TestUnit:
    def test_empty(self):
        tree = AggregateTree(1, value_of)
        assert len(tree) == 0
        assert tree.total(0) == 0
        assert tree.select(0, 0) is None
        assert list(tree.iter_items()) == []

    def test_insert_and_total(self):
        tree = AggregateTree(1, value_of)
        for v in (3, 1, 4):
            tree.insert((v,), Item([v]))
        assert tree.total(0) == 8
        assert [i.values[0] for i in tree.iter_items()] == [1, 3, 4]

    def test_duplicate_keys_ordered_by_tie(self):
        tree = AggregateTree(1, value_of)
        a = tree.insert((5,), Item([1]))
        b = tree.insert((5,), Item([2]))
        assert a.tie < b.tie
        assert tree.total(0) == 3

    def test_find(self):
        tree = AggregateTree(0, value_of)
        tree.insert((2,), "two")
        tree.insert((7,), "seven")
        assert tree.find((7,)).item == "seven"
        assert tree.find((3,)) is None

    def test_refresh_propagates(self):
        tree = AggregateTree(1, value_of)
        item = Item([5])
        node = tree.insert((1,), item)
        tree.insert((2,), Item([10]))
        item.values[0] = 50
        tree.refresh(node)
        assert tree.total(0) == 60
        tree.check_invariants()

    def test_delete_by_handle(self):
        tree = AggregateTree(1, value_of)
        nodes = [tree.insert((v,), Item([v])) for v in range(10)]
        tree.delete(nodes[5])
        assert tree.total(0) == 45 - 5
        assert len(tree) == 9
        tree.check_invariants()

    def test_handles_survive_other_deletions(self):
        tree = AggregateTree(1, value_of)
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

    def test_select_skips_zero_weight(self):
        tree = AggregateTree(1, value_of)
        tree.insert((1,), Item([0]))
        tree.insert((2,), Item([4]))
        tree.insert((3,), Item([0]))
        item, prefix = tree.select(0, 0)
        assert item.values[0] == 4 and prefix == 0
        assert tree.select(0, 4) is None

    def test_select_target_bounds(self):
        tree = AggregateTree(1, value_of)
        tree.insert((1,), Item([3]))
        with pytest.raises(ValueError):
            tree.select(0, -1)

    def test_prefix_sum(self):
        tree = AggregateTree(1, value_of)
        nodes = [tree.insert((v,), Item([v + 1])) for v in range(20)]
        for k, node in enumerate(nodes):
            expect = sum(v + 1 for v in range(k + 1))
            assert tree.prefix_sum(0, node) == expect
            assert tree.prefix_sum(0, node, inclusive=False) == \
                expect - (k + 1)

    def test_range_queries_with_prefix(self):
        tree = AggregateTree(1, value_of)
        for a in range(3):
            for b in range(4):
                tree.insert((a, b), Item([1]))
        rng = IndexRange((1,), Interval(1, 2))
        assert tree.range_sum(0, rng) == 2
        items = list(tree.iter_nodes(rng))
        assert [n.key for n in items] == [(1, 1), (1, 2)]

    def test_multi_slot(self):
        tree = AggregateTree(2, value_of)
        tree.insert((1,), Item([2, 30]))
        tree.insert((2,), Item([5, 70]))
        assert tree.total(0) == 7
        assert tree.total(1) == 100

    def test_double_delete_raises(self):
        tree = AggregateTree(1, value_of)
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
        """A deleted handle used to drop the whole tree on a second
        ``delete`` (``root = None``, ``total() == 0``) and to be a silent
        no-op on ``refresh``; every handle-taking method now refuses it."""
        tree = AggregateTree(1, value_of)
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
            lambda: tree.prefix_many(0, [live, stale]),
        ):
            with pytest.raises(IndexKeyError, match="stale handle"):
                misuse()
            assert len(tree) == 2
            assert tree.total(0) == sum(n.item.values[0] for n in nodes)
            tree.check_invariants()

    def test_deleted_only_node_is_stale_too(self):
        tree = AggregateTree(1, value_of)
        node = tree.insert((1,), Item([4]))
        tree.delete(node)
        with pytest.raises(IndexKeyError):
            tree.delete(node)
        assert len(tree) == 0 and tree.total(0) == 0
        other = tree.insert((1,), Item([6]))
        with pytest.raises(IndexKeyError):
            tree.refresh(node)
        assert tree.prefix_sum(0, other) == 6


# ----------------------------------------------------------------------
# model-based property tests
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "change",
                         "update_many", "prefix_many"]),
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
    tree = AggregateTree(1, value_of)
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
                    assert tree.prefix_many(0, handles, inclusive) == [
                        sum(i.values[0] for k, n, i in model
                            if (k, n.tie) < (gk, gn.tie)
                            or (inclusive and n is gn))
                        for gk, gn, _ in group
                    ]
    tree.check_invariants()
    assert len(tree) == len(model)
    assert tree.total(0) == sum(i.values[0] for _, __, i in model)

    lo, hi, lo_open, hi_open = rng_spec
    interval = Interval(lo, hi, lo_open, hi_open)
    rng = IndexRange((), interval)
    in_range = [
        (key, node.tie, item) for key, node, item in model
        if interval.contains(key)
    ]
    in_range.sort(key=lambda x: (x[0], x[1]))
    # range_sum
    assert tree.range_sum(0, rng) == sum(i.values[0] for *_ , i in in_range)
    # iteration order
    got = [n.tie for n in tree.iter_nodes(rng)]
    assert got == [tie for _, tie, __ in in_range]
    # select: walk the prefix sums by brute force
    running = 0
    expected = None
    for key, tie, item in in_range:
        if running <= target < running + item.values[0]:
            expected = (item, running)
            break
        running += item.values[0]
    assert tree.select(0, target, rng) == expected


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
    tree = AggregateTree(1, value_of)
    model = []
    for p, v, value in entries:
        item = Item([value])
        node = tree.insert((p, v), item)
        model.append(((p, v), node.tie, item))
    interval = Interval(lo if lo >= 0 else None, hi if hi >= 0 else None,
                        lo_open, hi_open)
    rng = IndexRange((prefix,), interval)
    in_range = sorted(
        (key, tie, item) for key, tie, item in model
        if key[0] == prefix and interval.contains(key[1])
    )
    assert tree.range_sum(0, rng) == \
        sum(item.values[0] for *_, item in in_range)
    assert [n.tie for n in tree.iter_nodes(rng)] == \
        [tie for _, tie, __ in in_range]
    running = 0
    expected = None
    for key, tie, item in in_range:
        if running <= target < running + item.values[0]:
            expected = (item, running)
            break
        running += item.values[0]
    assert tree.select(0, target, rng) == expected


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_prefix_sum_matches_model(ops):
    tree = AggregateTree(1, value_of)
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
