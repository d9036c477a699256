"""Aggregate AVL tree tests: unit behaviour + model-based property tests.

The model is a plain Python list of (key, tie, value) kept sorted; every
tree query (range_sum, select, prefix_sum, iteration) is cross-checked
against brute force over the model after random interleavings of insert /
delete / value-change operations, the batch entry point ``update_many``
and prefix sums over a group of handles included.

Two more oracles guard the one-descent range operations: the recursive
``select`` / ``_range_sum`` / ``iter_nodes`` they replaced, kept here as a
reference and driven differentially, and a comparison-counting key type
that pins the paper's ``O(log N)`` bound as a count no box can blur.
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


def read(item):
    return list(item.values)


class TestUnit:
    def test_empty(self):
        tree = AggregateTree(1, read)
        assert len(tree) == 0
        assert tree.total(0) == 0
        assert tree.select(0, 0) is None
        assert list(tree.iter_items()) == []

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

    def test_find(self):
        tree = AggregateTree(0, lambda item: [])
        tree.insert((2,), "two")
        tree.insert((7,), "seven")
        assert tree.find((7,)).item == "seven"
        assert tree.find((3,)) is None

    def test_refresh_propagates(self):
        tree = AggregateTree(1, read)
        item = Item([5])
        node = tree.insert((1,), item)
        tree.insert((2,), Item([10]))
        item.values[0] = 50
        tree.refresh(node)
        assert tree.total(0) == 60
        tree.check_invariants()

    def test_delete_by_handle(self):
        tree = AggregateTree(1, read)
        nodes = [tree.insert((v,), Item([v])) for v in range(10)]
        tree.delete(nodes[5])
        assert tree.total(0) == 45 - 5
        assert len(tree) == 9
        tree.check_invariants()

    def test_handles_survive_other_deletions(self):
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
        rng = IndexRange((1,), 1, 2)
        assert tree.range_sum(0, rng) == 2
        items = list(tree.iter_nodes(rng))
        assert [n.key for n in items] == [(1, 1), (1, 2)]

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
        """A deleted handle used to drop the whole tree on a second
        ``delete`` (``root = None``, ``total() == 0``) and to be a silent
        no-op on ``refresh``; every handle-taking method now refuses it."""
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
        # nodes hold their items' values: a refused batch must not have
        # read any of them, or the tree would be half-updated — new
        # values cached on ``live``, its ancestors' sums still old
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


# ----------------------------------------------------------------------
# model-based property tests
# ----------------------------------------------------------------------
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

    lo, hi, lo_open, hi_open = rng_spec
    interval = Interval(lo, hi, lo_open, hi_open)
    rng = IndexRange((), lo, hi, lo_open, hi_open)
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
    tree = AggregateTree(1, read)
    model = []
    for p, v, value in entries:
        item = Item([value])
        node = tree.insert((p, v), item)
        model.append(((p, v), node.tie, item))
    interval = Interval(lo if lo >= 0 else None, hi if hi >= 0 else None,
                        lo_open, hi_open)
    rng = IndexRange((prefix,), interval.lo, interval.hi, lo_open, hi_open)
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
# differential: the recursive range operations these replaced
# ----------------------------------------------------------------------
def _ref_side(rng, key):
    """-1 when ``key`` sorts entirely below the range, +1 above, 0 in."""
    plen = len(rng.prefix)
    head = key[:plen]
    if head < rng.prefix:
        return -1
    if head > rng.prefix:
        return 1
    if rng.lo is None and rng.hi is None:
        return 0
    value = key[plen]
    if rng.lo is not None and (
            value < rng.lo or (rng.lo_open and value == rng.lo)):
        return -1
    if rng.hi is not None and (
            value > rng.hi or (rng.hi_open and value == rng.hi)):
        return 1
    return 0


def _ref_range_sum(tree, node, slot, rng, lo_done=False, hi_done=False):
    if node is None:
        return 0
    if lo_done and hi_done:
        return node.sums[slot]
    side = _ref_side(rng, node.key)
    if side < 0:
        return _ref_range_sum(tree, node.right, slot, rng, lo_done, hi_done)
    if side > 0:
        return _ref_range_sum(tree, node.left, slot, rng, lo_done, hi_done)
    left = _ref_range_sum(tree, node.left, slot, rng, lo_done, True)
    right = _ref_range_sum(tree, node.right, slot, rng, True, hi_done)
    return left + tree.read(node.item)[slot] + right


def _ref_select(tree, slot, target, rng):
    """O(log^2 n): re-sums the in-range left subtree at every level."""
    node = tree.root
    lo_done = hi_done = False
    consumed = 0
    while node is not None:
        side = _ref_side(rng, node.key)
        if side < 0:
            node = node.right
            continue
        if side > 0:
            node = node.left
            continue
        left_sum = _ref_range_sum(tree, node.left, slot, rng, lo_done, True)
        if target < left_sum:
            node = node.left
            hi_done = True
            continue
        target -= left_sum
        consumed += left_sum
        value = tree.read(node.item)[slot]
        if target < value:
            return node.item, consumed
        target -= value
        consumed += value
        node = node.right
        lo_done = True
    return None


def _ref_iter_nodes(tree, rng):
    stack = [(tree.root, False)] if tree.root is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        side = _ref_side(rng, node.key)
        if side < 0:
            if node.right is not None:
                stack.append((node.right, False))
        elif side > 0:
            if node.left is not None:
                stack.append((node.left, False))
        else:
            if node.right is not None:
                stack.append((node.right, False))
            stack.append((node, True))
            if node.left is not None:
                stack.append((node.left, False))


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
def test_one_descent_range_ops_match_recursive_reference(ops, ranges):
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
    for prefix, lo, hi, lo_open, hi_open in ranges:
        rng = IndexRange(tuple(prefix), lo, hi, lo_open, hi_open)
        assert [n.tie for n in tree.iter_nodes(rng)] == \
            [n.tie for n in _ref_iter_nodes(tree, rng)]
        for slot in (0, 1):
            total = _ref_range_sum(tree, tree.root, slot, rng)
            assert tree.range_sum(slot, rng) == total
            # every prefix boundary and the first target past the sum
            for target in range(total + 2):
                assert tree.select(slot, target, rng) == \
                    _ref_select(tree, slot, target, rng)


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
    """Ranged ``select`` and ``range_sum`` are root-to-leaf walks: at most
    ``c * height`` key comparisons per call for one fixed ``c``, and the
    worst call grows by a constant per doubling of the tree.  (The
    recursive ``select`` re-summed a subtree at every level — 137
    comparisons at 2**8 entries, 367 at 2**14 — and fails both.)"""
    # a visited node costs one tuple ``<`` (up to two ``==`` to find the
    # differing component, then the ``<``) and at most one tuple ``==``;
    # a call makes at most two walks, plus the selected item's own check
    per_level, per_call = 10, 5
    rnd = random.Random(22)
    tree = AggregateTree(1, read)
    worst = []  # (height, costliest single call) per size
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
            rng = IndexRange(
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
        worst.append((tree.root.height, costliest))
    for height, costliest in worst:
        assert costliest <= per_level * height + per_call, worst
    # an AVL tree gains at most two levels per doubling
    for (_, smaller), (_, larger) in zip(worst, worst[1:]):
        assert larger - smaller <= 2 * per_level, worst
