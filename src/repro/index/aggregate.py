"""The aggregate order index (§4.3) as a two-level B+-tree.

An :class:`AggregateTree` keeps ``(key, tie) -> item`` entries in the
order of the flat sort key ``key + (tie,)`` — ``key`` a composite
attribute tuple, the same length for every entry of a tree, ``tie`` a
unique integer — and per *slot* the sums of a per-item value over any
contiguous key range.  An entry reads its item's slot values through the
tree's ``read(item) -> list`` when it is inserted and when its handle is
passed to :meth:`~AggregateTree.refresh` / :meth:`~AggregateTree.update_many`,
and holds them in between, so no query calls back into the items.

The entries live in sorted *blocks*, each two parallel lists (sort keys,
handles) plus one running-sum array per slot; one *directory* level
holds each block's largest sort key and, per slot, the running sum of
block totals.  A ranged query takes the range as its two cut points in
the sort order (:data:`~repro.index.api.Cut`, the only range type), and
finding a cut is a bisect over the directory and one over a block:
``range_sum`` subtracts the prefix sums at the two cuts, and ``select``
— the first in-range item whose running sum exceeds a target, which
drives Algorithm 2 — bisects the directory's running sums, then the
block's (the cumulative-weight walk of Weighted Random Sampling over
Joins).
Updates are lazy: they mark a block stale, and the first query after
them rebuilds the stale blocks and the directory with
``itertools.accumulate``; a lone ``refresh`` of a large block in a
current tree shifts the suffix sums in place instead.  A block splits
past ``2 * max(LOAD, sqrt(n))`` entries and an underfull one merges into
a neighbour, so an operation costs ``O(log n)`` key comparisons plus
``O(sqrt(n))`` C-level list work.

A handle (:class:`TreeNode`) names its block and stays valid across
splits and merges.  A deleted handle is *stale*: ``delete``,
``refresh``, ``update_many`` and ``prefix_sum`` raise
:class:`~repro.errors.IndexKeyError` on it and leave the tree as it was.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, itemgetter
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import IndexKeyError, InvalidArgumentError
from repro.index.api import Cut

__all__ = ["AggregateTree", "TreeNode"]

#: the smallest split threshold is ``2 * LOAD`` entries per block
LOAD = 32


def _overfull(n: int, size: int) -> bool:
    """Whether a block of ``n`` entries in a tree of ``size`` splits:
    past ``2 * max(LOAD, sqrt(size))`` entries."""
    return n > 2 * LOAD and n * n > 4 * size


def _underfull(n: int, size: int) -> bool:
    """Whether it merges into a neighbour: below half of
    ``max(LOAD, sqrt(size))`` entries."""
    return 2 * n < LOAD or 4 * n * n < size


_BLOCK = attrgetter("block")
_ITEM = attrgetter("item")
_NODES = attrgetter("nodes")
_SUMS = attrgetter("sums")
_VALUES = attrgetter("values")
_LAST = itemgetter(-1)


class TreeNode:
    """A node handle.  Treat as opaque outside this module and tests,
    except for ``key``, ``tie``, ``item`` and ``sort_key``."""

    __slots__ = ("key", "tie", "sort_key", "item", "values", "block")

    def __init__(self, key: tuple, tie: int, item: object,
                 values: List[int]):
        self.key = key
        self.tie = tie
        #: ``key + (tie,)``: the total order, as one flat tuple
        self.sort_key = key + (tie,)
        self.item = item
        #: the item's slot values as last read through the tree's reader
        self.values = values
        #: the block holding the entry; None once it is deleted
        self.block: Optional[_Block] = None


class _Block:
    """A leaf: its entries' sort keys and handles in order, and per slot
    the running sums of their values (current unless the tree lists the
    block as stale)."""

    __slots__ = ("sorts", "nodes", "sums")

    def __init__(self, sorts: List[tuple], nodes: List[TreeNode]):
        self.sorts = sorts
        self.nodes = nodes
        self.sums: List[List[int]] = []


class AggregateTree:
    """The aggregate order index.  See module docstring.

    All orderings are by the total sort key ``key + (tie,)``; ``tie``
    defaults to a fresh monotonically increasing integer per tree, so
    replaying an insertion stream ranks equal keys identically — the
    property bit-identical restores rely on.
    """

    def __init__(self, num_slots: int, read: Callable[[object], List[int]]):
        if num_slots < 0:
            raise InvalidArgumentError("num_slots must be >= 0")
        self.num_slots = num_slots
        #: an item's ``num_slots`` values as a fresh list
        self.read = read
        self._size = 0
        self._next_tie = 0
        #: block splits and merges performed over the tree's lifetime
        self.restructures = 0
        self._blocks: List[_Block] = []
        #: each block's largest sort key
        self._maxes: List[tuple] = []
        #: blocks whose running sums are stale
        self._dirty: set = set()
        #: per slot, the running sum of block totals; None while stale
        self._cum: Optional[List[List[int]]] = [[] for _ in range(num_slots)]
        self._slot_of = [itemgetter(slot) for slot in range(num_slots)]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @staticmethod
    def _stale(node: TreeNode) -> IndexKeyError:
        """The error for a deleted handle (it has no block)."""
        return IndexKeyError(
            f"stale handle: node {node.sort_key!r} is not in the tree")

    def total(self, slot: int) -> int:
        """Sum of ``slot`` values over all items."""
        cum = self._cum
        if cum is None:
            cum = self._settle()
        totals = cum[slot]
        return totals[-1] if totals else 0

    # ------------------------------------------------------------------
    # structural updates
    # ------------------------------------------------------------------
    def insert(self, key: tuple, item: object,
               tie: Optional[int] = None) -> TreeNode:
        """Insert ``item`` under composite ``key`` and return its handle.

        ``tie`` defaults to a fresh monotonically increasing integer; pass
        an explicit value only when the caller manages uniqueness itself.
        """
        if tie is None:
            tie = self._next_tie
            self._next_tie += 1
        node = TreeNode(key, tie, item, self.read(item))
        sort_key = node.sort_key
        blocks, maxes = self._blocks, self._maxes
        b = bisect_left(maxes, sort_key)
        if b == len(maxes):        # past every block: the last one grows
            if not blocks:
                blocks.append(_Block([], []))
                maxes.append(sort_key)
            b = len(blocks) - 1
            maxes[b] = sort_key
        node.block = block = blocks[b]
        i = bisect_left(block.sorts, sort_key)
        block.sorts.insert(i, sort_key)
        block.nodes.insert(i, node)
        self._size += 1
        self._dirty.add(block)
        self._cum = None
        if _overfull(len(block.nodes), self._size):
            self._split(b)
        return node

    def delete(self, node: TreeNode) -> None:
        """Remove ``node`` (a handle previously returned by insert)."""
        block = node.block
        if block is None:
            raise self._stale(node)
        sort_key = node.sort_key
        b = bisect_left(self._maxes, sort_key)
        i = bisect_left(block.sorts, sort_key)
        del block.sorts[i]
        del block.nodes[i]
        node.block = None
        self._size -= 1
        self._cum = None
        n = len(block.nodes)
        if not n:
            del self._blocks[b]
            del self._maxes[b]
            self._dirty.discard(block)
            return
        self._dirty.add(block)
        if i == n:
            self._maxes[b] = block.sorts[-1]
        if _underfull(n, self._size) and len(self._blocks) > 1:
            self._merge(b)

    def refresh(self, node: TreeNode) -> None:
        """Re-aggregate after ``node.item``'s slot values changed."""
        block = node.block
        if block is None:
            raise self._stale(node)
        before = node.values
        node.values = after = self.read(node.item)
        cum = self._cum
        if cum is None or len(block.nodes) <= LOAD:
            self._dirty.add(block)
            self._cum = None
            return
        # a large block of a current tree: shift the sums past the node
        # rather than rebuild the block and the directory on the next query
        sort_key = node.sort_key
        b = bisect_left(self._maxes, sort_key)
        i = bisect_left(block.sorts, sort_key)
        for slot, (new, old) in enumerate(zip(after, before)):
            if new != old:
                shift = repeat(new - old)
                sums = block.sums[slot]
                sums[i:] = map(add, sums[i:], shift)
                totals = cum[slot]
                totals[b:] = map(add, totals[b:], shift)

    def update_many(self, nodes) -> None:
        """Refresh a group of handles (any order, duplicates allowed).
        Every handle is checked before any item is read: a stale one
        raises with the tree, held values included, exactly as it was."""
        nodes = list(nodes)
        if len(nodes) <= 1:
            for node in nodes:
                self.refresh(node)
            return
        blocks = list(map(_BLOCK, nodes))
        if not all(blocks):
            raise self._stale(nodes[blocks.index(None)])
        read = self.read
        for node in nodes:
            node.values = read(node.item)
        self._dirty.update(blocks)
        self._cum = None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def find(self, key: tuple) -> Optional[TreeNode]:
        """Return some node with exactly this composite key, else None."""
        b = bisect_left(self._maxes, key)
        if b == len(self._maxes):
            return None
        block = self._blocks[b]
        node = block.nodes[bisect_left(block.sorts, key)]
        return node if node.key == key else None

    def iter_nodes(self, rng: Optional[Cut] = None
                   ) -> Iterator[TreeNode]:
        """Nodes in key order, restricted to ``rng`` when given."""
        blocks = self._blocks
        if rng is None:
            return chain.from_iterable(map(_NODES, blocks))
        lo, hi = rng
        b, i = self._locate(lo)
        e, j = self._locate(hi)
        if (e, j) <= (b, i):
            return iter(())
        if b == e:
            return iter(blocks[b].nodes[i:j])
        parts = [blocks[b].nodes[i:]]
        parts += map(_NODES, blocks[b + 1:e])
        if j:
            parts.append(blocks[e].nodes[:j])
        return chain.from_iterable(parts)

    def iter_items(self, rng: Optional[Cut] = None
                   ) -> Iterator[object]:
        """The items of :meth:`iter_nodes`."""
        return map(_ITEM, self.iter_nodes(rng))

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def range_sum(self, slot: int, rng: Optional[Cut] = None) -> int:
        """Sum of ``slot`` values over items whose key lies in ``rng``."""
        if rng is None:
            return self.total(slot)
        if self._cum is None:
            self._settle()
        lo, hi = rng
        total = self._sum_before(slot, hi) - self._sum_before(slot, lo)
        # an empty interval (lo past hi) puts the upper cut first
        return total if total > 0 else 0

    def select(self, slot: int, target: int, rng: Optional[Cut] = None
               ) -> Optional[Tuple[object, int]]:
        """First in-range item whose running prefix sum exceeds ``target``.

        Returns ``(item, prefix)`` where ``prefix`` is the sum of ``slot``
        values of all in-range items strictly before the returned one, so
        ``prefix <= target < prefix + value(item)``.  Returns None when
        ``target`` is not smaller than the range sum.  Items whose value is
        zero are never selected.
        """
        if target < 0:
            raise InvalidArgumentError("select target must be >= 0")
        cum = self._cum
        if cum is None:
            cum = self._settle()
        # a ranged select is the unbounded one shifted by what sorts
        # below the range: the hit cannot lie below it (those items end
        # at ``below <= target``), so it is in the range or past it
        if rng is None:
            below, hi = 0, None
        else:
            lo, hi = rng
            below = self._sum_before(slot, lo)
            target += below
        totals = cum[slot]
        b = bisect_right(totals, target)
        if b == len(totals):
            return None
        base = totals[b - 1] if b else 0
        block = self._blocks[b]
        sums = block.sums[slot]
        i = bisect_right(sums, target - base)
        if hi is not None and not block.sorts[i] < hi:
            return None
        if i:
            base += sums[i - 1]
        return block.nodes[i].item, base - below

    def prefix_sum(self, slot: int, node: TreeNode,
                   inclusive: bool = True) -> int:
        """Sum of ``slot`` values over all nodes sorting <= ``node``.

        With ``inclusive=False`` the node's own value is excluded.  This is
        the whole-index prefix used to place a vertex's join-number block.
        """
        block = node.block
        if block is None:
            raise self._stale(node)
        cum = self._cum
        if cum is None:
            cum = self._settle()
        sort_key = node.sort_key
        b = bisect_left(self._maxes, sort_key)
        i = bisect_left(block.sorts, sort_key) + inclusive
        total = cum[slot][b - 1] if b else 0
        return total + block.sums[slot][i - 1] if i else total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _locate(self, point: tuple) -> Tuple[int, int]:
        """``(block, offset)`` of the first entry whose sort key is not
        below the cut point ``point``, ``(len(blocks), 0)`` past the end.
        No point is longer than the sort keys, so comparing sort keys
        with it compares their heads."""
        b = bisect_left(self._maxes, point)
        if b == len(self._maxes):
            return b, 0
        return b, bisect_left(self._blocks[b].sorts, point)

    def _sum_before(self, slot: int, point: tuple) -> int:
        """Sum of ``slot`` values over the entries before the cut point
        :meth:`_locate` finds (inlined: this is the ranged select's
        first step); the tree must be current."""
        maxes = self._maxes
        b = bisect_left(maxes, point)
        total = self._cum[slot][b - 1] if b else 0
        if b == len(maxes):
            return total
        block = self._blocks[b]
        i = bisect_left(block.sorts, point)
        return total + block.sums[slot][i - 1] if i else total

    def _settle(self) -> List[List[int]]:
        """Rebuild the stale blocks' running sums and the directory's."""
        slot_of = self._slot_of
        for block in self._dirty:
            values = list(map(_VALUES, block.nodes))
            block.sums = [list(accumulate(map(get, values)))
                          for get in slot_of]
        self._dirty.clear()
        sums = list(map(_SUMS, self._blocks))
        self._cum = cum = [list(accumulate(map(_LAST, map(get, sums))))
                           for get in slot_of]
        return cum

    def _split(self, b: int) -> None:
        """Move the upper half of block ``b`` into a new block after it."""
        block = self._blocks[b]
        half = len(block.nodes) // 2
        right = _Block(block.sorts[half:], block.nodes[half:])
        del block.sorts[half:]
        del block.nodes[half:]
        for node in right.nodes:
            node.block = right
        self._blocks.insert(b + 1, right)
        self._maxes.insert(b, block.sorts[-1])
        self._dirty.add(right)
        self.restructures += 1

    def _merge(self, b: int) -> None:
        """Fold underfull block ``b`` into its right neighbour (the left
        one for the last block), splitting the result if it overflows."""
        blocks = self._blocks
        block = blocks.pop(b)
        if b < len(blocks):
            into = blocks[b]
            into.sorts[:0] = block.sorts
            into.nodes[:0] = block.nodes
        else:
            b -= 1
            into = blocks[b]
            into.sorts += block.sorts
            into.nodes += block.nodes
        del self._maxes[b]      # ``into``'s maximum is the larger one
        for node in block.nodes:
            node.block = into
        self._dirty.discard(block)
        self._dirty.add(into)
        self.restructures += 1
        if _overfull(len(into.nodes), self._size):
            self._split(b)

    # ------------------------------------------------------------------
    # test support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify order within and across blocks, the directory against
        the block maxima, handle back-links, the block-size floor (so at
        most ``2 * len(self) / LOAD + 1`` blocks), and the held values
        and running sums against the reader (tests)."""
        blocks = self._blocks
        assert len(self._maxes) == len(blocks), "directory length"
        sorts = [sort_key for block in blocks for sort_key in block.sorts]
        assert sorts == sorted(sorts) and len(set(sorts)) == len(sorts), \
            "order violated"
        assert len(set(map(len, sorts))) <= 1, "keys of mixed lengths"
        assert len(sorts) == self._size, "size mismatch"
        for block, top in zip(blocks, self._maxes):
            assert block.nodes, "empty block"
            if len(blocks) > 1:
                assert 2 * len(block.nodes) >= LOAD, "underfull block"
            assert block.sorts[-1] == top, "directory max stale"
            assert block.sorts == [n.sort_key for n in block.nodes], \
                "sort keys out of step with handles"
            for node in block.nodes:
                assert node.block is block, "handle names another block"
                assert node.values == self.read(node.item), \
                    "held values stale"
            if block not in self._dirty:
                assert block.sums == [
                    list(accumulate(n.values[slot] for n in block.nodes))
                    for slot in range(self.num_slots)], "running sums stale"
        if self._cum is not None:
            assert not self._dirty, "directory current over stale blocks"
            assert self._cum == [
                list(accumulate(block.sums[slot][-1] for block in blocks))
                for slot in range(self.num_slots)], "directory sums stale"
