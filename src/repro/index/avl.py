"""Aggregate AVL tree: the paper's aggregate tree index (§4.3).

An :class:`AggregateTree` is an AVL tree over ``(key, tie)`` pairs — ``key``
is a composite attribute tuple (possibly shared by several items), ``tie`` a
unique integer that makes the sort key total.  Each node additionally
maintains, for each of a fixed number of *slots*, the sum of a per-item
numeric value over its subtree.  The items themselves (join-graph vertices)
own their weights: a node reads all of its item's slot values in one call
of the tree's ``read(item) -> list`` reader — compiled once per index by
its owner; the join graph reads a vertex's ``w_out`` toward the index's
neighbour and, in the designated index, its ``w_full`` — when it is
inserted and whenever its handle is passed to :meth:`refresh` /
:meth:`update_many`, which re-aggregate the ``O(log n)`` path to the root.
The node holds those values in between, so no query, rotation or
re-aggregation calls back into the items.

Supported queries (each one or two root-to-leaf walks, ``O(log n)`` key
comparisons — the bound of the paper's index):

* ``total(slot)`` — sum over the whole tree;
* ``range_sum(slot, rng)`` — sum over a contiguous key range;
* ``select(slot, target, rng)`` — the first item (in key order, within the
  range) whose running prefix sum exceeds ``target``, together with the
  prefix sum before it: this is the ``lower_bound``-style operation that
  drives the join-number mapping (Algorithm 2);
* ``prefix_sum(node)`` — sum over all keys up to a node handle, used to
  locate the delta-view subdomain after an insertion (§4.5).

Nodes carry parent pointers so that handle-based deletion and refresh need
no search.  Deletion splices the successor *node* (not its contents) into
the deleted node's position, so outstanding handles to other nodes stay
valid — the Python analogue of the paper's embedded tree pointers.  A
handle that has been deleted is *stale*: passing it back to
:meth:`~AggregateTree.delete`, :meth:`~AggregateTree.refresh`,
:meth:`~AggregateTree.update_many` or :meth:`~AggregateTree.prefix_sum`
raises :class:`~repro.errors.IndexKeyError` and leaves the tree as it was.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import IndexKeyError, InvalidArgumentError
from repro.index.api import IndexRange

__all__ = ["AggregateTree", "IndexRange", "TreeNode"]

_EVERYTHING = IndexRange()


class TreeNode:
    """A node handle.  Treat as opaque outside this module and tests,
    except for ``key``, ``tie``, ``item`` and the derived ``sort_key``."""

    __slots__ = ("key", "tie", "item", "values",
                 "left", "right", "parent", "height", "sums")

    def __init__(self, key: tuple, tie: int, item: object,
                 values: List[int]):
        self.key = key
        self.tie = tie
        self.item = item
        #: the item's slot values as last read through the tree's reader
        self.values = values
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.parent: Optional[TreeNode] = None
        self.height = 1
        self.sums: List[int] = list(values)

    @property
    def sort_key(self) -> tuple:
        return (self.key, self.tie)


class AggregateTree:
    """The aggregate AVL index.  See module docstring.

    All orderings are by the total sort key ``(key, tie)``; ``tie``
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
        #: rebalancing rotations performed over the tree's lifetime
        self.rotations = 0
        self._root: Optional[TreeNode] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> Optional[TreeNode]:
        return self._root

    @staticmethod
    def _stale(node: TreeNode) -> IndexKeyError:
        """The error for a handle that is not in the tree.  A deleted
        node is detached — no parent, and not the root — which the
        handle-taking methods test inline (refresh is the hot path)."""
        return IndexKeyError(
            f"stale handle: node {node.sort_key!r} is not in the tree")

    def total(self, slot: int) -> int:
        """Sum of ``slot`` values over all items."""
        if self._root is None:
            return 0
        return self._root.sums[slot]

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
        self._size += 1
        if self._root is None:
            self._root = node
            return node
        cur = self._root
        while True:
            if node.sort_key < cur.sort_key:
                if cur.left is None:
                    cur.left = node
                    node.parent = cur
                    break
                cur = cur.left
            else:
                if cur.right is None:
                    cur.right = node
                    node.parent = cur
                    break
                cur = cur.right
        self._rebalance_up(node.parent)
        return node

    def delete(self, node: TreeNode) -> None:
        """Remove ``node`` (a handle previously returned by insert)."""
        if node.parent is None and node is not self._root:
            raise self._stale(node)
        self._size -= 1
        if node.left is not None and node.right is not None:
            # splice the in-order successor into node's position, keeping
            # every other node's handle valid
            succ = node.right
            while succ.left is not None:
                succ = succ.left
            fix_from = succ if succ.parent is node else succ.parent
            # detach succ (it has no left child)
            self._replace_in_parent(succ, succ.right)
            # move succ into node's position
            succ.left = node.left
            if succ.left is not None:
                succ.left.parent = succ
            succ.right = node.right
            if succ.right is not None:
                succ.right.parent = succ
            self._replace_in_parent(node, succ, adopt=True)
            succ.height = node.height
            self._rebalance_up(fix_from)
        else:
            child = node.left if node.left is not None else node.right
            parent = node.parent
            self._replace_in_parent(node, child)
            self._rebalance_up(parent)
        node.left = node.right = node.parent = None

    def refresh(self, node: TreeNode) -> None:
        """Re-aggregate after ``node.item``'s slot values changed."""
        if node.parent is None and node is not self._root:
            raise self._stale(node)
        node.values = self.read(node.item)
        cur: Optional[TreeNode] = node
        while cur is not None:
            self._pull(cur)
            cur = cur.parent

    def update_many(self, nodes) -> None:
        """Fused refresh: nearby nodes share most of their root paths, so
        collect every affected node once and re-aggregate children before
        parents instead of walking each full path to the root.  ``nodes``
        may be in any order and may contain duplicates.  Every handle is
        checked before any item is read: a stale one raises with the
        tree, cached values included, exactly as it was."""
        nodes = list(nodes)
        if len(nodes) <= 1:
            for node in nodes:
                self.refresh(node)
            return
        root = self._root
        for node in nodes:
            if node.parent is None and node is not root:
                raise self._stale(node)
        read = self.read
        pending = set()  # the handles and their ancestors
        for node in nodes:
            node.values = read(node.item)
            cur = node
            while cur is not None and cur not in pending:
                pending.add(cur)
                cur = cur.parent
        # one walk down from the root through the pending nodes lists
        # every parent before its children; pull in the reverse order
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            if node.left in pending:
                stack.append(node.left)
            if node.right in pending:
                stack.append(node.right)
        pull = self._pull
        for node in reversed(order):
            pull(node)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def find(self, key: tuple) -> Optional[TreeNode]:
        """Return some node with exactly this composite key, else None."""
        cur = self._root
        while cur is not None:
            if key == cur.key:
                return cur
            if key < cur.key:
                cur = cur.left
            else:
                cur = cur.right
        return None

    def iter_nodes(self, rng: Optional[IndexRange] = None
                   ) -> Iterator[TreeNode]:
        """Yield nodes in key order, restricted to ``rng`` when given:
        one descent to the first node not below the range, then an
        in-order walk that ends at the first node above it."""
        if rng is None:
            rng = _EVERYTHING
        lo_key, lo_open = rng.lo_key, rng.lo_open
        hi_key, hi_open = rng.hi_key, rng.hi_open
        n = len(lo_key)
        stack: List[TreeNode] = []
        node = self._root
        while node is not None:
            head = node.key[:n]
            if head < lo_key or (lo_open and head == lo_key):
                node = node.right
            else:
                stack.append(node)
                node = node.left
        n = len(hi_key)
        while stack:
            node = stack.pop()
            head = node.key[:n]
            if head > hi_key or (hi_open and head == hi_key):
                return
            yield node
            node = node.right
            while node is not None:
                stack.append(node)
                node = node.left

    def iter_items(self, rng: Optional[IndexRange] = None
                   ) -> Iterator[object]:
        for node in self.iter_nodes(rng):
            yield node.item

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def range_sum(self, slot: int, rng: Optional[IndexRange] = None) -> int:
        """Sum of ``slot`` values over items whose key lies in ``rng``."""
        if rng is None:
            return self.total(slot)
        total = (self._sum_before(slot, rng.hi_key, not rng.hi_open)
                 - self._sum_before(slot, rng.lo_key, rng.lo_open))
        # an empty interval (lo past hi) puts the upper cut first
        return total if total > 0 else 0

    def _sum_before(self, slot: int, bound: tuple, inclusive: bool) -> int:
        """Sum of ``slot`` values over the nodes whose key's leading
        ``len(bound)`` components sort before ``bound`` (or equal it,
        when ``inclusive``): one root-to-leaf walk."""
        n = len(bound)
        total = 0
        node = self._root
        while node is not None:
            head = node.key[:n]
            if head < bound or (inclusive and head == bound):
                left = node.left
                if left is not None:
                    total += left.sums[slot]
                total += node.values[slot]
                node = node.right
            else:
                node = node.left
        return total

    def select(self, slot: int, target: int,
               rng: Optional[IndexRange] = None
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
        # a ranged select is the unbounded one shifted by what sorts
        # below the range: the hit cannot lie below it (those items end
        # at ``below <= target``), so it is in the range or past it
        below = (0 if rng is None
                 else self._sum_before(slot, rng.lo_key, rng.lo_open))
        target += below
        node = self._root
        consumed = 0
        while node is not None:
            left = node.left
            left_sum = left.sums[slot] if left is not None else 0
            if target < left_sum:
                node = left
                continue
            target -= left_sum
            consumed += left_sum
            value = node.values[slot]
            if target < value:
                if rng is not None:
                    hi_key = rng.hi_key
                    head = node.key[:len(hi_key)]
                    if head > hi_key or (rng.hi_open and head == hi_key):
                        return None
                return node.item, consumed - below
            target -= value
            consumed += value
            node = node.right
        return None

    def prefix_sum(self, slot: int, node: TreeNode,
                   inclusive: bool = True) -> int:
        """Sum of ``slot`` values over all nodes sorting <= ``node``.

        With ``inclusive=False`` the node's own value is excluded.  This is
        the whole-index prefix used to place a vertex's join-number block.
        """
        if node.parent is None and node is not self._root:
            raise self._stale(node)
        total = 0
        if node.left is not None:
            total += node.left.sums[slot]
        if inclusive:
            total += node.values[slot]
        cur = node
        while cur.parent is not None:
            if cur is cur.parent.right:
                total += cur.parent.values[slot]
                if cur.parent.left is not None:
                    total += cur.parent.left.sums[slot]
            cur = cur.parent
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pull(self, node: TreeNode) -> None:
        left, right = node.left, node.right
        lh = left.height if left is not None else 0
        rh = right.height if right is not None else 0
        node.height = (lh if lh > rh else rh) + 1
        sums = node.sums
        for slot, total in enumerate(node.values):
            if left is not None:
                total += left.sums[slot]
            if right is not None:
                total += right.sums[slot]
            sums[slot] = total

    def _replace_in_parent(self, node: TreeNode,
                           replacement: Optional[TreeNode],
                           adopt: bool = False) -> None:
        parent = node.parent
        if replacement is not None:
            replacement.parent = parent
        if parent is None:
            self._root = replacement
        elif parent.left is node:
            parent.left = replacement
        else:
            parent.right = replacement
        if adopt:
            node.parent = None

    @staticmethod
    def _height(node: Optional[TreeNode]) -> int:
        return node.height if node is not None else 0

    def _balance(self, node: TreeNode) -> int:
        return self._height(node.left) - self._height(node.right)

    def _rotate_left(self, node: TreeNode) -> TreeNode:
        self.rotations += 1
        pivot = node.right
        assert pivot is not None
        self._replace_in_parent(node, pivot)
        node.right = pivot.left
        if node.right is not None:
            node.right.parent = node
        pivot.left = node
        node.parent = pivot
        self._pull(node)
        self._pull(pivot)
        return pivot

    def _rotate_right(self, node: TreeNode) -> TreeNode:
        self.rotations += 1
        pivot = node.left
        assert pivot is not None
        self._replace_in_parent(node, pivot)
        node.left = pivot.right
        if node.left is not None:
            node.left.parent = node
        pivot.right = node
        node.parent = pivot
        self._pull(node)
        self._pull(pivot)
        return pivot

    def _rebalance_up(self, node: Optional[TreeNode]) -> None:
        while node is not None:
            self._pull(node)
            balance = self._balance(node)
            if balance > 1:
                if self._balance(node.left) < 0:
                    self._rotate_left(node.left)
                node = self._rotate_right(node)
            elif balance < -1:
                if self._balance(node.right) > 0:
                    self._rotate_right(node.right)
                node = self._rotate_left(node)
            node = node.parent

    # ------------------------------------------------------------------
    # test support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify BST order, AVL balance, parent links, and the cached
        values and sums against the reader (tests)."""

        def walk(node: Optional[TreeNode]) -> Tuple[int, int, list]:
            if node is None:
                return 0, 0, [0] * self.num_slots
            lh, lc, ls = walk(node.left)
            rh, rc, rs = walk(node.right)
            assert abs(lh - rh) <= 1, "AVL balance violated"
            assert node.height == max(lh, rh) + 1, "height stale"
            if node.left is not None:
                assert node.left.parent is node, "parent link broken (L)"
                assert node.left.sort_key < node.sort_key, "order violated"
            if node.right is not None:
                assert node.right.parent is node, "parent link broken (R)"
                assert node.right.sort_key > node.sort_key, "order violated"
            values = self.read(node.item)
            assert node.values == values, "cached values stale"
            expect = [l + r + v for l, r, v in zip(ls, rs, values)]
            assert node.sums == expect, "aggregate sums stale"
            return max(lh, rh) + 1, lc + rc + 1, expect

        if self._root is not None:
            assert self._root.parent is None
            _, count, _ = walk(self._root)
            assert count == self._size, "size mismatch"
        else:
            assert self._size == 0
