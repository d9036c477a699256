"""Aggregate AVL tree: the paper's aggregate tree index (§4.3).

An :class:`AggregateTree` is an AVL tree over ``(key, tie)`` pairs — ``key``
is a composite attribute tuple (possibly shared by several items), ``tie`` a
unique integer that makes the sort key total.  Each node additionally
maintains, for each of a fixed number of *slots*, the sum of a per-item
numeric value over its subtree.  Values are read through a ``value_of(item,
slot)`` callback so the items themselves (join-graph vertices) own their
weights; when an item's weight changes, calling :meth:`refresh`
on its node handle re-aggregates the ``O(log n)`` path to the root.

Supported queries (all logarithmic):

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
from repro.index.api import EVERYTHING as _EVERYTHING, IndexRange

__all__ = ["AggregateTree", "IndexRange", "TreeNode"]


class TreeNode:
    """A node handle.  Treat as opaque outside this module and tests,
    except for ``key``, ``tie``, ``item`` and the derived ``sort_key``."""

    __slots__ = ("key", "tie", "item",
                 "left", "right", "parent", "height", "sums")

    def __init__(self, key: tuple, tie: int, item: object, num_slots: int):
        self.key = key
        self.tie = tie
        self.item = item
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.parent: Optional[TreeNode] = None
        self.height = 1
        self.sums: List[int] = [0] * num_slots

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

    def __init__(self, num_slots: int,
                 value_of: Callable[[object, int], int]):
        if num_slots < 0:
            raise InvalidArgumentError("num_slots must be >= 0")
        self.num_slots = num_slots
        self.value_of = value_of
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
        node = TreeNode(key, tie, item, self.num_slots)
        self._size += 1
        if self._root is None:
            self._pull(node)
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
        self._pull(node)
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
        cur: Optional[TreeNode] = node
        while cur is not None:
            self._pull(cur)
            cur = cur.parent

    def update_many(self, nodes) -> None:
        """Fused refresh: nearby nodes share most of their root paths, so
        collect every affected node once and re-aggregate children before
        parents instead of walking each full path to the root.  ``nodes``
        may be in any order and may contain duplicates."""
        nodes = list(nodes)
        if len(nodes) <= 1:
            for node in nodes:
                self.refresh(node)
            return
        pending = {}  # id -> (depth-unknown) node, each pulled exactly once
        for node in nodes:
            if node.parent is None and node is not self._root:
                raise self._stale(node)
            cur = node
            while cur is not None and id(cur) not in pending:
                pending[id(cur)] = cur
                cur = cur.parent
        depths: dict = {}  # memoised via the ancestor-closed pending set
        for node in pending.values():
            chain = []
            cur = node
            while cur is not None and id(cur) not in depths:
                chain.append(cur)
                cur = cur.parent
            d = depths[id(cur)] if cur is not None else -1
            while chain:
                d += 1
                depths[id(chain.pop())] = d
        for node in sorted(pending.values(),
                           key=lambda n: depths[id(n)], reverse=True):
            self._pull(node)

    def prefix_many(self, slot: int, nodes, inclusive: bool = True):
        """Prefix sums for several nodes in one call (batch placement)."""
        prefix_sum = self.prefix_sum
        return [prefix_sum(slot, node, inclusive) for node in nodes]

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
        """Yield nodes in key order, restricted to ``rng`` when given."""
        rng = rng or _EVERYTHING
        stack: List[Tuple[TreeNode, bool]] = []
        if self._root is not None:
            stack.append((self._root, False))
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            side = rng.side(node.key)
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
        return self._range_sum(self._root, slot, rng, False, False)

    def _range_sum(self, node: Optional[TreeNode], slot: int,
                   rng: IndexRange, lo_done: bool, hi_done: bool) -> int:
        if node is None:
            return 0
        if lo_done and hi_done:
            return node.sums[slot]
        side = rng.side(node.key)
        if side < 0:
            return self._range_sum(node.right, slot, rng, lo_done, hi_done)
        if side > 0:
            return self._range_sum(node.left, slot, rng, lo_done, hi_done)
        left = self._range_sum(node.left, slot, rng, lo_done, True)
        right = self._range_sum(node.right, slot, rng, True, hi_done)
        return left + self.value_of(node.item, slot) + right

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
        if rng is None:
            # unbounded select needs no range-side checks: a plain
            # weighted descent over the cached subtree sums
            node = self._root
            consumed = 0
            value_of = self.value_of
            while node is not None:
                left = node.left
                left_sum = left.sums[slot] if left is not None else 0
                if target < left_sum:
                    node = left
                    continue
                target -= left_sum
                consumed += left_sum
                value = value_of(node.item, slot)
                if target < value:
                    return node.item, consumed
                target -= value
                consumed += value
                node = node.right
            return None
        node = self._root
        lo_done = hi_done = False
        consumed = 0
        while node is not None:
            side = rng.side(node.key)
            if side < 0:
                node = node.right
                continue
            if side > 0:
                node = node.left
                continue
            left_sum = self._range_sum(node.left, slot, rng, lo_done, True)
            if target < left_sum:
                node = node.left
                hi_done = True
                continue
            target -= left_sum
            consumed += left_sum
            value = self.value_of(node.item, slot)
            if target < value:
                return node.item, consumed
            target -= value
            consumed += value
            node = node.right
            lo_done = True
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
            total += self.value_of(node.item, slot)
        cur = node
        while cur.parent is not None:
            if cur is cur.parent.right:
                total += self.value_of(cur.parent.item, slot)
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
        value_of = self.value_of
        item = node.item
        for slot in range(self.num_slots):
            total = value_of(item, slot)
            if left is not None:
                total += left.sums[slot]
            if right is not None:
                total += right.sums[slot]
            node.sums[slot] = total

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
        """Verify BST order, AVL balance, parent links and sums (tests)."""

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
            expect = [
                ls[i] + rs[i] + self.value_of(node.item, i)
                for i in range(self.num_slots)
            ]
            assert node.sums == expect, "aggregate sums stale"
            return max(lh, rh) + 1, lc + rc + 1, expect

        if self._root is not None:
            assert self._root.parent is None
            _, count, _ = walk(self._root)
            assert count == self._size, "size mismatch"
        else:
            assert self._size == 0
