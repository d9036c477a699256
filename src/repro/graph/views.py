"""Non-materialised join-result views (§4, Figure 3, and §5.3).

Both views expose the paper's iterator interface — ``length()`` and
``get(index)`` — over a contiguous subdomain of join numbers, without
materialising any join result: ``get`` invokes the join-number mapping
(Algorithm 2) on demand.

* :class:`DeltaJoinView` — the new join results of freshly inserted
  tuples of one node.  Upon inserting ``t_i`` into node ``R_i``, its
  results occupy the contiguous join-number block ``[U - w', U)`` with
  respect to ``G_Q(R_i)``, where ``U`` is the inclusive ``w_full`` prefix
  sum up to ``t_i``'s vertex and ``w'`` the vertex's per-tuple weight;
  the view is the blocks of a run of such insertions, concatenated in op
  order.
* :class:`FullJoinView` — all ``J`` current join results, used to re-draw
  or rebuild a fixed-size synopsis after deletions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple

from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number

PlanResult = Tuple[int, ...]


class JoinResultView:
    """Array-like random access to a contiguous join-number subdomain."""

    def __init__(self, graph: WeightedJoinGraph, root_idx: int,
                 start: int, count: int):
        self._graph = graph
        self._root_idx = root_idx
        self._start = start
        self._count = count

    def length(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def get(self, index: int) -> PlanResult:
        """The join result at position ``index`` of the view."""
        if not 0 <= index < self._count:
            raise IndexError(f"view index {index} out of [0, {self._count})")
        return map_join_number(
            self._graph, self._root_idx, self._start + index
        )

    def __iter__(self) -> Iterator[PlanResult]:
        for i in range(self._count):
            yield self.get(i)


class DeltaJoinView(JoinResultView):
    """View over the new join results of a run of insertions into one
    node (§4.5): their ``(view_start, new_results)`` blocks — what
    :meth:`WeightedJoinGraph.insert_tuples` returns — concatenated in op
    order.  Positions are global across the blocks, so a skip number
    crosses a block border as integer arithmetic and Algorithm 3 sees
    the same position stream as over one view per block."""

    def __init__(self, graph: WeightedJoinGraph, root_idx: int,
                 blocks: Iterable[Tuple[int, int]]):
        # per non-empty block: where it ends in the view, and its first
        # join number minus where it starts in the view
        ends: List[int] = []
        shifts: List[int] = []
        total = 0
        for start, count in blocks:
            if count:
                shifts.append(start - total)
                total += count
                ends.append(total)
        self._ends, self._shifts = ends, shifts
        super().__init__(graph, root_idx, 0, total)

    def get(self, index: int) -> PlanResult:
        if not 0 <= index < self._count:
            raise IndexError(f"view index {index} out of [0, {self._count})")
        return map_join_number(
            self._graph, self._root_idx,
            self._shifts[bisect_right(self._ends, index)] + index)


class FullJoinView(JoinResultView):
    """View over all current join results (used for re-draws, §5.3)."""

    def __init__(self, graph: WeightedJoinGraph, root_idx: int = 0):
        super().__init__(graph, root_idx, 0, graph.total_results(root_idx))
