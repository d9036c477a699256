"""Skip generation for a fixed-size synopsis *with* replacement (§5.2).

An ``m``-size with-replacement synopsis is conceptually ``m`` independent
size-1 reservoirs.  A size-1 reservoir that has seen ``J`` records skips
``s`` more with

    P(s >= k) = J / (J + k),

drawn exactly by inversion: ``s = floor(J/u - J)`` for ``u`` uniform in
(0, 1].  Rather than running the ``m`` reservoirs separately, we maintain a
min-heap over ``N_i`` — the 0-based global index of the next record that
replaces slot ``i`` — so the combined skip is ``min_i N_i - J`` and only
the slots whose ``N_i`` equals the minimum are touched per selection.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Tuple

from repro.errors import InvalidArgumentError


class MultiReservoirSkips:
    """The min-heap over the ``m`` slot replacement positions."""

    def __init__(self, m: int, rng: random.Random):
        if m <= 0:
            raise InvalidArgumentError("synopsis size must be positive")
        self.m = m
        self._rng = rng
        # every slot selects the very first record (a size-1 reservoir
        # always keeps record 1 when it arrives): N_i = 0 for all i
        self._heap: List[Tuple[int, int]] = [(0, i) for i in range(m)]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # persistence (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The pending replacement positions (the RNG lives elsewhere)."""
        return {"heap": [(pos, slot) for pos, slot in self._heap]}

    def load_state(self, state: dict) -> None:
        self._heap = [(int(pos), int(slot)) for pos, slot in state["heap"]]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    def _draw_position(self, j: int) -> int:
        """Next replacement position for a slot that just selected record
        ``j - 1`` (0-based), i.e. has seen ``j`` records."""
        u = 1.0 - self._rng.random()  # (0, 1]
        skip = int(j / u) - j
        return j + skip  # 0-based index of the next selected record

    def skip_from(self, j: int) -> int:
        """Records to skip when ``j`` records have been seen so far."""
        return self._heap[0][0] - j

    def pop_slots_at(self, position: int) -> List[int]:
        """Slots whose next replacement is exactly ``position``; their next
        positions are immediately re-drawn."""
        slots = []
        while self._heap and self._heap[0][0] == position:
            _, slot = heapq.heappop(self._heap)
            slots.append(slot)
        for slot in slots:
            heapq.heappush(
                self._heap, (self._draw_position(position + 1), slot)
            )
        return slots

    def rearm_all(self, j: int) -> None:
        """Re-draw every pending position for ``j`` records seen.

        Deletions shrink ``J``, and the skip law ``P(s >= k) = J/(J+k)``
        depends on it: a skip drawn at the old, larger ``J`` is
        stochastically too long for the new one, under-sampling whatever
        arrives after the deletion.  A size-1 reservoir is memoryless in
        its skip state, so re-drawing every position at the new ``J``
        restores the exact acceptance law for future records.
        """
        slots = [slot for _, slot in self._heap]
        if j == 0:
            self._heap = [(0, slot) for slot in slots]
        else:
            self._heap = [(self._draw_position(j), slot)
                          for slot in slots]
        heapq.heapify(self._heap)

    def reset_slot(self, slot: int, j: int) -> None:
        """Re-arm ``slot`` as a fresh size-1 reservoir over future records.

        Used after the slot's sample was purged and replenished by an
        independent uniform re-draw: the re-draw restores uniformity over
        the current ``j`` records, and the slot then continues reservoir
        sampling from ``t = j``.
        """
        self._heap = [(pos, s) for pos, s in self._heap if s != slot]
        if j == 0:
            heapq.heappush(self._heap, (0, slot))
        else:
            heapq.heappush(self._heap, (self._draw_position(j), slot))
        heapq.heapify(self._heap)
