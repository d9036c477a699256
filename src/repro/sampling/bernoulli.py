"""Geometric skip numbers for the Bernoulli synopsis (§5.2).

Each join result is selected independently with probability ``p``, so the
skip count follows the geometric distribution ``f(s) = (1-p)^s p``.  As in
the paper we draw it in O(1) expected time from a Walker alias structure
built over a truncated support: outcomes ``0 .. M-1`` carry their exact
geometric mass and one overflow outcome carries the tail mass ``(1-p)^M``
(with ``M = ceil(1/p)``).  By memorylessness, re-drawing on overflow and
accumulating ``M`` per overflow yields the exact geometric distribution;
the expected number of draws is ``1 / (1 - (1-p)^M) <= e/(e-1)``.

(The paper's Section 5.2 formulation places the overflow at ``M + 1`` with
mass ``1 - sum_{s<=M} f(s)``; carried out literally that leaves a gap at
``s = M`` after an overflow, so we use the standard memoryless truncation —
the distribution drawn is the same geometric the paper specifies.)
"""

from __future__ import annotations

import math
import random

from repro.errors import InvalidArgumentError
from repro.sampling.alias import WalkerAlias


class GeometricSkipSampler:
    """Draw geometric(p) skip numbers via the alias structure."""

    def __init__(self, p: float, rng: random.Random):
        if not 0.0 < p <= 1.0:
            raise InvalidArgumentError(
                "inclusion probability must be in (0, 1]")
        self.p = p
        self._rng = rng
        self._block = max(1, math.ceil(1.0 / p))
        q = 1.0 - p
        weights = [q**s * p for s in range(self._block)]
        weights.append(q**self._block)  # overflow outcome
        self._alias = WalkerAlias(weights)

    def skip(self) -> int:
        """One skip number ``s`` with ``P(s) = (1-p)^s p``."""
        total = 0
        while True:
            outcome = self._alias.sample(self._rng)
            if outcome < self._block:
                return total + outcome
            total += self._block

    def state_dict(self) -> dict:
        """Snapshot sampler state (parity with the reservoir samplers).

        The alias table is a pure function of ``p`` and every draw
        consumes only the shared RNG, so ``p`` is the entire state.
        """
        return {"p": self.p}

    def load_state(self, state) -> None:
        """Validate and restore a :meth:`state_dict` snapshot."""
        p = float(state["p"])
        if p != self.p:
            raise InvalidArgumentError(
                "geometric skip state was captured for p=%r, not p=%r"
                % (p, self.p)
            )
