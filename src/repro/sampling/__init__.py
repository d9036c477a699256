"""Sampling substrate: skip-number generators and the alias structure.

Algorithm 3 of the paper reduces synopsis maintenance to generating *skip
numbers* — the count of consecutive join results left unselected before the
next selected one — with the right distribution for each synopsis type:

* fixed-size w/o replacement: Vitter's reservoir skips (:mod:`reservoir`);
* fixed-size w/ replacement: ``m`` independent size-1 reservoirs tracked by
  a min-heap over their next replacement positions (:mod:`with_replacement`);
* Bernoulli: geometric skips drawn in O(1) expected time via a Walker alias
  structure (:mod:`bernoulli`, :mod:`alias`).

The weight-proportional kinds add no sampler of their own: they draw the
same Vitter skips over the weighted unit domain (see
:mod:`repro.core.synopsis`).

Shared state protocol: every sampler (and the alias structure) exposes
``state_dict() -> dict`` and ``load_state(state)`` returning/accepting a
JSON-safe mapping, so recovery can pin sampler state bit-identically
alongside the engine RNG (see :mod:`repro.persist.state`).
"""

from repro.sampling.alias import WalkerAlias
from repro.sampling.reservoir import VitterSkipSampler, naive_reservoir_skip
from repro.sampling.with_replacement import MultiReservoirSkips
from repro.sampling.bernoulli import GeometricSkipSampler

__all__ = [
    "WalkerAlias",
    "VitterSkipSampler",
    "naive_reservoir_skip",
    "MultiReservoirSkips",
    "GeometricSkipSampler",
]
