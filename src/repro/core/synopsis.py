"""Join synopses and the skip-based maintenance framework (Algorithm 3).

All three synopsis types of §2 are provided.  Each consumes *views* — any
object with ``length()``/``get(i)`` random access over join results (the
non-materialised delta and full views of :mod:`repro.graph.views`, or the
materialised lists the SJ baseline produces) — and makes exactly the same
random selections as the corresponding naive algorithm (vanilla reservoir
sampling, per-item coin flipping) while only *accessing* the selected
results, by drawing skip numbers:

* :class:`FixedSizeWithoutReplacement` — Vitter skips;
* :class:`FixedSizeWithReplacement` — ``m`` size-1 reservoirs behind a
  min-heap of next-replacement positions;
* :class:`BernoulliSynopsis` — geometric skips via the alias structure.

Beyond the paper, the same machinery powers two further *families*
(each synopsis ``kind`` belongs to a family, see
:data:`SYNOPSIS_FAMILIES`):

* **weighted** — :class:`WeightedFixedSize` /
  :class:`WeightedWithReplacement`: per-tuple weights make the join
  graph count weighted *units* (a result of weight ``w`` spans ``w``
  consecutive join numbers), so the unchanged uniform skip machinery
  samples results proportionally to their weight.  With all weights 1
  these are bit-identical to the uniform classes, RNG stream included;
* **subset** — :class:`SubsetSynopsis`: Poisson/subset sampling where
  a result of weight ``w`` is included independently with probability
  ``1 - (1-p)^w``, exposed per sampled row as its inclusion
  probability.

The set of kinds is closed — one table at the bottom of this module —
because a kind's name is part of the durable format
(:func:`repro.persist.state.spec_from_dict` reads it back); engines ask
the synopsis to :meth:`~SynopsisBase.replenish` itself after deletions
rather than dispatching on its concrete class.

Samples are stored as plan-level TID tuples.  Every synopsis maintains a
reverse index from ``(node, tid)`` to the samples containing that tuple so
deleted tuples' samples can be purged in O(1) (§5.3); the without-
replacement synopsis additionally keeps a hash set of its distinct samples
for rejecting duplicate re-draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SynopsisError
from repro.obs.metrics import as_registry
from repro.sampling.bernoulli import GeometricSkipSampler
from repro.sampling.reservoir import VitterSkipSampler
from repro.sampling.with_replacement import MultiReservoirSkips

PlanResult = Tuple[int, ...]


def _kind_row(kind: str) -> Tuple[str, type, str]:
    try:
        return _KINDS[kind]
    except KeyError:
        raise SynopsisError(f"unknown synopsis kind {kind!r}") from None


def family_of_kind(kind: str) -> str:
    """The family a synopsis kind belongs to."""
    return _kind_row(kind)[0]


@dataclass(frozen=True)
class SynopsisSpec:
    """What kind of synopsis to maintain.

    Use the factory classmethods: ``fixed_size(m)``,
    ``with_replacement(m)``, ``bernoulli(p)`` for the paper's uniform
    family, and ``weighted_fixed_size(m, weight_column)``,
    ``weighted_with_replacement(m, weight_column)``,
    ``subset(p, weight_column)`` for the weighted/subset families.

    ``weight_column`` names the integer column supplying per-tuple
    weights as ``"alias.attr"``; ``None`` on a weight-aware kind means
    every tuple weighs 1.
    """

    kind: str
    size: Optional[int] = None
    rate: Optional[float] = None
    weight_column: Optional[str] = None

    @property
    def family(self) -> str:
        """Family of this spec's kind: uniform, weighted, or subset."""
        return family_of_kind(self.kind)

    @staticmethod
    def _check_weight_column(weight_column: Optional[str]) -> None:
        if weight_column is None:
            return
        alias, sep, attr = weight_column.partition(".")
        if not (sep and alias and attr):
            raise SynopsisError(
                "weight column must be written 'alias.attr', got "
                f"{weight_column!r}"
            )

    @classmethod
    def fixed_size(cls, m: int) -> "SynopsisSpec":
        """Fixed-size synopsis without replacement (the paper's default)."""
        if m <= 0:
            raise SynopsisError("synopsis size must be positive")
        return cls("fixed", size=m)

    @classmethod
    def with_replacement(cls, m: int) -> "SynopsisSpec":
        if m <= 0:
            raise SynopsisError("synopsis size must be positive")
        return cls("fixed_replacement", size=m)

    @classmethod
    def bernoulli(cls, p: float) -> "SynopsisSpec":
        if not 0.0 < p <= 1.0:
            raise SynopsisError("sampling rate must be in (0, 1]")
        return cls("bernoulli", rate=p)

    @classmethod
    def weighted_fixed_size(
            cls, m: int,
            weight_column: Optional[str] = None) -> "SynopsisSpec":
        """Weight-proportional fixed-size synopsis without replacement."""
        if m <= 0:
            raise SynopsisError("synopsis size must be positive")
        cls._check_weight_column(weight_column)
        return cls("weighted_fixed", size=m, weight_column=weight_column)

    @classmethod
    def weighted_with_replacement(
            cls, m: int,
            weight_column: Optional[str] = None) -> "SynopsisSpec":
        """Weight-proportional i.i.d. synopsis with replacement."""
        if m <= 0:
            raise SynopsisError("synopsis size must be positive")
        cls._check_weight_column(weight_column)
        return cls("weighted_replacement", size=m,
                   weight_column=weight_column)

    @classmethod
    def subset(cls, p: float,
               weight_column: Optional[str] = None) -> "SynopsisSpec":
        """Poisson/subset synopsis: a result of weight ``w`` is kept
        independently with probability ``1 - (1-p)^w``."""
        if not 0.0 < p <= 1.0:
            raise SynopsisError("sampling rate must be in (0, 1]")
        cls._check_weight_column(weight_column)
        return cls("subset", rate=p, weight_column=weight_column)

    def __post_init__(self):
        # only the uniform family's selection ignores per-tuple weights
        if (self.weight_column is not None
                and SYNOPSIS_FAMILIES.get(self.kind) == "uniform"):
            raise SynopsisError(
                f"synopsis kind {self.kind!r} does not take a weight "
                "column"
            )

    def resized(self, size: int) -> "SynopsisSpec":
        """A copy with a new ``size`` (family + weight column kept);
        used by the §5.1 residual-filter over-allocation."""
        return dc_replace(self, size=size)

    def build(self, rng: random.Random, obs=None) -> "SynopsisBase":
        _, synopsis_class, sized_by = _kind_row(self.kind)
        return synopsis_class(getattr(self, sized_by), rng, obs=obs)


class SynopsisBase:
    """Shared bookkeeping: the reverse ``(node, tid) -> samples`` index."""

    #: persisted state tag; subclasses override (and inherit everything
    #: else from their uniform base where the mechanics are shared)
    KIND = ""
    #: fixed-capacity synopses must be refilled after deletion purges;
    #: Bernoulli-style ones only need the purge itself (§5.3)
    needs_replenish = True

    def __init__(self, rng: random.Random, obs=None):
        self._rng = rng
        self.total_seen = 0  # J: join results currently represented
        self.results_accessed = 0  # work counter (view.get calls)
        self.obs = as_registry(obs)
        # plain-int work counters (like AggregateTree.rotations): free on
        # the hot path, published to the registry only at snapshot time
        self.skips_drawn = 0
        self.accepts = 0
        self.replaces = 0
        self.purges = 0
        # positions of slots() whose content changed since the engine's
        # entry store last read them; None means every position (a
        # fresh, reset or restored synopsis).  Derived, never persisted.
        self._changed: Optional[Set[int]] = None

    # -- change tracking (repro.core.entries) ----------------------------
    def slots(self) -> Sequence[Optional[PlanResult]]:
        """The positional sample storage itself — read-only for callers;
        ``None`` marks an empty slot.  :meth:`samples` is its copy with
        the empty slots dropped."""
        raise NotImplementedError

    def changed_positions(self) -> Optional[Set[int]]:
        """Positions of :meth:`slots` written since the last
        :meth:`changes_read` (``None``: all of them).  Positions past
        the current length belong to samples removed since."""
        return self._changed

    def changes_read(self) -> None:
        """The one reader (the engine's entry store) is in sync."""
        self._changed = set()

    def _touch(self, pos: int) -> None:
        if self._changed is not None:
            self._changed.add(pos)

    # -- persistence (repro.persist) ------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to restore this synopsis exactly (samples,
        skip state, work counters); the shared RNG is captured separately
        by the persist layer."""
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        """Restore a previously captured :meth:`state_dict`."""
        raise NotImplementedError

    def _base_state(self) -> dict:
        return {
            "total_seen": self.total_seen,
            "results_accessed": self.results_accessed,
            "skips_drawn": self.skips_drawn,
            "accepts": self.accepts,
            "replaces": self.replaces,
            "purges": self.purges,
        }

    def _load_base_state(self, state: dict) -> None:
        self.total_seen = int(state["total_seen"])
        self.results_accessed = int(state["results_accessed"])
        self.skips_drawn = int(state["skips_drawn"])
        self.accepts = int(state["accepts"])
        self.replaces = int(state["replaces"])
        self.purges = int(state["purges"])

    # -- interface ------------------------------------------------------
    def consume(self, view) -> int:
        """Run Algorithm 3 over ``view``; returns #results selected."""
        raise NotImplementedError

    def decrease_total(self, amount: int) -> None:
        """Deletion bookkeeping: ``J`` shrank by ``amount`` (§5.3)."""
        raise NotImplementedError

    def purge_tuple(self, node_idx: int, tid: int) -> int:
        """Drop every sample containing the tuple; returns #purged."""
        raise NotImplementedError

    def samples(self) -> List[PlanResult]:
        raise NotImplementedError

    @property
    def valid_count(self) -> int:
        """The paper's ``n``: number of valid samples currently held."""
        raise NotImplementedError

    # -- deletion repair (engine-agnostic strategy hooks) ----------------
    def replenish(self, engine, root_idx: int) -> None:
        """Refill after deletion purges, drawing re-draws through the
        engine's join graph/RNG (§5.3).  ``root_idx`` is the plan node
        the deletion was on: everything read from the graph — ``J``,
        each re-draw, a rebuild's full view — goes through the query
        tree rooted there, the one root an open
        :class:`~repro.graph.join_graph.DeleteRun` keeps exact.
        Default: nothing to do — Bernoulli-style synopses are correct
        after the purge alone."""
        return None

    def rebuild_from_results(self, view) -> "SynopsisBase":
        """Recreate this synopsis from a materialised result view (the
        SJ baseline's post-deletion repair); returns the synopsis to use
        afterwards (``self`` or a fresh replacement)."""
        return self


def _index_add(index: Dict[Tuple[int, int], Set[int]],
               result: PlanResult, pos: int) -> None:
    for node_idx, tid in enumerate(result):
        index.setdefault((node_idx, tid), set()).add(pos)


def _index_remove(index: Dict[Tuple[int, int], Set[int]],
                  result: PlanResult, pos: int) -> None:
    for node_idx, tid in enumerate(result):
        key = (node_idx, tid)
        bucket = index.get(key)
        if bucket is not None:
            bucket.discard(pos)
            if not bucket:
                del index[key]


class FixedSizeWithoutReplacement(SynopsisBase):
    """Reservoir of ``m`` distinct join results with Vitter skips."""

    KIND = "fixed"

    def __init__(self, m: int, rng: random.Random, obs=None):
        super().__init__(rng, obs=obs)
        self.m = m
        self._samples: List[PlanResult] = []
        self._distinct: Set[PlanResult] = set()
        self._index: Dict[Tuple[int, int], Set[int]] = {}
        self._skipper = VitterSkipSampler(m, rng)
        self._pending_skip = 0

    @property
    def valid_count(self) -> int:
        return len(self._samples)

    def samples(self) -> List[PlanResult]:
        return list(self._samples)

    def slots(self) -> Sequence[Optional[PlanResult]]:
        return self._samples

    def contains(self, result: PlanResult) -> bool:
        return result in self._distinct

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = self._base_state()
        state.update({
            "kind": self.KIND,
            "m": self.m,
            "samples": [tuple(s) for s in self._samples],
            "pending_skip": self._pending_skip,
            "skipper": self._skipper.state_dict(),
        })
        return state

    def load_state(self, state: dict) -> None:
        if state.get("kind") != self.KIND or int(state["m"]) != self.m:
            raise SynopsisError(
                "synopsis state mismatch: expected "
                f"{self.KIND}/m={self.m}, "
                f"got {state.get('kind')}/m={state.get('m')}"
            )
        self._samples = [tuple(s) for s in state["samples"]]
        self._distinct = set(self._samples)
        self._index = {}
        for pos, result in enumerate(self._samples):
            _index_add(self._index, result, pos)
        self._pending_skip = int(state["pending_skip"])
        self._skipper.load_state(state["skipper"])
        self._load_base_state(state)
        self._changed = None

    # ------------------------------------------------------------------
    def consume(self, view) -> int:
        selected = 0
        pos = 0
        length = view.length()
        while pos < length:
            if len(self._samples) < self.m:
                skip = 0
                self._pending_skip = 0
            else:
                skip = self._pending_skip
            if pos + skip >= length:
                consumed = length - pos
                self._pending_skip = skip - consumed
                self.total_seen += consumed
                return selected
            pos += skip
            self.total_seen += skip
            result = tuple(view.get(pos))
            self.results_accessed += 1
            pos += 1
            self.total_seen += 1
            self._accept(result)
            selected += 1
            if len(self._samples) >= self.m:
                self._pending_skip = self._skipper.skip(self.total_seen)
                self.skips_drawn += 1
        return selected

    def _accept(self, result: PlanResult) -> None:
        self.accepts += 1
        if len(self._samples) < self.m:
            self._append(result)
        else:
            victim = self._rng.randrange(self.m)
            self._replace(victim, result)
            self.replaces += 1

    def _append(self, result: PlanResult) -> None:
        pos = len(self._samples)
        self._samples.append(result)
        self._distinct.add(result)
        _index_add(self._index, result, pos)
        self._touch(pos)

    def _replace(self, pos: int, result: PlanResult) -> None:
        old = self._samples[pos]
        _index_remove(self._index, old, pos)
        self._distinct.discard(old)
        self._samples[pos] = result
        self._distinct.add(result)
        _index_add(self._index, result, pos)
        self._touch(pos)

    # ------------------------------------------------------------------
    def decrease_total(self, amount: int) -> None:
        if amount == 0:
            return
        self.total_seen -= amount
        if self.total_seen < 0:
            raise SynopsisError("J went negative")
        # A pending Vitter skip drawn at the old, larger J is
        # stochastically too long once J shrinks; the skip state is
        # memoryless given (m, t), so re-draw it at the new J.  Below
        # m the fill branch of consume() accepts everything anyway.
        if len(self._samples) >= self.m and self.total_seen >= self.m:
            self._pending_skip = self._skipper.skip(self.total_seen)
            self.skips_drawn += 1
        else:
            self._pending_skip = 0

    def purge_tuple(self, node_idx: int, tid: int) -> int:
        positions = self._index.get((node_idx, tid))
        if not positions:
            return 0
        purged = 0
        for pos in sorted(positions, reverse=True):
            self._remove_at(pos)
            purged += 1
        self.purges += purged
        return purged

    def _remove_at(self, pos: int) -> None:
        last = len(self._samples) - 1
        result = self._samples[pos]
        _index_remove(self._index, result, pos)
        self._distinct.discard(result)
        if pos != last:
            moved = self._samples[last]
            _index_remove(self._index, moved, last)
            self._samples[pos] = moved
            _index_add(self._index, moved, pos)
        self._samples.pop()
        self._touch(pos)

    # ------------------------------------------------------------------
    def add_redrawn(self, result: PlanResult) -> bool:
        """Insert a uniform re-draw; False when rejected as duplicate."""
        if result in self._distinct:
            return False
        if len(self._samples) >= self.m:
            raise SynopsisError("synopsis already full")
        self._append(result)
        return True

    def reset_for_rebuild(self) -> None:
        """Clear all state so a fresh Algorithm-3 run over the full view
        recreates the synopsis (the ``m >= J/2`` optimisation, §5.3)."""
        self._samples.clear()
        self._distinct.clear()
        self._index.clear()
        self.total_seen = 0
        self._pending_skip = 0
        self._skipper = VitterSkipSampler(self.m, self._rng)
        self._changed = None

    # ------------------------------------------------------------------
    def replenish(self, engine, root_idx: int) -> None:
        """Refill to ``min(m, J)`` with uniform re-draws through the
        join-number bijection, or one full Algorithm-3 rebuild when
        rejection sampling would thrash (§5.3)."""
        from repro.graph.join_number import map_join_number
        from repro.graph.views import FullJoinView

        graph = engine.graph
        j = graph.total_results(root_idx)
        target = min(self.m, j)
        if self.valid_count >= target:
            return
        if 2 * self.m >= j:
            # m >= J/2: rejection would thrash; rebuild with one
            # Algorithm-3 pass over the full view (expected <= 2m
            # accesses)
            self.reset_for_rebuild()
            self.consume(FullJoinView(graph, root_idx))
            engine.stats.rebuilds += 1
            return
        rejections = 0
        while self.valid_count < target:
            number = engine.rng.randrange(j)
            result = map_join_number(graph, root_idx, number)
            engine.stats.redraws += 1
            if not self.add_redrawn(result):
                engine.stats.redraw_rejections += 1
                rejections += 1
                # On a weighted graph J counts units, and fewer than m
                # distinct results may span more than 2m of them: once
                # the held results cover the whole domain every draw is
                # a duplicate and there is nothing left to wait for.
                if (rejections % self.m == 0
                        and graph.tuple_weight is not None
                        and sum(map(engine.result_weight,
                                    self._distinct)) >= j):
                    return

    def rebuild_from_results(self, view) -> "SynopsisBase":
        self.reset_for_rebuild()
        self.consume(view)
        return self


class FixedSizeWithReplacement(SynopsisBase):
    """``m`` slots, each an independent size-1 reservoir (§5.2)."""

    KIND = "fixed_replacement"

    def __init__(self, m: int, rng: random.Random, obs=None):
        super().__init__(rng, obs=obs)
        self.m = m
        self._slots: List[Optional[PlanResult]] = [None] * m
        self._index: Dict[Tuple[int, int], Set[int]] = {}
        self._skips = MultiReservoirSkips(m, rng)

    @property
    def valid_count(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    def samples(self) -> List[PlanResult]:
        return [slot for slot in self._slots if slot is not None]

    def slots(self) -> Sequence[Optional[PlanResult]]:
        return self._slots

    def slot_values(self) -> List[Optional[PlanResult]]:
        return list(self._slots)

    def empty_slots(self) -> List[int]:
        return [i for i, slot in enumerate(self._slots) if slot is None]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = self._base_state()
        state.update({
            "kind": self.KIND,
            "m": self.m,
            "slots": [None if s is None else tuple(s)
                      for s in self._slots],
            "skips": self._skips.state_dict(),
        })
        return state

    def load_state(self, state: dict) -> None:
        if (state.get("kind") != self.KIND
                or int(state["m"]) != self.m):
            raise SynopsisError(
                "synopsis state mismatch: expected "
                f"{self.KIND}/m={self.m}, "
                f"got {state.get('kind')}/m={state.get('m')}"
            )
        self._slots = [None if s is None else tuple(s)
                       for s in state["slots"]]
        self._index = {}
        for pos, result in enumerate(self._slots):
            if result is not None:
                _index_add(self._index, result, pos)
        self._skips.load_state(state["skips"])
        self._load_base_state(state)
        self._changed = None

    # ------------------------------------------------------------------
    def consume(self, view) -> int:
        selected = 0
        pos = 0
        length = view.length()
        while pos < length:
            skip = self._skips.skip_from(self.total_seen)
            if pos + skip >= length:
                self.total_seen += length - pos
                return selected
            # counted where it lands, so the count does not depend on
            # how the result stream is cut into views
            self.skips_drawn += 1
            pos += skip
            self.total_seen += skip
            result = tuple(view.get(pos))
            self.results_accessed += 1
            slots = self._skips.pop_slots_at(self.total_seen)
            for slot in slots:
                self._set_slot(slot, result)
                self.replaces += 1
            self.accepts += 1
            pos += 1
            self.total_seen += 1
            selected += 1
        return selected

    def _set_slot(self, slot: int, result: Optional[PlanResult]) -> None:
        old = self._slots[slot]
        if old is not None:
            _index_remove(self._index, old, slot)
        self._slots[slot] = result
        if result is not None:
            _index_add(self._index, result, slot)
        self._touch(slot)

    # ------------------------------------------------------------------
    def decrease_total(self, amount: int) -> None:
        if amount == 0:
            return
        self.total_seen -= amount
        if self.total_seen < 0:
            raise SynopsisError("J went negative")
        # Pending skips drawn at the old, larger J are stochastically too
        # long for the shrunken stream; the reservoirs are memoryless, so
        # re-draw them at the new J to keep future acceptance exact.
        self._skips.rearm_all(self.total_seen)

    def purge_tuple(self, node_idx: int, tid: int) -> int:
        slots = self._index.get((node_idx, tid))
        if not slots:
            return 0
        purged = 0
        for slot in list(slots):
            self._set_slot(slot, None)
            purged += 1
        self.purges += purged
        return purged

    def replenish_slot(self, slot: int, result: PlanResult) -> None:
        """Fill an empty slot with an independent uniform re-draw and
        re-arm its reservoir over future results."""
        if self._slots[slot] is not None:
            raise SynopsisError(f"slot {slot} is not empty")
        self._set_slot(slot, result)
        self._skips.reset_slot(slot, self.total_seen)

    def rearm_slot(self, slot: int) -> None:
        """Re-arm an empty slot as a fresh size-1 reservoir (used when the
        database holds no join results to re-draw from)."""
        self._skips.reset_slot(slot, self.total_seen)

    # ------------------------------------------------------------------
    def replenish(self, engine, root_idx: int) -> None:
        """Refill purged slots with independent uniform re-draws (or
        re-arm them when the database holds no results, §5.3)."""
        from repro.graph.join_number import map_join_number

        graph = engine.graph
        j = graph.total_results(root_idx)
        if j == 0:
            # nothing to re-draw: re-arm the emptied slots as fresh
            # size-1 reservoirs so they select the next arriving results
            for slot in self.empty_slots():
                self.rearm_slot(slot)
            return
        for slot in self.empty_slots():
            number = engine.rng.randrange(j)
            result = map_join_number(graph, root_idx, number)
            engine.stats.redraws += 1
            self.replenish_slot(slot, result)

    def rebuild_from_results(self, view) -> "SynopsisBase":
        fresh = type(self)(self.m, self._rng, obs=self.obs)
        fresh.consume(view)
        return fresh


class BernoulliSynopsis(SynopsisBase):
    """Each join result kept independently with probability ``p``."""

    KIND = "bernoulli"
    needs_replenish = False

    def __init__(self, p: float, rng: random.Random, obs=None):
        super().__init__(rng, obs=obs)
        self.p = p
        self._samples: List[PlanResult] = []
        self._index: Dict[Tuple[int, int], Set[int]] = {}
        self._skipper = GeometricSkipSampler(p, rng)
        self._pending_skip = self._skipper.skip()

    @property
    def valid_count(self) -> int:
        return len(self._samples)

    def samples(self) -> List[PlanResult]:
        return list(self._samples)

    def slots(self) -> Sequence[Optional[PlanResult]]:
        return self._samples

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = self._base_state()
        state.update({
            "kind": self.KIND,
            "p": self.p,
            "samples": [tuple(s) for s in self._samples],
            "pending_skip": self._pending_skip,
        })
        return state

    def load_state(self, state: dict) -> None:
        if state.get("kind") != self.KIND or state["p"] != self.p:
            raise SynopsisError(
                "synopsis state mismatch: expected "
                f"{self.KIND}/p={self.p}, "
                f"got {state.get('kind')}/p={state.get('p')}"
            )
        self._samples = [tuple(s) for s in state["samples"]]
        self._index = {}
        for pos, result in enumerate(self._samples):
            _index_add(self._index, result, pos)
        self._pending_skip = int(state["pending_skip"])
        self._load_base_state(state)
        self._changed = None

    # ------------------------------------------------------------------
    def consume(self, view) -> int:
        selected = 0
        pos = 0
        length = view.length()
        while pos < length:
            skip = self._pending_skip
            if pos + skip >= length:
                consumed = length - pos
                self._pending_skip = skip - consumed
                self.total_seen += consumed
                return selected
            pos += skip
            self.total_seen += skip
            result = tuple(view.get(pos))
            self.results_accessed += 1
            pos += 1
            self.total_seen += 1
            self._append(result)
            self.accepts += 1
            selected += 1
            self._pending_skip = self._skipper.skip()
            self.skips_drawn += 1
        return selected

    def _append(self, result: PlanResult) -> None:
        pos = len(self._samples)
        self._samples.append(result)
        _index_add(self._index, result, pos)
        self._touch(pos)

    # ------------------------------------------------------------------
    def decrease_total(self, amount: int) -> None:
        self.total_seen -= amount
        if self.total_seen < 0:
            raise SynopsisError("J went negative")

    def purge_tuple(self, node_idx: int, tid: int) -> int:
        positions = self._index.get((node_idx, tid))
        if not positions:
            return 0
        purged = 0
        for pos in sorted(positions, reverse=True):
            self._remove_at(pos)
            purged += 1
        self.purges += purged
        return purged

    def _remove_at(self, pos: int) -> None:
        last = len(self._samples) - 1
        result = self._samples[pos]
        _index_remove(self._index, result, pos)
        if pos != last:
            moved = self._samples[last]
            _index_remove(self._index, moved, last)
            self._samples[pos] = moved
            _index_add(self._index, moved, pos)
        self._samples.pop()
        self._touch(pos)


class WeightedFixedSize(FixedSizeWithoutReplacement):
    """Weight-proportional reservoir of ``m`` results without
    replacement.

    Runs the unchanged Vitter machinery over the weighted *unit* domain
    maintained by a weighted join graph: a result of weight ``w`` spans
    ``w`` consecutive join numbers, so each unit — and hence, in
    expectation, each result proportionally to its weight — is held
    with probability ``m / J_w`` (``J_w`` the total result weight).
    With all weights 1 the unit domain *is* the result domain and this
    class is bit-identical to :class:`FixedSizeWithoutReplacement`,
    RNG stream included.  Replenish re-draws stay result-level
    without-replacement (duplicate results are rejected, as in the
    uniform class).
    """

    KIND = "weighted_fixed"


class WeightedWithReplacement(FixedSizeWithReplacement):
    """Weight-proportional i.i.d. synopsis of ``m`` results with
    replacement.

    Each of the ``m`` size-1 reservoirs runs over the weighted unit
    domain, so every slot independently holds a draw exactly
    proportional to result weight — including after deletions, where
    the uniform-unit re-draw ``randrange(J_w)`` is again
    weight-proportional.  Bit-identical to
    :class:`FixedSizeWithReplacement` when all weights are 1.
    """

    KIND = "weighted_replacement"


class SubsetSynopsis(BernoulliSynopsis):
    """Poisson/subset synopsis over a weighted unit domain.

    Each *unit* is selected independently with probability ``p`` by the
    inherited geometric-skip machinery; keeping a result iff at least
    one of its ``w`` units is selected gives the exact independent
    inclusion probability ``pi(w) = 1 - (1-p)**w`` (Esmailpour et al.'s
    subset-sampling semantics).  Duplicate units of an already-held
    result are dropped without extra RNG draws, so with all weights 1
    (single-unit results — no duplicates possible) this class is
    bit-identical to :class:`BernoulliSynopsis`.  Deletion needs only
    the purge, like the Bernoulli class.
    """

    KIND = "subset"

    def __init__(self, p: float, rng: random.Random, obs=None):
        super().__init__(p, rng, obs=obs)
        self._distinct: Set[PlanResult] = set()

    def inclusion_probability(self, weight: int) -> float:
        """``pi(w)``: probability a result of weight ``w`` is included."""
        return 1.0 - (1.0 - self.p) ** weight

    def contains(self, result: PlanResult) -> bool:
        return result in self._distinct

    def _append(self, result: PlanResult) -> None:
        if result in self._distinct:
            return
        self._distinct.add(result)
        super()._append(result)

    def _remove_at(self, pos: int) -> None:
        self._distinct.discard(self._samples[pos])
        super()._remove_at(pos)

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._distinct = set(self._samples)


#: every synopsis kind: name -> (family, class, the spec field its
#: constructor is sized by)
_KINDS: Dict[str, Tuple[str, type, str]] = {
    "fixed": ("uniform", FixedSizeWithoutReplacement, "size"),
    "fixed_replacement": ("uniform", FixedSizeWithReplacement, "size"),
    "bernoulli": ("uniform", BernoulliSynopsis, "rate"),
    "weighted_fixed": ("weighted", WeightedFixedSize, "size"),
    "weighted_replacement": ("weighted", WeightedWithReplacement, "size"),
    "subset": ("subset", SubsetSynopsis, "rate"),
}

#: read-only kind -> family mapping
SYNOPSIS_FAMILIES = MappingProxyType(
    {kind: row[0] for kind, row in _KINDS.items()})
