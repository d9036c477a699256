"""Online sample-quality monitoring for join synopses.

The engines maintain a provably-uniform sample by construction (SJoin
§4–5); this module adds uniformity *by monitoring*: a cheap streaming
check that catches a sampler gone wrong (a biased RNG, a broken skip
counter, a stale replenish path) while it is happening, instead of in a
post-hoc offline analysis.

Every ``check_every`` applied ops the :class:`QualityMonitor` draws a
small *probe* sample of join results uniformly at random through the
join-number bijection (Algorithm 2 — random access to the current join
result set in ``O(n log N)`` per probe) and compares it against the
synopsis membership with two complementary two-sample statistics:

* a **chi-square** statistic over hash buckets of the result tuples —
  sensitive to clumping / missing regions of the result space;
* a **Kolmogorov–Smirnov** statistic over a scalar projection (the sum
  of the result's TIDs) — sensitive to rank bias, e.g. a sampler that
  systematically over-accepts recently-inserted results.

Per-round statistics are aggregated over a sliding ``window`` of
rounds (chi-square values are additive across independent rounds, so
the windowed sum is compared against the windowed degrees of freedom;
KS ratios are averaged), which keeps single-round noise from flagging
an honest engine while repeated bias accumulates quickly.

Under the null hypothesis both probe and synopsis are draws from the
same distribution over the current result set, so nothing here assumes
a particular synopsis type — the same monitor covers fixed-size
with/without replacement and Bernoulli synopses.  Engines without a
weighted join graph (the symmetric-join baseline) fall back to probing
a full enumeration.

The comparison generalises to the weighted and subset synopsis
families: probes drawn uniformly over the weighted *unit* domain are
weight-proportional result draws, which is exactly the weighted
family's target, so those members compare unweighted; subset members
are included with probability ``pi(w) = 1-(1-p)**w`` instead, so each
member carries the importance weight ``w / pi(w)`` into weighted bucket
counts and a weighted ECDF (with Kish's effective sample size sizing
the KS critical value).  A mis-weighted stream — e.g. an engine that
ignores tuple weights — shifts both statistics and flags.

The monitor belongs to whoever serves the view —
:class:`~repro.service.SynopsisService` on a leader,
:class:`~repro.replicate.FollowerService` on a replica, both through
:func:`monitor_for` — and shares the target's single-writer discipline:
``note_ops`` is called per applied batch on the thread that applies
updates, so probing needs no locking; readers take copies.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError
from repro.obs import names as metric_names
from repro.obs.events import as_event_log
from repro.obs.metrics import as_registry


class QualityConfig:
    """Tuning knobs for :class:`QualityMonitor` (frozen, kw-only).

    ``check_every``
        Applied ops between probe rounds.
    ``probes``
        Probe sample size per round.
    ``buckets``
        Hash buckets for the chi-square statistic.
    ``window``
        Rounds aggregated into the flagging decision.
    ``sigma``
        Chi-square flag threshold in standard deviations above the
        windowed degrees of freedom (chi-square mean = dof, variance =
        2·dof under the null).
    ``alpha``
        Two-sided significance level for the KS critical value.
    ``min_results`` / ``min_samples``
        Rounds are skipped (not failed) while the result set or
        synopsis is smaller than these floors — tiny populations make
        both statistics meaningless.
    ``seed``
        Seed for the monitor's private probe RNG (independent of the
        engine's sampling RNG, so probing never perturbs the synopsis).
    """

    __slots__ = ("check_every", "probes", "buckets", "window", "sigma",
                 "alpha", "min_results", "min_samples", "seed")

    def __init__(self, *, check_every: int = 2048, probes: int = 128,
                 buckets: int = 16, window: int = 8, sigma: float = 5.0,
                 alpha: float = 1e-4, min_results: int = 256,
                 min_samples: int = 32, seed: int = 0):
        if check_every < 1:
            raise InvalidArgumentError(
                f"check_every must be >= 1, got {check_every}")
        if probes < 2:
            raise InvalidArgumentError(f"probes must be >= 2, got {probes}")
        if buckets < 2:
            raise InvalidArgumentError(
                f"buckets must be >= 2, got {buckets}")
        if window < 1:
            raise InvalidArgumentError(f"window must be >= 1, got {window}")
        if not 0.0 < alpha < 1.0:
            raise InvalidArgumentError(
                f"alpha must be in (0, 1), got {alpha}")
        if sigma <= 0:
            raise InvalidArgumentError(f"sigma must be > 0, got {sigma}")
        object.__setattr__(self, "check_every", check_every)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "min_results", min_results)
        object.__setattr__(self, "min_samples", min_samples)
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"QualityConfig is immutable ({name!r})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__)
        return f"QualityConfig({fields})"


def ks_statistic(xs: Sequence[float], ys: Sequence[float],
                 x_weights: Optional[Sequence[float]] = None,
                 y_weights: Optional[Sequence[float]] = None) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``D`` (max ECDF gap).

    Optional per-observation weights turn either side into a weighted
    ECDF (cumulative weight over total weight); with unit weights this
    is exactly the classic statistic.
    """
    xp = sorted(zip(xs, x_weights if x_weights is not None
                    else [1.0] * len(xs)), key=lambda t: t[0])
    yp = sorted(zip(ys, y_weights if y_weights is not None
                    else [1.0] * len(ys)), key=lambda t: t[0])
    total_x = sum(w for _, w in xp)
    total_y = sum(w for _, w in yp)
    if total_x <= 0 or total_y <= 0:
        return 0.0
    n, m = len(xp), len(yp)
    i = j = 0
    cx = cy = 0.0
    d = 0.0
    while i < n and j < m:
        # consume every occurrence of the smaller value from both
        # sides before measuring: the ECDF gap is only defined between
        # distinct values, so ties must advance together
        value = min(xp[i][0], yp[j][0])
        while i < n and xp[i][0] == value:
            cx += xp[i][1]
            i += 1
        while j < m and yp[j][0] == value:
            cy += yp[j][1]
            j += 1
        gap = abs(cx / total_x - cy / total_y)
        if gap > d:
            d = gap
    return d


def ks_critical(n: float, m: float, alpha: float) -> float:
    """Critical ``D`` at two-sided level ``alpha`` (asymptotic form).

    ``n``/``m`` may be fractional: weighted samples pass Kish's
    effective sample size.
    """
    c_alpha = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c_alpha * math.sqrt((n + m) / (n * m))


def effective_sample_size(weights: Sequence[float]) -> float:
    """Kish's effective sample size ``(sum w)**2 / sum w**2``."""
    total = sum(weights)
    squares = sum(w * w for w in weights)
    if squares <= 0:
        return 0.0
    return total * total / squares


def chi_square_two_sample(
        a: Sequence[float], b: Sequence[float]) -> Tuple[float, int]:
    """Two-sample chi-square over aligned bucket counts.

    Returns ``(statistic, dof)`` using the unequal-sample-size form
    ``sum((K1·a_i − K2·b_i)² / (a_i + b_i))`` with ``K1 = sqrt(m/n)``,
    ``K2 = sqrt(n/m)``; cells empty in both samples are ignored and
    ``dof`` is the number of contributing cells minus one.
    """
    total_a = sum(a)
    total_b = sum(b)
    if total_a == 0 or total_b == 0:
        return 0.0, 0
    k1 = math.sqrt(total_b / total_a)
    k2 = math.sqrt(total_a / total_b)
    stat = 0.0
    cells = 0
    for ai, bi in zip(a, b):
        if ai + bi == 0:
            continue
        cells += 1
        diff = k1 * ai - k2 * bi
        stat += diff * diff / (ai + bi)
    return stat, max(0, cells - 1)


def _projection(result: Tuple[int, ...]) -> float:
    """Scalar projection for the KS statistic: the TID sum — monotone
    in insertion recency, so recency-biased samplers shift it."""
    return float(sum(result))


class QualityMonitor:
    """Streaming uniformity monitor for one engine.

    Built by :func:`monitor_for` when ``ServiceConfig(quality=...)`` /
    ``FollowerService(quality=...)`` is set: :meth:`note_ops` after
    every applied batch drives the probe schedule, :meth:`publish`
    surfaces the ``quality.*`` gauges, and :meth:`status` feeds
    ``/healthz`` and ``repro top``; flag transitions go to ``events``.
    """

    def __init__(self, engine, config: Optional[QualityConfig] = None,
                 obs=None, events=None):
        self.engine = engine
        self.config = config if config is not None else QualityConfig()
        self.obs = as_registry(obs)
        self.events = as_event_log(events)
        self._rng = random.Random(self.config.seed)
        self._ops_since_check = 0
        self._rounds: deque = deque(maxlen=self.config.window)
        self.probe_rounds = 0
        self.probes_drawn = 0
        self.skipped_rounds = 0
        self.flagged = False
        self.flag_count = 0
        self.last_chi_square = 0.0
        self.last_ks_ratio = 0.0

    # -- probe schedule -------------------------------------------------
    def note_ops(self, n: int) -> None:
        """Advance the op counter; runs probe rounds as they come due."""
        self._ops_since_check += n
        while self._ops_since_check >= self.config.check_every:
            self._ops_since_check -= self.config.check_every
            self.check_now()

    # -- probing --------------------------------------------------------
    def _draw_probes(self, total: int, count: int) -> List[Tuple[int, ...]]:
        """``count`` uniform join results, via the join-number bijection
        when the engine has a weighted join graph, else from a full
        enumeration (symmetric-join fallback)."""
        graph = getattr(self.engine, "graph", None)
        if graph is not None:
            from repro.graph.join_number import map_join_number
            return [
                map_join_number(graph, 0, self._rng.randrange(total))
                for _ in range(count)
            ]
        enumerate_all = getattr(self.engine, "_enumerate_all", None)
        if enumerate_all is None:
            raise InvalidArgumentError(
                f"engine {type(self.engine).__name__} supports neither "
                "join-number probing nor full enumeration")
        universe = list(enumerate_all())
        if not universe:
            return []
        return [self._rng.choice(universe) for _ in range(count)]

    def _member_weights(self, members) -> Optional[List[float]]:
        """Importance weights aligning synopsis members with the probe
        distribution, or ``None`` when members already match it.

        Probes are uniform over weighted units, i.e. weight-proportional
        over results — which is exactly the weighted family's target
        (and the uniform family's, where every weight is 1).  Subset
        members are instead included with ``pi(w) = 1-(1-p)**w``, so
        each carries the importance weight ``w / pi(w)``: its target
        mass over its inclusion mass.
        """
        if getattr(self.engine, "family", "uniform") != "subset":
            return None
        weights = []
        for member in members:
            w = float(self.engine.result_weight(member))
            pi = self.engine.inclusion_probability(member)
            weights.append(w / pi if pi else 0.0)
        return weights

    def check_now(self) -> Optional[dict]:
        """Run one probe round immediately.

        Returns the round's ``{"chi_square", "dof", "ks_ratio"}`` or
        ``None`` when the round was skipped below the size floors.
        """
        cfg = self.config
        total = self.engine.total_results()
        members = [tuple(s) for s in self.engine.raw_samples()]
        if total < cfg.min_results or len(members) < cfg.min_samples:
            self.skipped_rounds += 1
            return None
        probes = self._draw_probes(total, cfg.probes)
        if not probes:  # pragma: no cover - guarded by min_results
            self.skipped_rounds += 1
            return None
        self.probe_rounds += 1
        self.probes_drawn += len(probes)

        member_weights = self._member_weights(members)

        # chi-square over hash buckets of the full result tuple
        # (hash of an int tuple is deterministic across processes)
        a = [0.0] * cfg.buckets
        b = [0.0] * cfg.buckets
        for result in probes:
            a[hash(result) % cfg.buckets] += 1.0
        if member_weights is None:
            for result in members:
                b[hash(result) % cfg.buckets] += 1.0
            members_eff: float = float(len(members))
        else:
            for result, weight in zip(members, member_weights):
                b[hash(result) % cfg.buckets] += weight
            members_eff = effective_sample_size(member_weights)
            if members_eff <= 0:  # pragma: no cover - all-zero weights
                self.skipped_rounds += 1
                return None
        chi, dof = chi_square_two_sample(a, b)

        # KS over the recency-sensitive scalar projection
        d = ks_statistic([_projection(r) for r in probes],
                         [_projection(r) for r in members],
                         y_weights=member_weights)
        critical = ks_critical(len(probes), members_eff, cfg.alpha)
        ks_ratio = d / critical if critical > 0 else 0.0

        self.last_chi_square = chi
        self.last_ks_ratio = ks_ratio
        self._rounds.append((chi, dof, ks_ratio))
        self._update_flag()
        return {"chi_square": chi, "dof": dof, "ks_ratio": ks_ratio}

    def _update_flag(self) -> None:
        """Windowed decision: chi-square sums across independent rounds
        (mean=dof, var=2·dof under the null), KS ratios average."""
        if not self._rounds:
            self.flagged = False
            return
        total_chi = sum(r[0] for r in self._rounds)
        total_dof = sum(r[1] for r in self._rounds)
        mean_ks = sum(r[2] for r in self._rounds) / len(self._rounds)
        chi_limit = total_dof + self.config.sigma * math.sqrt(
            2.0 * max(1, total_dof))
        flagged = total_chi > chi_limit or mean_ks > 1.0
        if flagged and not self.flagged:
            self.flag_count += 1
            if self.events.enabled:
                self.events.emit(
                    "quality.flag", chi_square=total_chi, dof=total_dof,
                    ks_ratio=mean_ks, window_rounds=len(self._rounds),
                )
        elif self.flagged and not flagged and self.events.enabled:
            self.events.emit(
                "quality.clear", chi_square=total_chi, dof=total_dof,
                ks_ratio=mean_ks, window_rounds=len(self._rounds),
            )
        self.flagged = flagged

    # -- surfacing ------------------------------------------------------
    def windowed(self) -> dict:
        """The windowed aggregates driving the flag (any thread: the
        window is copied first)."""
        rounds = tuple(self._rounds)
        total_chi = sum(r[0] for r in rounds)
        total_dof = sum(r[1] for r in rounds)
        mean_ks = (sum(r[2] for r in rounds) / len(rounds)
                   if rounds else 0.0)
        return {
            "rounds": len(rounds),
            "chi_square": total_chi,
            "dof": total_dof,
            "ks_ratio": mean_ks,
        }

    def status(self) -> dict:
        """JSON-shaped summary for ``/healthz`` and ``repro top``."""
        win = self.windowed()
        return {
            "flagged": self.flagged,
            "flag_count": self.flag_count,
            "probe_rounds": self.probe_rounds,
            "probes_drawn": self.probes_drawn,
            "skipped_rounds": self.skipped_rounds,
            "chi_square": win["chi_square"],
            "chi_dof": win["dof"],
            "ks_ratio": win["ks_ratio"],
            "window_rounds": win["rounds"],
        }

    def publish(self, obs=None) -> None:
        """Set the ``quality.*`` gauges on ``obs`` (default: the
        monitor's own registry)."""
        registry = self.obs if obs is None else as_registry(obs)
        if not registry.enabled:
            return
        win = self.windowed()
        registry.gauge(metric_names.QUALITY_PROBE_ROUNDS).set(
            self.probe_rounds)
        registry.gauge(metric_names.QUALITY_PROBES_DRAWN).set(
            self.probes_drawn)
        registry.gauge(metric_names.QUALITY_CHI_SQUARE).set(
            win["chi_square"])
        registry.gauge(metric_names.QUALITY_KS_RATIO).set(win["ks_ratio"])
        registry.gauge(metric_names.QUALITY_FLAGGED).set(
            1 if self.flagged else 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"QualityMonitor(rounds={self.probe_rounds}, "
                f"flagged={self.flagged})")


def monitor_for(target, quality, obs=None,
                events=None) -> Optional[QualityMonitor]:
    """The monitor of whoever serves ``target``, or ``None``.

    ``quality`` is a :class:`QualityConfig`, ``True`` for the defaults,
    or falsy for no monitoring.  The probe target is the sole registered
    query's engine (the unnamed-read rule of
    :meth:`~repro.service.runtime.ReadView.sole_name`); with none or
    several there is no single engine to probe.  Call it again whenever
    the registration set changes: the window restarts, which is right —
    the old rounds probed an engine that is no longer "the" engine.
    """
    if not quality:
        return None
    names = target.names()
    if len(names) != 1:
        return None
    config = quality if isinstance(quality, QualityConfig) else None
    return QualityMonitor(target.maintainer(names[0]).engine, config,
                          obs=obs, events=events)
