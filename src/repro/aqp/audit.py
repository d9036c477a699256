"""Per-query AQP accuracy auditing: is the error bound honest?

Every :meth:`RegisteredQuery.estimate <repro.aqp.registry.
RegisteredQuery.estimate>` call records one :class:`AuditRecord` —
epoch, sample size, point estimate, CI width, estimate latency — into a
bounded per-query ring.  When exact ground truth is available it is
attached and scored: for an unfiltered, ungrouped ``COUNT`` on the
uniform and subset families, the snapshot's ``total`` *is* the exact
join cardinality ``J`` that the weighted join graph maintains
incrementally (Algorithm 2's root weight), so truth costs nothing — the
audit simply checks, estimate after estimate, whether the claimed
confidence interval actually contained ``J``.

Aggregating those checks per query yields the **realized CI coverage**,
which an honest estimator keeps near the nominal confidence of its
answers.  :class:`QueryAudit.coverage_flagged` trips when realized
coverage drifts below nominal by more than a binomial-noise allowance
(``z_slack`` standard errors) over at least ``min_events`` scored
events — a mis-calibrated estimator (understated variance, wrong
scale-up, broken metadata) flags within a handful of estimates, while
honest ones stay quiet.

Surfaces: ``aqp.*`` labeled metric children (``{query="<name>"}``), the
``GET /queries/<name>/audit`` endpoint, ``repro query audit`` on the
CLI, and ``aqp.coverage_drift`` events in the structured event log.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable, Dict, NamedTuple, Optional

from repro.errors import InvalidArgumentError
from repro.obs import names as metric_names
from repro.obs.events import as_event_log
from repro.obs.metrics import as_registry


class AuditConfig:
    """Tuning knobs for :class:`AccuracyAuditor` (frozen, kw-only).

    ``capacity``
        Per-query audit ring size.
    ``truth_every``
        Ground truth is attached to every N-th *eligible* estimate
        (default 1: the exact join count is maintained incrementally,
        so scoring is free — the knob exists for deployments that want
        sparser audit series).
    ``min_events``
        Scored events required before the coverage flag may trip.
    ``z_slack``
        Allowance below nominal coverage, in binomial standard errors.
    """

    __slots__ = ("capacity", "truth_every", "min_events", "z_slack")

    def __init__(self, *, capacity: int = 256, truth_every: int = 1,
                 min_events: int = 20, z_slack: float = 3.0):
        if capacity < 1:
            raise InvalidArgumentError(
                f"audit capacity must be >= 1, got {capacity}")
        if truth_every < 1:
            raise InvalidArgumentError(
                f"truth_every must be >= 1, got {truth_every}")
        if min_events < 1:
            raise InvalidArgumentError(
                f"min_events must be >= 1, got {min_events}")
        if z_slack < 0:
            raise InvalidArgumentError(
                f"z_slack must be >= 0, got {z_slack}")
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "truth_every", truth_every)
        object.__setattr__(self, "min_events", min_events)
        object.__setattr__(self, "z_slack", z_slack)

    def __setattr__(self, name, value):
        raise AttributeError(f"AuditConfig is immutable ({name!r})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__)
        return f"AuditConfig({fields})"


class AuditRecord:
    """One audited estimate (immutable by convention)."""

    __slots__ = ("seq", "at", "epoch", "agg", "sample_size", "estimate",
                 "ci_width", "confidence", "latency_ns", "truth",
                 "relative_error", "covered")

    def __init__(self, seq: int, at: float, epoch: Optional[int],
                 agg: str, sample_size: int, estimate: Optional[float],
                 ci_width: Optional[float], confidence: float,
                 latency_ns: int, truth: Optional[float],
                 relative_error: Optional[float],
                 covered: Optional[bool]):
        self.seq = seq
        self.at = at
        self.epoch = epoch
        self.agg = agg
        self.sample_size = sample_size
        self.estimate = estimate
        self.ci_width = ci_width
        self.confidence = confidence
        self.latency_ns = latency_ns
        self.truth = truth
        self.relative_error = relative_error
        self.covered = covered

    def to_dict(self) -> dict:
        """Plain JSON-serialisable form (the audit endpoint payload)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AuditRecord(#{self.seq} {self.agg} "
                f"estimate={self.estimate} covered={self.covered})")


class Tally(NamedTuple):
    """What a ring's scored records (those with a coverage verdict)
    add up to."""

    scored: int
    covered: int
    confidence: float       # sum of their nominal confidences

    @property
    def coverage(self) -> Optional[float]:
        """Realized CI coverage, None when nothing was scored."""
        return self.covered / self.scored if self.scored else None

    @property
    def nominal(self) -> Optional[float]:
        """Mean nominal confidence, None when nothing was scored."""
        return self.confidence / self.scored if self.scored else None


class QueryAudit:
    """The bounded audit ring and coverage state of one query."""

    def __init__(self, name: str, config: AuditConfig):
        self.name = name
        self.config = config
        self.ring: deque = deque(maxlen=config.capacity)
        self.estimates = 0          # every estimate() answered
        self.eligible = 0           # estimates with truth available
        self.audited = 0            # estimates actually scored
        self.coverage_flagged = False
        self.flag_count = 0

    # -- scoring --------------------------------------------------------
    def tally(self) -> Tally:
        """One pass over the ring: everything the flag, the gauges and
        :meth:`status` derive from the retained scored records."""
        scored = covered = 0
        confidence = 0.0
        for record in self.ring:
            if record.covered is not None:
                scored += 1
                covered += record.covered
                confidence += record.confidence
        return Tally(scored, covered, confidence)

    def coverage(self) -> Optional[float]:
        """Realized CI coverage over the retained scored records."""
        return self.tally().coverage

    def update_flag(self, tally: Tally) -> bool:
        """Re-evaluate the coverage drift flag; True on a transition
        from quiet to flagged."""
        if tally.scored < self.config.min_events:
            self.coverage_flagged = False
            return False
        nominal = tally.nominal
        # binomial-noise allowance: an honest estimator's realized
        # coverage is Binomial(n, nominal)/n, so demand a drift beyond
        # z_slack standard errors before raising the flag
        slack = self.config.z_slack * math.sqrt(
            nominal * (1.0 - nominal) / tally.scored)
        flagged = tally.coverage < nominal - slack
        transition = flagged and not self.coverage_flagged
        if transition:
            self.flag_count += 1
        self.coverage_flagged = flagged
        return transition

    def status(self) -> dict:
        """JSON-shaped summary for the audit endpoint and ``repro``."""
        tally = self.tally()
        return {
            "name": self.name,
            "estimates": self.estimates,
            "eligible": self.eligible,
            "audited": self.audited,
            "retained": len(self.ring),
            "coverage": tally.coverage,
            "nominal_confidence": tally.nominal,
            "coverage_flagged": self.coverage_flagged,
            "flag_count": self.flag_count,
        }


class AccuracyAuditor:
    """Audit every estimate across all registered queries.

    Owned by :class:`~repro.aqp.registry.QueryRegistry`; one
    :class:`QueryAudit` ring per query name, ``aqp.*`` labeled metric
    children on the shared registry, and ``aqp.coverage_drift`` events
    on flag transitions.
    """

    def __init__(self, obs=None, events=None,
                 config: Optional[AuditConfig] = None,
                 clock: Callable[[], float] = time.time):
        self.obs = as_registry(obs)
        self.events = as_event_log(events)
        self.config = config if config is not None else AuditConfig()
        self.clock = clock
        self._queries: Dict[str, QueryAudit] = {}

    # ------------------------------------------------------------------
    def query_audit(self, name: str) -> QueryAudit:
        audit = self._queries.get(name)
        if audit is None:
            audit = QueryAudit(name, self.config)
            self._queries[name] = audit
        return audit

    def observe(self, name: str, payload: dict, latency_ns: int,
                truth: Optional[float] = None) -> AuditRecord:
        """Record one answered estimate; score it when truth is given."""
        audit = self.query_audit(name)
        audit.estimates += 1
        ci = payload.get("ci")
        estimate = payload.get("value")
        covered = None
        relative_error = None
        if truth is not None:
            audit.eligible += 1
            if (audit.eligible - 1) % self.config.truth_every:
                truth = None  # off-schedule: record unscored
        if truth is not None:
            audit.audited += 1
            if ci is not None:
                covered = ci[0] <= truth <= ci[1]
            if estimate is not None:
                relative_error = (abs(estimate - truth) / truth
                                  if truth else abs(float(estimate)))
        record = AuditRecord(
            seq=audit.estimates, at=self.clock(),
            epoch=payload.get("epoch"), agg=payload.get("agg", "count"),
            sample_size=payload.get("sample_size", 0),
            estimate=estimate,
            ci_width=(ci[1] - ci[0]) if ci is not None else None,
            confidence=payload.get("confidence", 0.95),
            latency_ns=latency_ns, truth=truth,
            relative_error=relative_error, covered=covered,
        )
        audit.ring.append(record)
        # one pass of the ring per estimate, shared by the flag, the
        # gauges and the drift event
        tally = audit.tally()
        transition = audit.update_flag(tally)
        self._publish(name, audit, record, tally.coverage)
        if transition and self.events.enabled:
            self.events.emit(
                "aqp.coverage_drift", query=name,
                coverage=tally.coverage, nominal=tally.nominal,
                scored=tally.scored,
            )
        return record

    def _publish(self, name: str, audit: QueryAudit, record: AuditRecord,
                 coverage: Optional[float]) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        obs.counter(metric_names.AQP_ESTIMATES).labels(query=name).inc()
        obs.histogram(metric_names.AQP_ESTIMATE_NS).labels(
            query=name).observe(record.latency_ns)
        if record.covered is not None:
            obs.counter(metric_names.AQP_AUDITED).labels(query=name).inc()
        if record.relative_error is not None:
            obs.gauge(metric_names.AQP_RELATIVE_ERROR).labels(
                query=name).set(record.relative_error)
        if coverage is not None:
            obs.gauge(metric_names.AQP_COVERAGE).labels(
                query=name).set(coverage)
        obs.gauge(metric_names.AQP_COVERAGE_FLAGGED).labels(
            query=name).set(1 if audit.coverage_flagged else 0)

    # ------------------------------------------------------------------
    def payload(self, name: str, limit: Optional[int] = None) -> dict:
        """The ``GET /queries/<name>/audit`` JSON body."""
        audit = self.query_audit(name)
        records = list(audit.ring)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        body = audit.status()
        body["records"] = [r.to_dict() for r in records]
        return body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AccuracyAuditor(queries={len(self._queries)})"
