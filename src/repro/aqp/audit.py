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
(:data:`Z_SLACK` standard errors) over at least :data:`MIN_EVENTS`
scored events — a mis-calibrated estimator (understated variance, wrong
scale-up, broken metadata) flags within a handful of estimates, while
honest ones stay quiet.

Surfaces: ``aqp.*`` labeled metric children (``{query="<name>"}``), the
``GET /queries/<name>/audit`` endpoint, ``repro query audit`` on the
CLI, and ``aqp.coverage_drift`` events in the structured event log.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Dict, NamedTuple, Optional

from repro.obs import names as metric_names
from repro.obs.metrics import as_registry


#: per-query audit ring size
CAPACITY = 256
#: scored events required before the coverage flag may trip
MIN_EVENTS = 20
#: allowance below nominal coverage, in binomial standard errors
Z_SLACK = 3.0


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

    def __init__(self, name: str):
        self.name = name
        self.ring: deque = deque(maxlen=CAPACITY)
        self.estimates = 0          # every estimate() answered
        self.eligible = 0           # estimates with truth available
        self.audited = 0            # estimates actually scored
        self.coverage_flagged = False
        self.flag_count = 0
        # the ring's scored records, counted as they enter and leave;
        # confidences per value, so their total is order-independent
        self._scored = self._covered = 0
        self._confidences: Dict[float, int] = {}
        self._tally = Tally(0, 0, 0.0)

    # -- scoring --------------------------------------------------------
    def append(self, record: AuditRecord) -> Tally:
        """Put ``record`` in the ring and return the ring's tally, kept
        running: O(1) per estimate whatever the ring holds."""
        ring = self.ring
        changed = self._count(record, 1)
        if len(ring) == ring.maxlen:
            changed |= self._count(ring[0], -1)
        ring.append(record)
        if changed:
            self._tally = Tally(self._scored, self._covered, math.fsum(
                confidence * count
                for confidence, count in self._confidences.items()))
        return self._tally

    def _count(self, record: AuditRecord, sign: int) -> bool:
        if record.covered is None:
            return False
        self._scored += sign
        self._covered += sign * record.covered
        confidences = self._confidences
        left = confidences.get(record.confidence, 0) + sign
        if left:
            confidences[record.confidence] = left
        else:
            del confidences[record.confidence]
        return True

    def tally(self) -> Tally:
        """Everything the flag, the gauges and :meth:`status` derive
        from the retained scored records: the running tally."""
        return self._tally

    def coverage(self) -> Optional[float]:
        """Realized CI coverage over the retained scored records."""
        return self.tally().coverage

    def update_flag(self, tally: Tally) -> bool:
        """Re-evaluate the coverage drift flag; True on a transition
        from quiet to flagged."""
        if tally.scored < MIN_EVENTS:
            self.coverage_flagged = False
            return False
        nominal = tally.nominal
        # binomial-noise allowance: an honest estimator's realized
        # coverage is Binomial(n, nominal)/n, so demand a drift beyond
        # Z_SLACK standard errors before raising the flag
        slack = Z_SLACK * math.sqrt(
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
    children on ``obs``, and ``aqp.coverage_drift`` events in its event
    log on flag transitions.

    Estimates arrive on every thread the front door serves, so
    :meth:`observe` and :meth:`payload` hold one lock: a ring is never
    walked while another thread appends to it, and no count is lost.
    """

    def __init__(self, obs=None, clock: Callable[[], float] = time.time):
        self.obs = as_registry(obs)
        self.clock = clock
        self._queries: Dict[str, QueryAudit] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def query_audit(self, name: str) -> QueryAudit:
        """The ring of ``name``, created on first use (unlocked: the
        auditor's own callers hold its lock)."""
        audit = self._queries.get(name)
        if audit is None:
            audit = QueryAudit(name)
            self._queries[name] = audit
        return audit

    def observe(self, name: str, payload: dict, latency_ns: int,
                truth: Optional[float] = None) -> AuditRecord:
        """Record one answered estimate; score it when truth is given."""
        with self._lock:
            return self._observe(name, payload, latency_ns, truth)

    def _observe(self, name: str, payload: dict, latency_ns: int,
                 truth: Optional[float]) -> AuditRecord:
        audit = self.query_audit(name)
        audit.estimates += 1
        ci = payload.get("ci")
        estimate = payload.get("value")
        covered = None
        relative_error = None
        if truth is not None:
            audit.eligible += 1
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
        # the flag, the gauges and the drift event share one tally,
        # kept running as records enter and leave the ring
        tally = audit.append(record)
        transition = audit.update_flag(tally)
        self._publish(name, audit, record, tally.coverage)
        if transition and self.obs.events.enabled:
            self.obs.events.emit(
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
        with self._lock:
            audit = self.query_audit(name)
            records = list(audit.ring)
            body = audit.status()
        if limit is not None and limit >= 0:
            records = records[-limit:]
        body["records"] = [r.to_dict() for r in records]
        return body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AccuracyAuditor(queries={len(self._queries)})"
