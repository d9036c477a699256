"""repro.obs — lightweight observability for the maintenance path.

A zero-dependency metrics layer: a :class:`MetricsRegistry` of named
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments, a
:class:`Timer` context manager with an injectable monotonic clock, and a
shared no-op :data:`NULL_REGISTRY` so that observability-off costs one
attribute check on the hot path.  The registry is the one timing
channel: every stage of the stack is timed once and reported through
:meth:`MetricsRegistry.report`, and a stage that reaches the registry's
``slow_op_threshold_ns`` is written to its event log as well.

Usage::

    from repro.obs import MetricsRegistry
    from repro import Database, JoinSynopsisMaintainer, MaintainerConfig

    obs = MetricsRegistry()
    m = JoinSynopsisMaintainer(db, sql, MaintainerConfig(obs=obs))
    ...
    print(obs.snapshot()["engine.insert.graph_ns"]["p95"])

Three sibling layers complete the picture:

* :mod:`repro.obs.expo` — Prometheus/OpenMetrics text rendering of a
  registry snapshot (:func:`render_exposition`), what ``GET /metrics``
  and ``repro metrics`` serve;
* :mod:`repro.obs.quality` — an online sample-quality monitor
  (:class:`QualityMonitor`) probing the synopsis against uniform draws
  from the join-number bijection;
* :mod:`repro.obs.events` — a structured JSON event log
  (:class:`EventLog` / shared no-op :data:`NULL_EVENTS`) that quality
  flags, audit anomalies, replication stalls, and slow stages all
  feed; served by ``GET /events`` and ``repro events``.

Metric names are a stable contract; see :mod:`repro.obs.names` and
``docs/observability.md`` for the catalogue.
"""

from repro.obs import names
from repro.obs.events import (
    NULL_EVENTS,
    Event,
    EventLog,
    NullEventLog,
    as_event_log,
)
from repro.obs.expo import CONTENT_TYPE as EXPOSITION_CONTENT_TYPE
from repro.obs.expo import render_exposition
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    Timer,
    as_registry,
    format_label_key,
)
from repro.obs.quality import QualityConfig, QualityMonitor

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Timer",
    "as_registry",
    "format_label_key",
    "Event",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "as_event_log",
    "names",
    "render_exposition",
    "EXPOSITION_CONTENT_TYPE",
    "QualityConfig",
    "QualityMonitor",
]
