"""Structured JSON event log for notable (non-per-op) occurrences.

Metrics aggregate; the event log records the *rare, operator-relevant*
moments: a quality monitor raising or clearing its bias flag, an AQP
query whose realized CI coverage drifted below its nominal confidence,
a replication stream stalling or re-bootstrapping, a stage that reached
the registry's slow-op threshold (``trace.slow_op``, see
:meth:`~repro.obs.metrics.MetricsRegistry.report`), an ingest loop
dying.  Each :class:`Event` is a small JSON-shaped record (monotonic
sequence number, wall-clock timestamp, dotted ``kind``, free-form
``fields``) kept in a bounded ring — a preallocated slot list written
by index store (atomic under the interpreter lock), no mutex on emit,
copy-on-read snapshots — and mirrored as one JSON line through
:mod:`logging` (logger ``repro.events``) so existing log pipelines pick
events up without any scrape integration.

Surfaces: ``GET /events`` on the HTTP front end, ``repro events`` on the
CLI, and the ``events.emitted`` / ``events.dropped`` gauges published
into a metrics registry on read.

The hot-path contract matches the rest of :mod:`repro.obs`: the shared
:data:`NULL_EVENTS` exposes ``enabled = False`` and a no-op ``emit``, so
an undeployed event log costs one attribute check (or one no-op call).
"""

from __future__ import annotations

import json
import logging
import time
from typing import Callable, List, Optional

from repro.errors import InvalidArgumentError
from repro.obs import names as metric_names

_LOG = logging.getLogger("repro.events")


class Event:
    """One sealed event record (immutable by convention)."""

    __slots__ = ("seq", "at", "kind", "fields")

    def __init__(self, seq: int, at: float, kind: str, fields: dict):
        self.seq = seq
        self.at = at
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> dict:
        """Plain JSON-serialisable form (the log-sink payload)."""
        out = {"seq": self.seq, "at": self.at, "kind": self.kind}
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(#{self.seq} {self.kind} at={self.at})"


def _log_sink(event_dict: dict) -> None:
    """Default sink: one structured JSON line via logging."""
    _LOG.info("%s", json.dumps(event_dict, sort_keys=True))


class EventLog:
    """Bounded ring of the most recent :class:`Event` records.

    A preallocated slot list plus a monotonically increasing write
    cursor, so ``emit`` never takes a lock and readers get copy-on-read
    snapshots.  Once full, the oldest event is overwritten (counted in
    :attr:`dropped`).

    Parameters
    ----------
    capacity:
        Ring size — how many recent events are retained.
    clock:
        Wall-clock (``time.time``-like); injectable for deterministic
        tests.
    sink:
        Callable receiving every emitted event as a plain dict;
        default logs one JSON line on the ``repro.events`` logger at
        INFO (silence it with ``sink=lambda payload: None``).
    """

    enabled = True

    def __init__(self, capacity: int = 512,
                 clock: Callable[[], float] = time.time,
                 sink: Optional[Callable[[dict], None]] = None):
        if capacity < 1:
            raise InvalidArgumentError(
                f"event log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.sink = sink if sink is not None else _log_sink
        self._slots: List[Optional[Event]] = [None] * capacity
        self._count = 0

    # -- recording ------------------------------------------------------
    def emit(self, kind: str, **fields) -> Event:
        """Record one event and mirror it to the sink."""
        event = Event(self._count, self.clock(), kind, fields)
        self._slots[self._count % self.capacity] = event
        self._count += 1
        self.sink(event.to_dict())
        return event

    # -- introspection --------------------------------------------------
    @property
    def emitted(self) -> int:
        """Total events ever emitted (including overwritten ones)."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        return max(0, self._count - self.capacity)

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events, oldest first (a copy); optionally only
        those whose ``kind`` starts with the given dotted prefix."""
        count = self._count
        start = max(0, count - self.capacity)
        out = []
        for i in range(start, count):
            event = self._slots[i % self.capacity]
            if event is None or event.seq < start:
                continue
            if kind is not None and not (
                    event.kind == kind
                    or event.kind.startswith(kind + ".")):
                continue
            out.append(event)
        return out

    def payload(self, kind: Optional[str] = None) -> dict:
        """The ``GET /events`` JSON body."""
        return {
            "events": [e.to_dict() for e in self.events(kind)],
            "emitted": self.emitted,
            "dropped": self.dropped,
        }

    def publish(self, obs) -> None:
        """Set the ``events.*`` gauges on registry ``obs``."""
        if not obs.enabled:
            return
        obs.gauge(metric_names.EVENTS_EMITTED).set(self.emitted)
        obs.gauge(metric_names.EVENTS_DROPPED).set(self.dropped)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EventLog(capacity={self.capacity}, "
                f"emitted={self.emitted})")


class NullEventLog:
    """The disabled event log: ``enabled = False``, ``emit`` a no-op.

    Mirrors :class:`~repro.obs.metrics.NullRegistry` — emitters guard
    behind one ``events.enabled`` attribute check; code that does not
    bother checking still works, at the cost of a no-op call.
    """

    enabled = False
    emitted = 0
    dropped = 0

    def emit(self, kind: str, **fields) -> None:
        return None

    def events(self, kind: Optional[str] = None) -> List[Event]:
        return []

    def payload(self, kind: Optional[str] = None) -> dict:
        return {"events": [], "emitted": 0, "dropped": 0}

    def publish(self, obs) -> None:
        return None


#: process-wide shared no-op event log — the default everywhere.
NULL_EVENTS = NullEventLog()


def as_event_log(events) -> "EventLog":
    """Normalise an optional ``events`` argument: None means disabled."""
    return events if events is not None else NULL_EVENTS
