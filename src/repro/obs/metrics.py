"""Zero-dependency metrics instruments and the registry that owns them.

The hot-path contract: every instrument method on the no-op variants is a
plain ``pass``, and :class:`NullRegistry` (the default everywhere) exposes
``enabled = False`` so maintenance code can guard an entire timing block
behind a single attribute check.  Enabling observability is therefore a
construction-time decision (pass a real :class:`MetricsRegistry`), never a
per-call branch in library code.

Instruments:

* :class:`Counter` — monotonically increasing integer;
* :class:`Gauge` — last-write-wins value (used for sizes published at
  snapshot time);
* :class:`Histogram` — fixed log2-scale buckets over non-negative values
  with exact count/sum/min/max and bucket-resolution p50/p95/p99;
* :class:`Timer` — context manager recording elapsed clock ticks into a
  histogram; the clock is injectable so tests get deterministic timings.

Every instrument owned by a registry can fan out into **labeled
children** (``registry.counter(name).labels(query="q1")``): a child is a
full instrument of the same type, registered in the same flat namespace
under the canonical key ``name{k="v",...}``, so ``snapshot()`` stays a
plain JSON-able dict and the exposition layer can render proper
Prometheus label sets.  Cardinality is bounded per family
(:attr:`MetricsRegistry.DEFAULT_MAX_LABEL_CHILDREN`); once the bound is
hit, new label sets collapse into one shared overflow child (label
values ``__other__``) instead of growing the registry without limit.
On the null registry, ``labels()`` returns the shared no-op instrument —
a disabled labeled child costs exactly as much as a disabled flat one:
nothing.

``snapshot()`` on a registry returns plain dicts of ints/floats/strings —
directly ``json.dumps``-able, which is what the CLI and the benchmark
export rely on.

The registry is also the one timing channel.  A *stage* — an engine
insert segment or delete run, a WAL append, a snapshot write, an ingest
batch, a ship round, a follower apply — reads :attr:`MetricsRegistry.clock`
once, sums its phases once and calls :meth:`MetricsRegistry.report`
once: durations go into the histograms of the catalogue, and a stage
that reached ``slow_op_threshold_ns`` is additionally written as one
``trace.slow_op`` event to the registry's :class:`~repro.obs.events.EventLog`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import InvalidArgumentError, ReproError
from repro.obs import names as metric_names
from repro.obs.events import as_event_log


class MetricError(ReproError):
    """An instrument was re-registered under a different type."""


#: label value all children of a family collapse to once the per-family
#: cardinality bound is reached (one shared overflow child per family).
OVERFLOW_LABEL_VALUE = "__other__"


def _escape_label_value(value: str) -> str:
    """Escape a label value for the canonical key / exposition form."""
    return (value.replace("\\", r"\\")
            .replace('"', r'\"')
            .replace("\n", r"\n"))


def format_label_key(name: str, labels: Mapping[str, object]) -> str:
    """The canonical registry key of a labeled child.

    Label names are sorted so the same label set always maps to the same
    key regardless of keyword order; values are stringified and escaped
    the way the Prometheus text format expects.
    """
    body = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return f"{name}{{{body}}}"


class _Labelable:
    """Mixin giving registry-owned instruments a ``labels()`` fan-out."""

    __slots__ = ()

    def labels(self, **labels):
        """The child instrument bound to this label set (get-or-create).

        Children are real instruments of the same type living in the
        owning registry under ``name{k="v",...}``; a child cannot be
        labeled further.
        """
        registry = self._registry
        if registry is None:
            raise MetricError(
                f"metric {self.name!r} is not owned by a registry; "
                "labels() is only available on registry-created "
                "instruments"
            )
        return registry._labeled(self.name, type(self), labels)


class Counter(_Labelable):
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value", "_registry", "label_set")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._registry = None
        self.label_set = None

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        snap = {"type": "counter", "value": self.value}
        if self.label_set:
            snap["labels"] = dict(self.label_set)
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge(_Labelable):
    """A last-write-wins value (sizes, totals published at read time)."""

    __slots__ = ("name", "value", "_registry", "label_set")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._registry = None
        self.label_set = None

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        snap = {"type": "gauge", "value": self.value}
        if self.label_set:
            snap["labels"] = dict(self.label_set)
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


#: one bucket per power of two; bucket ``k`` holds values in
#: ``[2**(k-1), 2**k)`` (bucket 0 holds values < 1, e.g. zero durations).
NUM_BUCKETS = 64


def bucket_of(value) -> int:
    """The log2 bucket index of a non-negative value."""
    if value < 1:
        return 0
    idx = int(value).bit_length()
    return idx if idx < NUM_BUCKETS else NUM_BUCKETS - 1


def bucket_upper_bound(idx: int) -> int:
    """Largest integer value that lands in bucket ``idx``."""
    if idx == 0:
        return 0
    return 2 ** idx - 1


class Histogram(_Labelable):
    """Fixed log2-scale histogram over non-negative values.

    Exact ``count``/``sum``/``min``/``max`` are tracked alongside the
    buckets; percentiles are resolved to the upper bound of the bucket
    containing the requested rank (i.e. within a factor of two — the
    standard trade-off for constant-memory latency histograms).
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets",
                 "_registry", "label_set")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * NUM_BUCKETS
        self._registry = None
        self.label_set = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bucket_of(value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank,
        clamped to the exact observed ``[min, max]`` range.

        Edge cases are pinned (see ``tests/test_obs.py``): an *empty*
        histogram returns ``0.0`` for every quantile, and a
        *single-observation* histogram returns exactly that observation
        — never a bucket-upper-bound surprise like ``observe(5)``
        reporting a p50 of ``7.0``.  The clamp also means no percentile
        can exceed the true maximum (or undercut the true minimum) even
        though buckets are log2-coarse.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for idx, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                value = float(bucket_upper_bound(idx))
                return min(max(value, float(self.min)), float(self.max))
        return float(self.max)  # pragma: no cover - defensive

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.buckets = [0] * NUM_BUCKETS

    def snapshot(self) -> dict:
        snap = {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": {
                str(bucket_upper_bound(idx)): n
                for idx, n in enumerate(self.buckets) if n
            },
        }
        if self.label_set:
            snap["labels"] = dict(self.label_set)
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, count={self.count})"


class Timer:
    """Context manager recording elapsed clock ticks into a histogram
    (``with registry.timer(name): ...``; one timer, one block)."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: Histogram,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self._histogram = histogram
        self._clock = clock
        self._start = 0

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(self._clock() - self._start)
        return False


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Instruments are identified by name; requesting an existing name with a
    different instrument type raises :class:`MetricError` (a registry is a
    flat, typed namespace — the names are a stable contract, see
    :mod:`repro.obs.names`).  Labeled children live in the same namespace
    under ``name{k="v",...}`` keys and are reached only through
    ``instrument.labels(...)``; the per-family child count is bounded by
    :attr:`DEFAULT_MAX_LABEL_CHILDREN` (overflow collapses into one
    shared child).

    ``events`` is the event log of everything observed through this
    registry: the quality monitor, the AQP audit and a follower emit
    their events to it.  With ``slow_op_threshold_ns`` it also arms
    slow-stage promotion (:meth:`report`): a reported stage whose
    duration reaches the threshold — inclusive, so 0 promotes every
    stage; ``None`` (default) promotes none — becomes one
    ``trace.slow_op`` event in ``events`` and one tick of the
    ``trace.slow_ops`` gauge.
    """

    enabled = True

    #: per-family bound on distinct labeled children.
    DEFAULT_MAX_LABEL_CHILDREN = 64

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 events=None, slow_op_threshold_ns: Optional[int] = None):
        if slow_op_threshold_ns is not None and slow_op_threshold_ns < 0:
            raise InvalidArgumentError(
                "slow_op_threshold_ns must be >= 0 or None, got "
                f"{slow_op_threshold_ns}")
        self.clock = clock
        self.events = as_event_log(events)
        self.slow_op_threshold_ns = slow_op_threshold_ns
        self._instruments: Dict[str, object] = {}
        self._family_sizes: Dict[str, int] = {}
        # who counts promotions: a child counts on its parent
        self._root: "MetricsRegistry" = self

    def child(self) -> "MetricsRegistry":
        """A registry of its own instruments that times and promotes
        like this one: same clock, threshold and event log, slow ops
        counted here.  What a manager hands each registered query, so
        per-engine names never collide across queries."""
        child = MetricsRegistry(self.clock, self.events,
                                self.slow_op_threshold_ns)
        child._root = self._root
        return child

    # -- the timing channel ---------------------------------------------
    def report(self, op: str, duration_ns: int,
               phases: Optional[Mapping[str, int]] = None, *,
               target: Optional[str] = None, batch: int = 1,
               **notes) -> None:
        """Report one finished stage, once.

        ``duration_ns`` is observed into the histogram named ``op`` and
        every item of ``phases`` into the histogram its key names.  A
        stage whose own histogram times one of its phases (the ingest
        batch: ``service.ingest_batch_ns`` ends before the publish)
        lists ``op`` among the phases and is not observed twice.  A
        duration that reaches :attr:`slow_op_threshold_ns` is promoted:
        one ``trace.slow_op`` event with ``op``, ``target``, ``batch``,
        ``duration_ns``, ``phases`` and the stage's ``notes``.
        """
        histogram = self.histogram
        if phases:
            for name, elapsed in phases.items():
                histogram(name).observe(elapsed)
        if not phases or op not in phases:
            histogram(op).observe(duration_ns)
        threshold = self.slow_op_threshold_ns
        if threshold is not None and duration_ns >= threshold:
            self._root.gauge(metric_names.TRACE_SLOW_OPS).inc()
            self.events.emit(
                "trace.slow_op", op=op, target=target, batch=batch,
                duration_ns=duration_ns, phases=dict(phases or ()),
                **notes)

    # -- get-or-create --------------------------------------------------
    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            instrument._registry = self
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise MetricError(
                f"metric {name!r} is a {type(instrument).kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def _flat(self, name: str, cls):
        if "{" in name:
            raise MetricError(
                f"metric name {name!r} carries a label set; register the "
                "flat family name and use .labels(...) for children"
            )
        return self._get(name, cls)

    def _labeled(self, base: str, cls, labels: Mapping[str, object]):
        """Get-or-create the child of ``base`` for ``labels``."""
        if not labels:
            raise MetricError(
                f"labels() on {base!r} needs at least one label")
        if "{" in base:
            raise MetricError(
                f"metric {base!r} is already a labeled child; children "
                "cannot be labeled further"
            )
        for key in labels:
            if not key.isidentifier():
                raise MetricError(
                    f"label name {key!r} on {base!r} is not a valid "
                    "identifier"
                )
        key = format_label_key(base, labels)
        if key not in self._instruments:
            size = self._family_sizes.get(base, 0)
            if size >= self.DEFAULT_MAX_LABEL_CHILDREN:
                # cardinality bound: collapse into the per-family
                # overflow child instead of growing without limit
                labels = {k: OVERFLOW_LABEL_VALUE for k in labels}
                key = format_label_key(base, labels)
            if key not in self._instruments:
                self._family_sizes[base] = size + 1
        child = self._get(key, cls)
        if child.label_set is None:
            child.label_set = {k: str(v) for k, v in sorted(labels.items())}
        return child

    def counter(self, name: str) -> Counter:
        return self._flat(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._flat(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._flat(name, Histogram)

    def timer(self, name: str, **labels) -> Timer:
        """A timer over the histogram registered under ``name``.

        With keyword labels, the timer records into the labeled child
        instead of the flat family head.
        """
        histogram = self._flat(name, Histogram)
        if labels:
            histogram = histogram.labels(**labels)
        return Timer(histogram, self.clock)

    # -- introspection --------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as plain JSON-serialisable dicts."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def reset(self) -> None:
        """Zero every instrument (references held by engines stay valid)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}"
                f"(instruments={len(self._instruments)})")


class _NullInstrument:
    """No-op stand-in for every instrument type (and for Timer)."""

    __slots__ = ()
    kind = "null"

    def labels(self, **labels) -> "_NullInstrument":
        return self

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is one shared no-op object.

    ``enabled`` is False, so hot paths can skip clock reads with a single
    attribute check; code that does not bother checking still works — all
    instrument methods are no-ops.
    """

    enabled = False

    def __init__(self):
        super().__init__(clock=lambda: 0)

    def child(self) -> "NullRegistry":
        return self

    def report(self, op: str, duration_ns: int, phases=None,
               **fields) -> None:
        pass

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str):
        return _NULL_INSTRUMENT

    def timer(self, name: str, **labels):
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, dict]:
        return {}


#: process-wide shared no-op registry — the default ``obs`` everywhere.
NULL_REGISTRY = NullRegistry()


def as_registry(obs: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalise an optional ``obs`` argument: None means disabled."""
    return obs if obs is not None else NULL_REGISTRY
