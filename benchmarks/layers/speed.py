"""Machine-speed probe: why in-process timings are speed-normalised.

The 2-vCPU sandbox this benchmark runs in does not have one speed.  A
neighbour on the host core switches each vCPU between two modes about
1.5x apart, for seconds to minutes at a time: a fixed pure-Python loop
takes 0.22 ms or 0.35 ms, an engine pass 1.4 s or 2.1 s.  Raw clock
values of ten runs then spread (quartile distance over median) by
24-39% (``raw_*`` samples of ``baselines/pr11.json``), wider than the
widest regression bound the benchmark contract allows (25%), so the
issue's fallback — demote what does not repeat — would demote every
timing and leave no benchmark.

So the benchmark measures the machine while it measures the program.
:func:`pinned` keeps the in-process rungs on one CPU, so the probe
samples the CPU the work runs on (the service's ingest thread
included).  A :class:`SpeedProbe` times a fixed kernel of
interpreter-bound work — dict, tuple, list and ``bisect`` traffic,
nothing from ``repro`` — between front-door calls, at most every
:data:`PROBE_EVERY_NS`, and every duration is multiplied by
``PROBE_REF_S / (median probe time around it)``.  A reported time is
"what this took at the speed at which the kernel takes
:data:`PROBE_REF_S`"; that constant is a definition of the unit, not a
measurement.  The kernel never changes with the repo, so a faster
engine still reads faster; raw clock values stay in ``spans.jsonl`` and
in the ``raw_*`` samples printed with every run.

A probe is always taken *warm*: right after a front-door call the
caches hold the stack's working set, and a single kernel run reads
10-25% slow, most after a call that crossed to the service's ingest
thread.  A sample therefore runs the kernel :data:`WARM_RUNS` times to
refill the caches and keeps only the next run; that reading is the same
(within 1%) idle, after a ``PersistentManager`` call and after a
``SynopsisService`` call.  ``compare.py`` checks the consequence: no
rung may read faster than the rung it wraps.

What the factor is wrong for.  The slow mode does not slow all code
alike: measured slow/fast, the kernel reads 1.49, an engine batch 1.39,
a filtered-COUNT estimate 1.64, so memory-heavy paths keep a residue of
up to 10% that a scalar factor cannot remove (the bounds allow for it).
Fsync and thread wake-ups are not CPU-bound; they are a few
microseconds per op here and are scaled along with the rest.  The HTTP
window's latency is set by a 40 ms kernel timer and is *not* normalised.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: the probe kernel's duration all reported times are normalised to
#: (this sandbox's fast mode, rounded)
PROBE_REF_S = 250e-6
#: probe at most this often inside a timed loop (~4% of the wall time)
PROBE_EVERY_NS = 25_000_000
#: kernel runs that only refill the caches before the one that is timed
WARM_RUNS = 2
#: probes taken into a factor on either side of the measured interval
MARGIN = 2


def kernel() -> int:
    """Fixed interpreter-bound work; must never import from ``repro``."""
    index: dict = {}
    order: list = []
    ranked: list = []
    for i in range(400):
        key = (i * 7919 % 1013, i)
        index[key] = i
        order.append(key)
        bisect.insort(ranked, key)
    total = 0
    for key in order:
        total += index[key] + ranked[key[1] & 255][0]
    return total


class SpeedProbe:
    """Timestamps and durations of the warm probe kernel along one rung."""

    def __init__(self) -> None:
        self.at_ns: List[int] = []
        self.took_s: List[float] = []

    def sample(self, count: int = 1) -> int:
        """Take ``count`` warm samples; returns the clock after them."""
        for _ in range(count):
            for _ in range(WARM_RUNS):
                kernel()
            t0 = time.perf_counter_ns()
            kernel()
            t1 = time.perf_counter_ns()
            self.at_ns.append(t0)
            self.took_s.append((t1 - t0) / 1e9)
        return t1

    def factor(self, start_ns: int, end_ns: int) -> float:
        """What to multiply a duration measured over ``[start, end]`` by:
        the reference probe time over the median of the probes from
        ``MARGIN`` before ``start`` to ``MARGIN`` after ``end``."""
        lo = max(bisect.bisect_left(self.at_ns, start_ns) - MARGIN, 0)
        hi = bisect.bisect_right(self.at_ns, end_ns) + MARGIN
        return PROBE_REF_S / statistics.median(self.took_s[lo:hi])


@contextmanager
def pinned() -> Iterator[None]:
    """Keep this process on one CPU for the duration of the block.

    Affinity is inherited by child processes, so the server subprocess
    is only ever launched outside this block.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
