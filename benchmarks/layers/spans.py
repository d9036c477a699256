"""Spans recorded by the benchmark around its calls into each layer.

A span is ``{id, name, start_ns, end_ns, parent, workload}``; ``parent``
is the id of the span that caused it (``null`` at the root) and every
span of one run carries the same ``workload`` identifier.  Spans are
kept in memory and written to ``spans.jsonl`` once, when the run ends —
nothing touches the disk inside a timed region.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collect spans for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None) -> int:
        """Record an already-timed span; returns its id.

        ``parent`` defaults to the innermost open :meth:`span`.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "start_ns": start_ns,
            "end_ns": end_ns, "parent": parent, "workload": self.workload,
        })
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a block; spans opened or added inside become children."""
        span_id = self.add(name, time.perf_counter_ns(), 0)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end_ns"] = time.perf_counter_ns()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time in seconds per span name: duration minus children.

    Siblings issued by one thread never overlap, so the children's
    covered interval is their sum.  The one exception is ``http``: its
    ``http.write`` and ``http.read`` children come from two concurrent
    connections, so its self time is not meaningful.
    """
    covered: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0)
                                       + span["end_ns"] - span["start_ns"])
    out: Dict[str, float] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - covered.get(span["id"], 0)
        out[span["name"]] = out.get(span["name"], 0.0) + own / 1e9
    return out
