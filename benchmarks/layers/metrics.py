"""Every metric the benchmark reports, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place where names,
units, directions and bounds are declared; ``README.md`` in this
directory says what each metric measures and which end-to-end metric
it should move.  Later issues refer to metrics by exactly these names.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
from typing import Dict, List, Sequence, Tuple

CONTRACT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, os.pardir, "BENCHMARK.json")


@dataclasses.dataclass(frozen=True)
class Declared:
    """What ``BENCHMARK.json`` declares."""

    #: (name, unit, better, bound as a share of the parent's median)
    end_to_end: Tuple[Tuple[str, str, str, float], ...]
    #: (name, unit, better)
    per_layer: Tuple[Tuple[str, str, str], ...]
    #: workload name -> why it was chosen
    why: Dict[str, str]
    #: measuring budget of one run, in seconds
    run_seconds: int

    @property
    def units(self) -> Dict[str, str]:
        return {name: unit
                for name, unit, *_ in self.end_to_end + self.per_layer}


def load() -> Declared:
    with open(CONTRACT_PATH) as fh:
        contract = json.load(fh)
    return Declared(
        tuple((m["name"], m["unit"], m["better"], m["bound"])
              for m in contract["end_to_end"]),
        tuple((m["name"], m["unit"], m["better"])
              for m in contract["per_layer"]),
        {w["name"]: w["why"] for w in contract["workloads"]},
        contract["run_seconds"])


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p95(values: Sequence[float]) -> float:
    """Nearest-rank 95th percentile (needs >= 20 samples to differ from
    the maximum; every caller records its sample count)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def as_metrics(values: Dict[str, float],
               units: Dict[str, str]) -> Dict[str, dict]:
    """``{name: value}`` → the result line's ``{name: {value, unit}}``."""
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def missing_or_non_finite(values: Dict[str, float],
                          declared) -> List[str]:
    """Declared names absent from ``values`` or not a finite number."""
    bad = []
    for name, *_ in declared:
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(name)
    return bad
