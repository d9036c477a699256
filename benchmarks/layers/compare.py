"""Compare two result files of the layer benchmark.

    python3 benchmarks/layers/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of runs), ``B``
the candidate.  Each file is what ``--out`` wrote: one run, or a set of
runs (``--workload all --repeat N``).  Per workload and end-to-end
metric it prints both medians, the ratio B/A with A as its base, the
metric's bound, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  it is worse by more than the bound, but the run-to-run
                spread (quartile distance over the median, of either
                side) is wider than the bound, so the difference is
                not resolved — unless every run of B reads worse than
                every run of A, which is reported as ``regressed``.

Per-layer counts that must repeat exactly for a fixed seed
(``graph.*``, ``synopsis.*``, ``fk.*``) are compared for runs with the
same seed.  In each file the ladder must also stand in order: a rung
wraps the one below it, so its median throughput may not read higher
than that rung's by more than the run-to-run spread — if it does, the
measurement is biased, whatever the program did.  Exit code 1 when
anything regressed, a count differs or the ladder is out of order.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

if __name__ == "__main__":
    _root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path[:0] = [_root]

from benchmarks.layers import metrics  # noqa: E402

#: traced-run counts that depend only on the seed
EXACT_PREFIXES = ("graph.", "synopsis.", "fk.")
#: throughputs from the innermost rung outwards: (section, least slack,
#: metrics).  The traced ladder is one pass per rung and a file holds
#: few traced runs, so it gets more slack than the interleaved passes.
LADDERS = (
    ("end_to_end", 0.05, ("engine_ops_s", "ingest_ops_s")),
    ("per_layer", 0.10, ("engine.ops_s", "manager.ops_s",
                         "persist.nosync_ops_s", "persist.ops_s",
                         "service.ops_s")),
)


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["runs"] if "runs" in doc else [doc]


def _series(runs: List[dict], workload: str, metric: str,
            section: str = "end_to_end") -> List[float]:
    return [run["workloads"][workload][section][metric]
            for run in runs
            if metric in run["workloads"].get(workload, {})
            .get(section, {})]


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median; None below 2 runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (med_b - med_a) / med_a <= bound:
        return "ok"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_worse = (min(b) > max(a) if better == "lower"
                     else max(b) < min(a))
        return "regressed" if all_worse else "unresolved"
    return "regressed"


def _seed(run: dict):
    """A run's seed: its own in a set, the file's ``meta`` otherwise."""
    return run.get("seed", run.get("meta", {}).get("seed"))


def exact_count_differences(runs_a: List[dict],
                            runs_b: List[dict]) -> List[str]:
    by_seed: Dict[object, dict] = {_seed(run): run for run in runs_a}
    out = []
    for run in runs_b:
        seed = _seed(run)
        base = by_seed.get(seed)
        if base is None:
            continue
        for workload, section in run["workloads"].items():
            counts_b = section.get("per_layer", {})
            counts_a = base["workloads"].get(workload, {}).get(
                "per_layer", {})
            for name, value in counts_b.items():
                if name.startswith(EXACT_PREFIXES) and name in counts_a \
                        and counts_a[name] != value:
                    out.append(f"{workload} seed {seed}: {name} "
                               f"{counts_a[name]} != {value}")
    return out


def ladder_out_of_order(runs: List[dict]) -> List[str]:
    """Rungs whose median throughput reads higher than that of the rung
    they wrap by more than the spread of the end-to-end throughputs."""
    out = []
    for workload in runs[0]["workloads"]:
        spreads = [spread(_series(runs, workload, metric))
                   for metric in ("engine_ops_s", "ingest_ops_s")]
        for section, least, ladder in LADDERS:
            slack = max([least, *(s for s in spreads if s)])
            medians = [(metric, statistics.median(values))
                       for metric in ladder
                       for values in [_series(runs, workload, metric,
                                              section)] if values]
            for (inner, fast), (outer, slow) in zip(medians, medians[1:]):
                if slow > fast * (1.0 + slack):
                    out.append(f"{workload}: {outer} {slow:.1f} reads "
                               f"faster than {inner} {fast:.1f} "
                               f"(slack {slack:.2f})")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    end_to_end = metrics.load().end_to_end
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    workloads = [name for name in runs_a[0]["workloads"]
                 if any(name in run["workloads"] for run in runs_b)]
    bad = 0
    print(f"{'workload':<12} {'metric':<16} {'A median':>14} "
          f"{'B median':>14} {'B/A':>7} {'spread A':>9} {'spread B':>9} "
          f"{'bound':>6}  verdict   (base: A = {argv[0]}, "
          f"{len(runs_a)} run(s); B = {argv[1]}, {len(runs_b)} run(s))")
    for workload in workloads:
        for metric, _, better, bound in end_to_end:
            a = _series(runs_a, workload, metric)
            b = _series(runs_b, workload, metric)
            if not a or not b:
                continue
            result = verdict(a, b, better, bound)
            bad += result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)

            def show(value: Optional[float]) -> str:
                return "-" if value is None else f"{value:.3f}"

            print(f"{workload:<12} {metric:<16} {med_a:>14.4f} "
                  f"{med_b:>14.4f} {med_b / med_a:>7.3f} "
                  f"{show(spread(a)):>9} {show(spread(b)):>9} "
                  f"{bound:>6.2f}  {result}")
    differences = exact_count_differences(runs_a, runs_b)
    for line in differences:
        print(f"exact count differs: {line}")
    disorder = [f"{path}: {line}"
                for path, runs in zip(argv, (runs_a, runs_b))
                for line in ladder_out_of_order(runs)]
    for line in disorder:
        print(f"ladder out of order: {line}")
    return 1 if bad or differences or disorder else 0


if __name__ == "__main__":
    sys.exit(main())
