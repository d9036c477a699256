"""The paper's §7 evaluation as one seeded record.

Every cell of Figures 11–14, Table 2 and the two ablations is replayed
from :mod:`repro.datagen` seeds under the layer benchmark's clock: the
process is pinned to one CPU (:func:`benchmarks.layers.speed.pinned`)
and every timed call is normalised by its speed probe, so an ops/s here
reads "at the probe's reference speed".  A cell plays a fixed prefix of
its event stream, never a wall-clock budget, so how much of a slow
baseline's stream is measured does not depend on the box.  Each cell
keeps its throughput, a progress series (normalised seconds after every
``CHUNK`` events) and the engine's exact work counts; the paper's
shapes are then checked as ratios between cells of the same run, or as
counts, which no box moves.

Run it from the repository root::

    python benchmarks/paper.py --out paper.json        # full scale
    python benchmarks/paper.py --tiny                  # seconds
    python benchmarks/paper.py --only batching --baseline RECORD

It prints one line per cell and per shape.  The exit code is non-zero
when a shape does not hold or, with ``--baseline``, when a batching
speed-up at B >= 16 fell more than 10 % below that of ``RECORD``, a
record committed under ``benchmarks/baselines/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import sys
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.bench.memory import engine_memory_bytes  # noqa: E402
from repro.core import (  # noqa: E402
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisSpec,
)
from repro.core.stats_api import InsertOp  # noqa: E402
from repro.core.synopsis import FixedSizeWithoutReplacement  # noqa: E402
from repro.datagen.linear_road import LinearRoadConfig, setup_qb  # noqa: E402
from repro.datagen.tpcds import TpcdsScale, setup_query  # noqa: E402
from repro.datagen.workload import (  # noqa: E402
    StreamPlayer,
    interleave_deletions,
)

from benchmarks.layers import speed  # noqa: E402
from benchmarks.layers.rungs import Rung  # noqa: E402
from benchmarks.layers.stream import FIG_SCALE, QUERY_SEED  # noqa: E402

#: events per timed call (the progress series has one point per call),
#: at full and at tiny scale
CHUNK = 500
TINY_CHUNK = 20
#: rounds of a timed SJoin cell, the fastest kept
CELL_ROUNDS = 3
#: the paper's default synopsis (fixed size without replacement)
DEFAULT_M = 500
ALGOS = ("sjoin-opt", "sjoin", "sj")
#: the repro.datagen seed of every stream
SEED = 0

#: Fig. 12's scale: smaller than Fig. 11's, it has 24 cells
FIG12_SCALE = TpcdsScale(
    dates=120, demographics=240, income_bands=12, items=600,
    categories=24, customers=1200, store_sales=5000,
    returns_fraction=0.35, catalog_sales=3000,
)
FIG12_SIZES = (50, 200, 800, 3200)
FIG12_RATES = (0.00001, 0.0001, 0.001, 0.01)
FIG13_SCALE = TpcdsScale(
    dates=120, demographics=300, income_bands=12, items=600,
    categories=24, customers=1500, store_sales=7000,
    returns_fraction=0.35, catalog_sales=4000,
)
#: §7.3's 1:5 oldest-first deletions (the paper deletes the oldest 600
#: store_sales per 3000 inserted and 100 customer c2 per 500)
DELETE_EVERY = {"ss": 300, "c2": 50}
DELETE_COUNT = {"ss": 60, "c2": 10}
FIG14_ROAD = LinearRoadConfig(
    lanes=3, cars_per_lane=70, ticks=12, road_length=2400, max_speed=40,
    window=2,
)
FIG14_WIDTHS = (25, 75, 150, 300)
#: Fig. 14 keeps m << J even at the smallest band width, as the paper
#: does (otherwise every deletion takes the m >= J/2 rebuild path)
FIG14_M = 100
TAB2_SCALE = TpcdsScale(
    dates=120, demographics=240, income_bands=12, items=600,
    categories=24, customers=1200, store_sales=4000,
    returns_fraction=0.35, catalog_sales=2500,
)
TAB2_ROAD = LinearRoadConfig(
    lanes=3, cars_per_lane=60, ticks=8, road_length=2000, max_speed=40,
)
SKIP_M = 100
SKIP_VIEWS = (1, 10, 100, 1000, 5000) * 40
BATCH_SIZES = (1, 4, 16, 64, 256)
BATCH_ROUNDS = 3
#: the batch-first contract: >= 2x serial ingest from micro-batch 16 on
BATCH_SPEEDUP_FLOOR = 2.0
BATCH_SPEEDUP_AT = 16
#: a fresh batching speed-up may fall this far below the committed one
BATCH_BASELINE_FLOOR = 0.90

#: events of SJ's stream each cell plays (SJoin-opt and SJoin play the
#: whole stream); the baseline's cost grows with the join, so these are
#: what SJ gets through in seconds, not minutes
FULL_PREFIX = {"fig11": 4000, "fig12": 3000, "fig13": 4000,
               "fig14": 1000, "tab2_deletion": 2000}
TINY_PREFIX = {"fig11": 100, "fig12": 100, "fig13": 100,
               "fig14": 100, "tab2_deletion": 100}


class Run:
    """One invocation: its scales, the cells it wrote, the shapes it
    checked."""

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.cells: Dict[str, dict] = {}
        self.shapes: List[dict] = []
        self.prefix = TINY_PREFIX if tiny else FULL_PREFIX
        self.chunk = TINY_CHUNK if tiny else CHUNK
        tpcds = TpcdsScale.tiny() if tiny else None
        self.fig11_scale = tpcds or FIG_SCALE
        self.fig12_scale = tpcds or FIG12_SCALE
        self.fig13_scale = tpcds or FIG13_SCALE
        self.tab2_scale = tpcds or TAB2_SCALE
        road = LinearRoadConfig.tiny() if tiny else None
        self.fig14_road = road or FIG14_ROAD
        self.tab2_road = road or TAB2_ROAD
        # a tiny stream keeps the 1:5 ratio at a tenth of the period
        div = 10 if tiny else 1
        self.delete_every = {a: n // div for a, n in DELETE_EVERY.items()}
        self.delete_count = {a: n // div for a, n in DELETE_COUNT.items()}

    def rounds(self, algorithm: str) -> int:
        """Rounds of a timed cell: the baseline's are long enough
        alone."""
        return 1 if algorithm == "sj" else CELL_ROUNDS

    def cell(self, key: str, record: dict) -> None:
        self.cells[key] = record
        print(f"{key:<34} {record.get('ops', 0):>7} ops "
              f"{record.get('ops_s', 0.0):>10.0f} ops/s  "
              f"J={record['counts']['total_results']}", flush=True)

    def shape(self, name: str, holds: bool, value: object,
              tiny: bool = False) -> None:
        """Record one shape; at tiny scale only one marked ``tiny`` is
        checked.  A ratio of two cells' ops/s means nothing where a
        cell lasts milliseconds, and some counts need the full-size
        data (the tiny road is shorter than the widest band)."""
        checked = tiny or not self.tiny
        self.shapes.append({"name": name, "holds": bool(holds),
                            "checked": checked, "value": value})
        verdict = "ok  " if holds else "FAIL" if checked else "----"
        print(f"  {verdict} {name}: {value}", flush=True)


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------
def counts_of(maintainer: JoinSynopsisMaintainer) -> dict:
    """The engine's exact work counts, J, and a digest of its synopsis."""
    stats = maintainer.stats()
    counts = dict(stats.metrics)
    graph = getattr(maintainer.engine, "graph", None)
    if graph is not None:
        counts.update({f"graph.{name}": value
                       for name, value in vars(graph.stats).items()})
    synopsis = maintainer.engine.synopsis
    for name in ("skips_drawn", "accepts", "replaces", "purges"):
        counts[f"synopsis.{name}"] = getattr(synopsis, name)
    counts["total_results"] = stats.total_results
    counts["synopsis_size"] = stats.synopsis_size
    counts["synopsis_sha256"] = hashlib.sha256(
        repr(maintainer.synopsis()).encode()).hexdigest()[:16]
    return counts


def play(run: Run, build: Callable[[], tuple], algorithm: str,
         spec: SynopsisSpec, memory: bool = False) -> dict:
    """``build() -> (setup, preload, events)``; a maintainer over
    ``setup``: ``preload`` applied untimed, then ``events`` through
    :class:`StreamPlayer` (an insert is a batch of one, a
    ``DeleteOldest`` one delete run), ``run.chunk`` events per timed
    call.  Each of ``run.rounds(algorithm)`` rounds replays the cell
    from a fresh build; the fastest is kept, and every round must end
    in the same counts.  With ``memory`` the cell is played once and
    keeps the engine's deep size: a size depends on the process's
    history (instance dicts share their keys per class), so it is a
    measurement, not a count."""
    rounds = 1 if memory else run.rounds(algorithm)
    best = None
    for _ in range(rounds):
        setup, preload, events = build()
        maintainer = JoinSynopsisMaintainer(
            setup.db, setup.sql, MaintainerConfig(
                spec=spec, engine=algorithm, seed=QUERY_SEED))
        player = StreamPlayer(maintainer)
        player.run(preload)
        chunks = [events[i:i + run.chunk]
                  for i in range(0, len(events), run.chunk)]
        rung = Rung(setup.name)
        gc.collect()
        done = rung.drive("apply_batch", (lambda part=part: player.run(part)
                                          for part in chunks))
        seconds = list(itertools.accumulate(
            ms / 1e3 for ms in rung.call_ms()))
        counts = counts_of(maintainer)
        if best is not None and counts != best["counts"]:
            raise RuntimeError(f"{setup.name}/{algorithm}: two rounds "
                               "of one cell ended in different counts")
        if best is None or seconds[-1] < best["series"]["s"][-1]:
            best = {
                "algorithm": algorithm,
                "events": len(events),
                "ops": sum(done),
                "ops_s": sum(done) / seconds[-1],
                "rounds": rounds,
                "series": {
                    "events": [min((i + 1) * run.chunk, len(events))
                               for i in range(len(chunks))],
                    "ops": list(itertools.accumulate(done)),
                    "s": [round(s, 6) for s in seconds],
                },
                "counts": counts,
            }
            if memory:
                best["memory_bytes"] = engine_memory_bytes(
                    maintainer.engine)
    return best


def tpcds(run: Run, query: str, scale: TpcdsScale,
          upto: Optional[int] = None, deletes: bool = False) -> tuple:
    """A :func:`play` build: a TPC-DS-like setup, its preload and the
    first ``upto`` events of its stream (with §7.3's deletions woven
    in when ``deletes``)."""
    setup = setup_query(query, scale, seed=SEED)
    inserts = setup.stream
    events = interleave_deletions(
        inserts, delete_every=run.delete_every,
        delete_count=run.delete_count) if deletes else inserts
    return setup, setup.preload, events[:upto]


def road(run: Run, d: int, config: LinearRoadConfig,
         upto: Optional[int] = None) -> tuple:
    """A :func:`play` build: QB at band width ``d``, no preload."""
    setup = setup_qb(d, config, seed=SEED)
    return setup, [], setup.events[:upto]


def ops_s_upto(cell: dict, events: int) -> float:
    """A cell's ops/s over its first ``events`` events (a series point:
    every prefix in this file is a multiple of the chunk or the whole
    stream)."""
    series = cell["series"]
    at = series["events"].index(min(events, cell["events"]))
    return series["ops"][at] / series["s"][at]


def stable_tail(cell: dict, fraction: float = 0.5) -> Tuple[float, float]:
    """Mean instant throughput over the last ``fraction`` of the
    series' chunks (the paper reads a figure once the curve settles),
    and the last chunk's."""
    series = cell["series"]
    ops = [0] + series["ops"]
    s = [0.0] + series["s"]
    rates = [(ops[i + 1] - ops[i]) / (s[i + 1] - s[i])
             for i in range(len(series["ops"]))]
    tail = rates[int(len(rates) * (1 - fraction)):]
    return sum(tail) / len(tail), rates[-1]


def fixed(m: int = DEFAULT_M) -> SynopsisSpec:
    return SynopsisSpec.fixed_size(m)


# ----------------------------------------------------------------------
# the figures
# ----------------------------------------------------------------------
def fig11(run: Run) -> None:
    """§7.2: insertion throughput, QX / QY / QZ x the three engines."""
    queries = ("QX", "QY", "QZ")
    for query, algorithm in itertools.product(queries, ALGOS):
        upto = run.prefix["fig11"] if algorithm == "sj" else None
        run.cell(f"fig11/{query}/{algorithm}", play(run, partial(
            tpcds, run, query, run.fig11_scale, upto), algorithm, fixed()))
    cells = run.cells
    for query in queries:
        run.shape(f"fig11 {query}: sjoin-opt > 2x sj over sj's prefix",
                  *over_prefix(cells[f"fig11/{query}/sjoin-opt"],
                               cells[f"fig11/{query}/sj"], 2))
    ratio = (cells["fig11/QX/sjoin-opt"]["ops_s"]
             / cells["fig11/QX/sjoin"]["ops_s"])
    run.shape("fig11 QX: sjoin-opt > 2x sjoin (the FK collapse is the "
              "speed-up)", ratio > 2, round(ratio, 2))
    tail, last = stable_tail(cells["fig11/QY/sjoin-opt"])
    run.shape("fig11 QY sjoin-opt: last chunk > stable tail / 10",
              last > tail / 10, round(last / tail, 3))


def over_prefix(opt: dict, sj: dict, bound: float) -> Tuple[bool, float]:
    """SJoin-opt's ops/s over SJ's prefix against SJ's, ``> bound``."""
    ratio = ops_s_upto(opt, sj["events"]) / sj["ops_s"]
    return ratio > bound, round(ratio, 2)


def fig12(run: Run) -> None:
    """§7.4: QY under three synopsis kinds, four parameters each."""
    kinds = (
        [("fixed", m, SynopsisSpec.fixed_size(m)) for m in FIG12_SIZES]
        + [("fixed_wr", m, SynopsisSpec.with_replacement(m))
           for m in FIG12_SIZES]
        + [("bernoulli", p, SynopsisSpec.bernoulli(p))
           for p in FIG12_RATES])
    for (kind, param, spec), algorithm in itertools.product(
            kinds, ("sjoin-opt", "sj")):
        upto = run.prefix["fig12"] if algorithm == "sj" else None
        run.cell(f"fig12/{kind}-{param}/{algorithm}", play(run, partial(
            tpcds, run, "QY", run.fig12_scale, upto), algorithm, spec))
    cells = run.cells
    for kind, param, _ in kinds:
        run.shape(f"fig12 {kind}-{param}: sjoin-opt > 1.5x sj over sj's "
                  "prefix", *over_prefix(
                      cells[f"fig12/{kind}-{param}/sjoin-opt"],
                      cells[f"fig12/{kind}-{param}/sj"], 1.5))
    for kind in ("fixed", "fixed_wr"):
        rates = [cells[f"fig12/{kind}-{m}/sjoin-opt"]["ops_s"]
                 for m in FIG12_SIZES]
        run.shape(f"fig12 {kind}: sjoin-opt's slowest m > fastest / 6",
                  min(rates) > max(rates) / 6,
                  round(max(rates) / min(rates), 2))


def fig13(run: Run) -> None:
    """§7.3: QY with 1:5 oldest-first deletions."""
    prefix = run.prefix["fig13"]
    for key, algorithm, upto, deletes in (
            ("sjoin-opt", "sjoin-opt", None, True),
            ("sj", "sj", prefix, True),
            ("sjoin-opt/sj-prefix", "sjoin-opt", prefix, True),
            ("sjoin-opt/insert-only", "sjoin-opt", None, False)):
        run.cell(f"fig13/{key}", play(run, partial(
            tpcds, run, "QY", run.fig13_scale, upto, deletes),
            algorithm, fixed()))
    cells = run.cells
    opt, sj = cells["fig13/sjoin-opt"], cells["fig13/sj"]
    run.shape("fig13: sjoin-opt > 5x sj over sj's prefix",
              *over_prefix(opt, sj, 5))
    slowdown = cells["fig13/sjoin-opt/insert-only"]["ops_s"] / opt["ops_s"]
    run.shape("fig13: sjoin-opt insert-only / with deletions < 40",
              slowdown < 40, round(slowdown, 2))
    # what the deletions cost SJoin-opt, as counts: results removed,
    # samples purged and re-drawn (or rebuilt) with them, none without
    cost = ("removed_results_total", "synopsis.purges", "redraws",
            "rebuilds")
    with_del = {name: opt["counts"][name] for name in cost}
    without = {name: cells["fig13/sjoin-opt/insert-only"]["counts"][name]
               for name in cost}
    run.shape("fig13: deletions make sjoin-opt remove results and purge "
              "and re-draw samples; insert-only it does none",
              with_del["removed_results_total"] > 0
              and with_del["synopsis.purges"] > 0
              and with_del["redraws"] + with_del["rebuilds"] > 0
              and not any(without.values()),
              {"with deletions": with_del, "insert-only": without},
              tiny=True)
    # the collapse as counts: over the same prefix SJ recomputes the
    # whole join after a purge, where SJoin-opt re-draws (Algorithm 2)
    # and rebuilds only while m >= J/2
    sj_counts = sj["counts"]
    opt_counts = cells["fig13/sjoin-opt/sj-prefix"]["counts"]
    run.shape("fig13: over sj's prefix sj recomputes the join > 5x as "
              "often as sjoin-opt rebuilds its synopsis",
              sj_counts["full_recomputes"] > 5 * opt_counts["rebuilds"],
              {"sj.full_recomputes": sj_counts["full_recomputes"],
               "sj.new_results_total": sj_counts["new_results_total"],
               "sj.tuples_accessed": sj_counts["tuples_accessed"],
               "sjoin-opt.rebuilds": opt_counts["rebuilds"],
               "sjoin-opt.redraws": opt_counts["redraws"],
               "sjoin-opt.new_results_total":
                   opt_counts["new_results_total"]}, tiny=True)


def fig14(run: Run) -> None:
    """§7.5: the QB band join at four band widths d."""
    for d, algorithm in itertools.product(FIG14_WIDTHS, ("sjoin-opt", "sj")):
        upto = run.prefix["fig14"] if algorithm == "sj" else None
        run.cell(f"fig14/d={d}/{algorithm}", play(run, partial(
            road, run, d, run.fig14_road, upto), algorithm, fixed(FIG14_M)))
    cells = run.cells
    opt = [cells[f"fig14/d={d}/sjoin-opt"] for d in FIG14_WIDTHS]
    sj = [cells[f"fig14/d={d}/sj"] for d in FIG14_WIDTHS]
    run.shape("fig14: sjoin-opt at d=300 > d=25 / 12",
              opt[-1]["ops_s"] > opt[0]["ops_s"] / 12,
              round(opt[0]["ops_s"] / opt[-1]["ops_s"], 2))
    run.shape("fig14: sj at d=300 < d=25 / 5",
              sj[-1]["ops_s"] < sj[0]["ops_s"] / 5,
              round(sj[0]["ops_s"] / sj[-1]["ops_s"], 2))
    first = over_prefix(opt[0], sj[0], 0)[1]
    last = over_prefix(opt[-1], sj[-1], 0)[1]
    run.shape("fig14: sjoin-opt / sj widens > 3x from d=25 to d=300",
              last > 3 * first, round(last / first, 2))
    # §7.5: an update touches vertices linear in d (each visit costing
    # a log factor): per op the count rises with d, and per op and unit
    # of d it stays within a factor of 2 across d
    visited = [c["counts"]["graph.vertices_visited"] / c["ops"]
               for c in opt]
    per_d = [v / d for v, d in zip(visited, FIG14_WIDTHS)]
    run.shape("fig14: graph.vertices_visited per op rises with d",
              visited == sorted(visited), [round(v, 2) for v in visited],
              tiny=True)
    run.shape("fig14: graph.vertices_visited per op and unit of d within "
              "2x across d", max(per_d) <= 2 * min(per_d),
              [round(v, 4) for v in per_d])


def tab2(run: Run) -> None:
    """§7.6: structure memory of SJoin-opt vs SJ (deep size, bytes)."""
    builds = {
        "QX": partial(tpcds, run, "QX", run.tab2_scale),
        "QY": partial(tpcds, run, "QY", run.tab2_scale),
        "QZ": partial(tpcds, run, "QZ", run.tab2_scale),
        # both engines over the same prefix: memory after different
        # amounts of data would not compare
        "QY+del": partial(tpcds, run, "QY", run.tab2_scale,
                          run.prefix["tab2_deletion"], True),
        "QB": partial(road, run, 300, run.tab2_road),
    }
    for (row, build), algorithm in itertools.product(
            builds.items(), ("sjoin-opt", "sj")):
        run.cell(f"tab2/{row}/{algorithm}",
                 play(run, build, algorithm, fixed(), memory=True))
    for row in builds:
        opt = run.cells[f"tab2/{row}/sjoin-opt"]["memory_bytes"]
        sj = run.cells[f"tab2/{row}/sj"]["memory_bytes"]
        run.shape(f"tab2 {row}: sj / 5 < sjoin-opt < 2.5 x sj",
                  sj / 5 < opt < 2.5 * sj, round(opt / sj, 3), tiny=True)


# ----------------------------------------------------------------------
# the ablations
# ----------------------------------------------------------------------
class CountingView:
    """A synthetic delta view of ``n`` join results counting its reads."""

    reads = 0

    def __init__(self, start: int, n: int):
        self.start = start
        self.n = n

    def length(self) -> int:
        return self.n

    def get(self, i: int):
        CountingView.reads += 1
        return (self.start + i, 0)


class NaiveReservoir:
    """Vanilla reservoir sampling: one draw and one read per result."""

    def __init__(self, m: int, rng: random.Random):
        self.m = m
        self.rng = rng
        self.samples: list = []
        self.seen = 0

    def consume(self, view) -> None:
        for i in range(view.length()):
            item = view.get(i)
            self.seen += 1
            if len(self.samples) < self.m:
                self.samples.append(item)
            elif self.rng.random() < self.m / self.seen:
                self.samples[self.rng.randrange(self.m)] = item

    @property
    def valid_count(self) -> int:
        return len(self.samples)


def skip(run: Run) -> None:
    """Algorithm 3: skip numbers read only the selected results of each
    delta view, O(m log J) reads instead of O(J)."""
    total = sum(SKIP_VIEWS)
    for mode, build in (("skip", FixedSizeWithoutReplacement),
                        ("naive", NaiveReservoir)):
        consumer = build(SKIP_M, random.Random(7))
        rung = Rung(mode)
        CountingView.reads = 0
        starts = itertools.accumulate((0,) + SKIP_VIEWS)
        with rung.timed("feed"):
            for start, n in zip(starts, SKIP_VIEWS):
                consumer.consume(CountingView(start, n))
        run.cell(f"skip/{mode}", {
            "seconds": rung.seconds("feed"),
            "counts": {"reads": CountingView.reads, "total_results": total,
                       "synopsis_size": consumer.valid_count}})
    skip_counts = run.cells["skip/skip"]["counts"]
    naive_counts = run.cells["skip/naive"]["counts"]
    run.shape("skip: both synopses hold m",
              skip_counts["synopsis_size"] == naive_counts[
                  "synopsis_size"] == SKIP_M, skip_counts["synopsis_size"],
              tiny=True)
    run.shape("skip: the naive reservoir reads every result",
              naive_counts["reads"] == total, naive_counts["reads"],
              tiny=True)
    run.shape("skip: Algorithm 3 reads < total / 50",
              skip_counts["reads"] < total / 50,
              f"{skip_counts['reads']} of {total}", tiny=True)


def batching(run: Run) -> None:
    """Fig. 11's QY ingest through ``apply_batch`` at micro-batch sizes
    B: bit-identical synopses at every B, >= 2x serial from B = 16."""
    best = {size: 0.0 for size in BATCH_SIZES}
    speedup = {size: 0.0 for size in BATCH_SIZES}
    last: Dict[int, dict] = {}
    for _ in range(BATCH_ROUNDS):
        rate = {}
        for size in BATCH_SIZES:
            setup = setup_query("QY", run.fig11_scale, seed=SEED)
            maintainer = JoinSynopsisMaintainer(
                setup.db, setup.sql, MaintainerConfig(
                    engine="sjoin-opt", seed=QUERY_SEED, spec=fixed()))
            maintainer.apply_batch([InsertOp(e.alias, e.row)
                                    for e in setup.preload])
            ops = [InsertOp(e.alias, e.row) for e in setup.stream]
            rung = Rung(f"B={size}")
            gc.collect()
            rung.drive("apply_batch", (
                lambda batch=ops[i:i + size]: maintainer.apply_batch(batch)
                for i in range(0, len(ops), size)))
            rung.ops = len(ops)
            rate[size] = rung.ops_s()
            best[size] = max(best[size], rate[size])
            last[size] = counts_of(maintainer)
        for size in BATCH_SIZES:
            speedup[size] = max(speedup[size], rate[size] / rate[1])
    for size in BATCH_SIZES:
        run.cell(f"batching/B={size}", {
            "ops": len(setup.stream), "ops_s": best[size],
            "speedup_vs_serial": speedup[size], "rounds": BATCH_ROUNDS,
            "counts": last[size]})
    digests = {last[size]["synopsis_sha256"] for size in BATCH_SIZES}
    run.shape("batching: bit-identical synopses at every B",
              len(digests) == 1, sorted(digests), tiny=True)
    for size in BATCH_SIZES:
        if size >= BATCH_SPEEDUP_AT:
            run.shape(f"batching B={size}: >= {BATCH_SPEEDUP_FLOOR}x serial",
                      speedup[size] >= BATCH_SPEEDUP_FLOOR,
                      round(speedup[size], 2))


def against_baseline(run: Run, path: str) -> None:
    """CI's batching gate: no B >= 16 more than 10 % below the
    committed record's ``speedup_vs_serial``."""
    with open(path) as fh:
        committed = json.load(fh)["cells"]
    for size in BATCH_SIZES:
        if size < BATCH_SPEEDUP_AT:
            continue
        key = f"batching/B={size}"
        ratio = (run.cells[key]["speedup_vs_serial"]
                 / committed[key]["speedup_vs_serial"])
        run.shape(f"batching B={size}: speed-up >= "
                  f"{BATCH_BASELINE_FLOOR} x the committed one",
                  ratio >= BATCH_BASELINE_FLOOR, round(ratio, 3))


FIGURES: Dict[str, Callable[[Run], None]] = {
    "fig11": fig11, "fig12": fig12, "fig13": fig13, "fig14": fig14,
    "tab2": tab2, "skip": skip, "batching": batching,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (numbers mean nothing)")
    parser.add_argument("--only", default=",".join(FIGURES),
                        help="comma-separated subset of "
                             + ", ".join(FIGURES))
    parser.add_argument("--baseline",
                        help="a committed record: check the batching "
                             "speed-ups against its cells")
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args(argv)
    figures = args.only.split(",")
    unknown = set(figures) - set(FIGURES)
    if unknown:
        parser.error(f"unknown figures {sorted(unknown)}")
    if args.baseline and "batching" not in figures:
        parser.error("--baseline checks the batching cells: add batching "
                     "to --only")
    run = Run(args.tiny)
    with speed.pinned():
        for name in figures:
            FIGURES[name](run)
    if args.baseline:
        against_baseline(run, args.baseline)
    record = {
        "meta": {"seed": SEED, "tiny": args.tiny,
                 "python": platform.python_version(),
                 "nproc": os.cpu_count(), "chunk": run.chunk,
                 "probe_ref_us": speed.PROBE_REF_S * 1e6,
                 "prefix": run.prefix},
        "cells": run.cells,
        "shapes": run.shapes,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    checked = [s for s in run.shapes if s["checked"]]
    failed = [s["name"] for s in checked if not s["holds"]]
    print(f"{len(checked) - len(failed)}/{len(checked)} checked shapes hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
