"""Smoke: a tiny instrumented run exports non-zero metrics end to end.

Not a figure reproduction — a wiring check that rides the benchmark
harness: build an engine with a live :class:`~repro.obs.MetricsRegistry`,
stream a tiny TPC-DS-like workload, and assert the phase histograms and
work counters came out non-zero and survive a JSON export round trip.

The module also owns the observability overhead contract: a Fig-11-style
batched insertion run (the batch-first hot path, ``OVERHEAD_BATCH``-op
micro-batches) must stay within 5% of the uninstrumented baseline both
with a live registry (*obs-on*) AND with that registry's slow-op
threshold armed on top (*obs-armed*: every stage additionally compared
against a threshold it never reaches) — stages are reported per
segment, not per op, which is what makes both bounds affordable.
Methodology: one untimed warmup cell absorbs the
fresh process's import/allocator warmup (which used to land entirely on
whichever cell ran first and bias the ratios well below 1.0); the three
cells are then *interleaved at micro-batch granularity* — one engine
per cell, the identical stream fed chunk by chunk, with the in-chunk
cell order rotated every chunk — so scheduler noise on a shared box
(which drifts several percent over a fraction of a second) lands on all
three cells alike instead of on whichever cell happened to be running.
``OVERHEAD_ROUNDS`` such passes run independently (fresh engines each,
cyclic GC off while timing); ratios are paired within a pass and the
median pass is reported, with per-pass ratios riding along in the
export for drift diagnostics.  The three throughputs (no-obs / obs-on /
obs-armed) export to ``BENCH_obs_overhead.json`` (override with
``$REPRO_BENCH_OBS_EXPORT``).
"""

from __future__ import annotations

import gc
import json
import os
import time

from conftest import FIG_SCALE, build_engine, run_workload

from repro.bench.export import read_metrics_json, write_metrics_json
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import StreamPlayer
from repro.obs import EventLog
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry

SMOKE_SCALE = TpcdsScale.tiny()

OVERHEAD_EXPORT = os.environ.get("REPRO_BENCH_OBS_EXPORT",
                                 "BENCH_obs_overhead.json")
#: independent interleaved passes (fresh engines each) — ratios are
#: paired within a pass, the median pass is reported
OVERHEAD_ROUNDS = 5
#: the overhead contract (docs/observability.md): ≤5% over no-obs, with
#: a live registry and with its slow-op threshold armed on top
OVERHEAD_LIMIT = 1.05
#: micro-batch size of the overhead cells (the batch-first hot path)
OVERHEAD_BATCH = 64


def test_metrics_smoke_export(tmp_path):
    setup = setup_query("QY", SMOKE_SCALE, seed=3)
    obs = MetricsRegistry()
    run = run_workload(setup, "sjoin-opt", time_budget=30.0,
                       checkpoint_every=50, obs=obs)
    assert run.operations > 0
    metrics = run.metrics
    assert metrics, "instrumented run exported no metrics"
    # per-phase insert latency: delta propagation vs sampling
    assert metrics[metric_names.INSERT_GRAPH_NS]["count"] > 0
    assert metrics[metric_names.INSERT_SAMPLE_NS]["count"] > 0
    assert metrics[metric_names.INSERT_NS]["count"] > 0
    assert metrics[metric_names.GRAPH_VERTICES_VISITED]["value"] > 0
    assert metrics[metric_names.SYNOPSIS_ACCEPTS]["value"] > 0
    assert metrics[metric_names.TOTAL_RESULTS]["value"] > 0

    path = tmp_path / "metrics.json"
    assert write_metrics_json(str(path), [run]) == 1
    (loaded,) = read_metrics_json(str(path))
    assert loaded["engine"] == "sjoin-opt"
    assert loaded["metrics"][metric_names.INSERT_GRAPH_NS]["count"] == \
        metrics[metric_names.INSERT_GRAPH_NS]["count"]


def test_disabled_metrics_export_empty():
    setup = setup_query("QY", SMOKE_SCALE, seed=3)
    run = run_workload(setup, "sjoin-opt", time_budget=30.0,
                       checkpoint_every=50)
    assert run.operations > 0
    assert run.metrics == {}


def _overhead_cell(**kwargs):
    """Throughput of one Fig-11-style batched ingest.

    Preloads QY, then streams its insert stream through the engine's
    batch-first path in ``OVERHEAD_BATCH``-op micro-batches — the shape
    the serving layer produces when it coalesces queued submissions.
    """
    setup = setup_query("QY", FIG_SCALE, seed=3)
    engine = build_engine(setup, "sjoin-opt", seed=17, **kwargs)
    StreamPlayer(engine).run(setup.preload)
    items = [(event.alias, event.row) for event in setup.stream]
    operations = len(items)
    started = time.perf_counter()
    for i in range(0, len(items), OVERHEAD_BATCH):
        engine.insert_run(items[i:i + OVERHEAD_BATCH])
    elapsed = time.perf_counter() - started
    return operations / elapsed, operations


def _cell_kwargs(cell: str) -> dict:
    """Engine kwargs for one overhead cell (fresh instruments per call)."""
    if cell == "no_obs":
        return {}
    if cell == "obs_on":
        return {"obs": MetricsRegistry()}
    # armed, never reached: the cost of the comparison, not of logging
    return {"obs": MetricsRegistry(events=EventLog(),
                                   slow_op_threshold_ns=10 ** 12)}


def _build_cell(cell: str):
    """One preloaded engine plus its insert stream for cell ``cell``."""
    setup = setup_query("QY", FIG_SCALE, seed=3)
    engine = build_engine(setup, "sjoin-opt", seed=17,
                          **_cell_kwargs(cell))
    StreamPlayer(engine).run(setup.preload)
    return engine, [(event.alias, event.row) for event in setup.stream]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _interleaved_pass(order):
    """One chunk-interleaved timed pass over fresh engines.

    Returns ``(ops, elapsed)`` with per-cell elapsed seconds for the
    identical stream.
    """
    cells = {cell: _build_cell(cell) for cell in order}
    streams = {len(items) for _, items in cells.values()}
    # identical stream in every cell: ratios compare pure overhead
    assert len(streams) == 1
    (ops,) = streams
    items = cells[order[0]][1]
    chunks = [items[i:i + OVERHEAD_BATCH]
              for i in range(0, len(items), OVERHEAD_BATCH)]
    elapsed = {cell: 0.0 for cell in order}
    # collector pauses land on whichever cell happens to be running —
    # a dominant noise source at these sub-second cell times — so the
    # timed pass runs with the cyclic collector off
    gc.collect()
    gc.disable()
    try:
        for j, chunk in enumerate(chunks):
            # interleave at chunk granularity, rotating which cell goes
            # first: machine-speed drift (which moves several percent
            # over a fraction of a second on a shared box) hits all
            # three cells alike instead of whichever happened to run
            rotation = order[j % len(order):] + order[:j % len(order)]
            for cell in rotation:
                engine = cells[cell][0]
                started = time.perf_counter()
                engine.insert_run(chunk)
                elapsed[cell] += time.perf_counter() - started
    finally:
        gc.enable()
    return ops, elapsed


def test_obs_overhead_guard_and_export():
    order = ("no_obs", "obs_on", "obs_armed")
    # untimed warmup: a fresh process pays import, allocator, and
    # code-path warmup on its first cell; timing that cell used to
    # deflate whichever ratio it landed on (ratios of 0.86 were warmup
    # artifacts, not observability making the engine faster)
    _overhead_cell()
    passes = []
    ops = 0
    for _ in range(OVERHEAD_ROUNDS):
        ops, elapsed = _interleaved_pass(order)
        passes.append(elapsed)

    # within a pass every cell saw the identical chunks, so elapsed
    # ratios are the overhead ratios; the median pass is the report
    # (the best pass understates overhead, the worst overstates it)
    no_obs = _median([ops / p["no_obs"] for p in passes])
    obs_on = _median([ops / p["obs_on"] for p in passes])
    obs_armed = _median([ops / p["obs_armed"] for p in passes])
    on_ratio = _median([p["obs_on"] / p["no_obs"] for p in passes])
    armed_ratio = _median([p["obs_armed"] / p["no_obs"] for p in passes])
    report = {
        "workload": "QY",
        "operations": ops,
        "rounds": OVERHEAD_ROUNDS,
        "batch": OVERHEAD_BATCH,
        "aggregation":
            "median of chunk-interleaved paired passes, after warmup",
        "round_obs_on_ratios": [
            p["obs_on"] / p["no_obs"] for p in passes],
        "round_obs_armed_ratios": [
            p["obs_armed"] / p["no_obs"] for p in passes],
        "no_obs_ops_per_s": no_obs,
        "obs_on_ops_per_s": obs_on,
        "obs_armed_ops_per_s": obs_armed,
        "obs_on_overhead_ratio": on_ratio,
        "obs_armed_overhead_ratio": armed_ratio,
        "limit": OVERHEAD_LIMIT,
    }
    with open(OVERHEAD_EXPORT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("\nobs overhead: no-obs %.0f  obs-on %.0f (x%.3f)  "
          "obs-armed %.0f (x%.3f)" %
          (no_obs, obs_on, on_ratio, obs_armed, armed_ratio))
    assert on_ratio <= OVERHEAD_LIMIT, report
    # one comparison per reported stage: arming the threshold is free
    assert armed_ratio <= OVERHEAD_LIMIT, report
