"""Layer-ladder benchmark runner.

One workload, one mode per process (what the benchmark driver calls)::

    python3 benchmarks/layers/run.py --workload qy_ingest --seed 7 \
        --seconds 20 --trace 0      # end-to-end metrics, tracing off
    python3 benchmarks/layers/run.py --workload qy_ingest --seed 7 \
        --seconds 20 --trace 1      # per-layer metrics + spans.jsonl

Everything, each workload in a fresh child process::

    python -m benchmarks.layers --seed 7 --out layers.json

Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when the correctness
gate fails (synopses not bit-identical across rungs / recovery /
follower / HTTP, a returned TID that differs from the predicted one, a
non-200 reply, a malformed estimate).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.index.api import default_backend  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

from benchmarks.layers import httpload, metrics, rungs  # noqa: E402
from benchmarks.layers import serve_stack, speed  # noqa: E402
from benchmarks.layers import stream as streams  # noqa: E402
from benchmarks.layers.spans import SpanRecorder  # noqa: E402

#: interleaved engine/front-door passes of an untraced run.  The issue
#: asks for at least two; the budget goes into stream length, not into
#: more passes (``stream.py`` holds the one length constant per workload,
#: sized so that these passes fill ``run_seconds`` on the 2-core box)
PASSES = 2
#: set-up is repeated this often in a run and its median reported
SETUP_REPEATS = 3
#: share of ``--seconds`` the HTTP window of ``serve_mixed`` takes; its
#: in-process engine/recovery passes are short (QY x1) and fixed
HTTP_SHARE = 0.85
#: HTTP window of a traced run on a stream workload (per-layer only)
TRACED_HTTP_SECONDS = 3.0
#: seeds of a ``--repeat`` set that also get a traced run
TRACED_SEEDS = 2
#: env flags that switch engine internals; a run under them would put
#: numbers for a different program into the trajectory
FORBIDDEN_ENV = ("REPRO_INDEX_BACKEND", "REPRO_BATCH_NUMPY")
WORK_ROOT = os.path.join(_HERE, ".work")


class Gate:
    """The correctness gate: counts operations and collects problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def rung(self, rung: rungs.Rung) -> None:
        self.count(f"{rung.name} TIDs", rung.ops, rung.mismatches)
        estimates = len(rung.calls.get("estimate", ()))
        if estimates:
            self.count(f"{rung.name} estimates", estimates,
                       rung.estimate_failures)

    def same(self, what: str, reference, state) -> None:
        """Synopsis and ``total_results`` must match bit for bit."""
        if (list(reference[0]), reference[1]) != (list(state[0]), state[1]):
            self.problems.append(
                f"{what} differs from the engine reference "
                f"(total_results {state[1]} vs {reference[1]})")

    def check(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _typical(series: Sequence[Sequence[float]]) -> List[float]:
    """Per call index, the median of that call's timings over the passes.

    Every pass replays identical input, so call ``i`` does identical
    work each time; the per-call median rebuilds one typical pass and
    keeps the shape of the latency distribution (which batches are
    heavy) while a disturbed pass drops out.
    """
    return [statistics.median(timings) for timings in zip(*series)]


def _ops_per_s(ops: int, profile_ms: Sequence[float]) -> float:
    return ops / (sum(profile_ms) / 1e3)


def _raw_ops_s(rung_list: Sequence[rungs.Rung]) -> float:
    """Median over passes of the raw-clock throughput (a sample kept
    beside the metric, not a metric)."""
    return statistics.median(rung.raw_ops_s() for rung in rung_list)


def _probe_p50_us(rung_list: Sequence[rungs.Rung]) -> float:
    return statistics.median(took for rung in rung_list
                   for took in rung.probe.took_s) * 1e6


def _materialise(spec, seed: int, tiny: bool, repeats: int = 1):
    """Datagen is part of set-up: run it (``repeats`` times) under a
    rung's clock, so it is probed and normalised like everything else."""
    datagen = rungs.Rung("datagen")
    for _ in range(repeats):
        with datagen.timed("generate"):
            stream = streams.materialise(spec, seed, tiny)
    return stream, datagen


def _reference_ops(stream, fault: Optional[str], upto: Optional[int] = None):
    """The ops the engine reference replays; ``drop-op`` makes it wrong
    on purpose (one op short) to prove the gate can fail."""
    ops = stream.ops if upto is None else stream.ops[:upto]
    return ops[:-1] if fault == "drop-op" else ops


# ----------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------
def measure_stream(spec, seed, seconds, tiny, workdir, gate, fault):
    """Stream workloads: interleaved engine and service passes.  The
    work is the stream, whatever ``seconds`` says."""
    engines: List[rungs.Rung] = []
    services: List[rungs.Rung] = []
    with speed.pinned():
        stream, datagen = _materialise(spec, seed, tiny, SETUP_REPEATS)
        reference = _reference_ops(stream, fault)
        for i in range(PASSES):
            directory = os.path.join(workdir, f"service{i}")
            engines.append(rungs.engine_rung(stream, ops=reference))
            services.append(rungs.service_rung(stream, directory))
            shutil.rmtree(directory)
    for engine, service in zip(engines, services):
        gate.rung(engine)
        gate.rung(service)
        gate.same("service view", engine.states["live"],
                  service.states["live"])
        gate.same("recovered manager", engine.states["live"],
                  service.states["recovered"])
    engine_ms = _typical([rung.call_ms() for rung in engines])
    ack_ms = _typical([rung.call_ms() for rung in services])
    estimate_ms = _typical([rung.call_ms("estimate") for rung in services])
    values = {
        "setup_s": statistics.median(datagen.each_seconds("generate"))
        + statistics.median(rung.seconds("setup") for rung in services),
        "engine_ops_s": _ops_per_s(engines[0].ops, engine_ms),
        "ingest_ops_s": _ops_per_s(services[0].ops, ack_ms),
        "ack_p50_ms": metrics.p50(ack_ms),
        "estimate_p50_ms": metrics.p50(estimate_ms),
        "recover_s": statistics.median(
            took for rung in services
            for took in rung.each_seconds("recover")),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": len(engines),
        "stream_ops": len(stream.ops),
        "ack_calls_per_pass": len(ack_ms),
        "ack_p95_ms": metrics.p95(ack_ms),
        "estimates_per_pass": len(estimate_ms),
        "estimate_p95_ms": metrics.p95(estimate_ms),
        "setup_repeats": SETUP_REPEATS,
        "probe_p50_us": _probe_p50_us(engines + services),
        "raw_engine_ops_s": _raw_ops_s(engines),
        "raw_ingest_ops_s": _raw_ops_s(services),
    }
    return values, samples


def _http_stage(stream, seed, tiny, workdir, window_s, gate, fault,
                obs: bool = False, launches_wanted: int = 1):
    """Launch the server (``launches_wanted`` times when set-up is being
    measured), drive the window, fetch what the gate and the per-layer
    metrics need, stop it.  Never called under :func:`speed.pinned`: the
    server must not inherit a one-CPU affinity.
    """
    spec = stream.spec
    launcher = rungs.Rung("launcher")
    handle = None
    for i in range(launches_wanted):
        if handle is not None:
            handle.stop()
        with launcher.timed("launch"):
            handle = serve_stack.launch(
                spec.name, seed, os.path.join(workdir, f"server{i}"),
                tiny=tiny, obs=obs)
    try:
        load = httpload.run_window(handle.port, stream, window_s)
        client = httpload.Client(handle.port)
        try:
            status, served = client.json(
                "GET", f"/synopsis?name={spec.query}")
            exposition = (client.call("GET", "/metrics")[1].decode()
                          if obs else "")
        finally:
            client.close()
        report = handle.stop()
    except BaseException:
        handle.kill()
        raise
    gate.count("http requests", load.requests, load.failed)
    for error in load.errors:
        gate.check(error, False)
    gate.check("GET /synopsis was not a 200", status == 200)
    reference = rungs.engine_rung(
        stream, ops=_reference_ops(
            stream, fault, upto=stream.http_start() + load.acked))
    gate.rung(reference)
    gate.same("GET /synopsis", reference.states["live"],
              ([tuple(row) for row in served.get("synopsis", ())],
               served.get("total_results")))
    return load, launcher, report, exposition


def measure_http(spec, seed, seconds, tiny, workdir, gate, fault):
    """``serve_mixed``: engine and recovery in process over the whole
    stream, then writes beside reads over HTTP for a fixed window."""
    engines: List[rungs.Rung] = []
    durables: List[rungs.Rung] = []
    with speed.pinned():
        stream, _ = _materialise(spec, seed, tiny)
        reference = _reference_ops(stream, fault)
        for i in range(PASSES):
            directory = os.path.join(workdir, f"durable{i}")
            engines.append(rungs.engine_rung(stream, ops=reference))
            durables.append(rungs.persist_rung(stream, directory, "batch",
                                               checkpoint=True))
            shutil.rmtree(directory)
    for engine, durable in zip(engines, durables):
        gate.rung(engine)
        gate.rung(durable)
        gate.same("persistent manager", engine.states["live"],
                  durable.states["live"])
        gate.same("recovered manager", engine.states["live"],
                  durable.states["recovered"])
    load, launcher, report, _ = _http_stage(
        stream, seed, tiny, workdir, seconds * HTTP_SHARE, gate, fault,
        launches_wanted=SETUP_REPEATS)
    engine_ms = _typical([rung.call_ms() for rung in engines])
    values = {
        "setup_s": statistics.median(launcher.each_seconds("launch")),
        "engine_ops_s": _ops_per_s(engines[0].ops, engine_ms),
        "ingest_ops_s": load.acked / load.window_s,
        "ack_p50_ms": metrics.p50(load.write_ms),
        "estimate_p50_ms": metrics.p50(load.read_ms),
        "recover_s": statistics.median(
            took for rung in durables
            for took in rung.each_seconds("recover")),
        "peak_rss_mb": report["ru_maxrss_kb"] / 1024.0,
    }
    samples = {
        "passes": len(engines),
        "stream_ops": len(stream.ops),
        "http_window_s": load.window_s,
        "http_writes": len(load.writes_ns),
        "ack_p95_ms": metrics.p95(load.write_ms),
        "http_deletes": load.deletes,
        "http_reads": len(load.reads_ns),
        "estimate_p95_ms": metrics.p95(load.read_ms),
        "setup_repeats": SETUP_REPEATS,
        "probe_p50_us": _probe_p50_us(engines + durables),
        "raw_engine_ops_s": _raw_ops_s(engines),
    }
    return values, samples


# ----------------------------------------------------------------------
# traced run: the per-layer metrics and spans.jsonl
# ----------------------------------------------------------------------
def _record(recorder: SpanRecorder, rung: rungs.Rung) -> None:
    """A rung's raw clock instants as spans under one ``<rung>`` span:
    its marks, every call of every loop, and the speed probes."""
    probes = [(at, at + int(took * 1e9))
              for at, took in zip(rung.probe.at_ns, rung.probe.took_s)]
    top = recorder.add(rung.name, probes[0][0], probes[-1][1])
    for name, start, stop in rung.marks:
        recorder.add(f"{rung.name}.{name}", start, stop, top)
    for label, intervals in rung.calls.items():
        for start, stop in intervals:
            recorder.add(f"{rung.name}.{label}", start, stop, top)
    for start, stop in probes:
        recorder.add("machine.probe", start, stop, top)


def _hist(snapshot: dict, name: str, field: str = "sum") -> float:
    return float(snapshot.get(name, {}).get(field, 0))


def _value(snapshot: dict, name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0))


def trace_workload(spec, seed, seconds, tiny, workdir, gate, fault,
                   spans_path):
    """Replay the stream once per rung with ``obs=MetricsRegistry()`` on
    every layer, spans around every call, then a short HTTP window."""
    recorder = SpanRecorder(f"{spec.name}:seed={seed}")

    def directory(name: str) -> str:
        return os.path.join(workdir, name)

    with recorder.span("workload"):
        with speed.pinned():
            stream, datagen = _materialise(spec, seed, tiny)
            engine = rungs.engine_rung(stream, obs=MetricsRegistry(),
                                       ops=_reference_ops(stream, fault))
            manager = rungs.manager_rung(stream, obs=MetricsRegistry())
            nosync = rungs.persist_rung(
                stream, directory("never"), "never", obs=MetricsRegistry(),
                replicate=True)
            durable = rungs.persist_rung(
                stream, directory("batch"), "batch", obs=MetricsRegistry(),
                checkpoint=True)
            # the persist.batch rung already recovered this very log
            plain = rungs.service_rung(stream, directory("plain"),
                                       name="service.untraced",
                                       recover=False)
            traced = rungs.service_rung(stream, directory("traced"),
                                        obs=MetricsRegistry(),
                                        estimates=False, reads=True,
                                        recover=False)
        ladder = (engine, manager, nosync, durable, plain, traced)
        for rung in (datagen, *ladder):
            _record(recorder, rung)
        window_s = (seconds * HTTP_SHARE if spec.front_door == "http"
                    else min(TRACED_HTTP_SECONDS, seconds * HTTP_SHARE))
        with recorder.span("http"):
            load, _, _, exposition = _http_stage(
                stream, seed, tiny, workdir, window_s, gate, fault, obs=True)
            for start, stop in load.writes_ns:
                recorder.add("http.write", start, stop)
            for start, stop in load.reads_ns:
                recorder.add("http.read", start, stop)
    recorder.write(spans_path)

    reference = engine.states["live"]
    for rung in ladder:
        gate.rung(rung)
        for holder, state in rung.states.items():
            if rung is not engine:
                gate.same(f"{rung.name} ({holder})", reference, state)
    gate.check(
        f"follower epoch {nosync.extra['follower_epoch']} != leader "
        f"acked LSN {nosync.extra['acked_lsn']}",
        nosync.extra["follower_epoch"] == nosync.extra["acked_lsn"])

    ops = engine.ops
    engine_metrics = engine.extra["metrics"]
    # the registry's phase sums are raw clock time: compare like with like
    engine_raw_ns = engine.ops / engine.raw_ops_s() * 1e9
    persist = durable.extra["persist"]
    service_metrics = traced.extra["metrics"]
    served = httpload.parse_exposition(exposition)

    def per_op_us(upper: rungs.Rung, lower: rungs.Rung) -> float:
        return (upper.elapsed_s() / upper.ops
                - lower.elapsed_s() / lower.ops) * 1e6

    def read_p50(label: str) -> float:
        return metrics.p50(traced.call_ms(label))

    def served_mean_ms(family: str) -> float:
        count = served.get(f"repro_{family}_count", 0.0)
        return served.get(f"repro_{family}_sum", 0.0) / count / 1e6 \
            if count else 0.0

    replay_s = max(statistics.median(durable.each_seconds("recover"))
                   - durable.seconds("snapshot_load"), 1e-9)
    front_door_s_per_op = (load.window_s / max(load.acked, 1)
                           if spec.front_door == "http"
                           else traced.elapsed_s() / traced.ops)
    values = {
        "datagen.generate_s": datagen.seconds("generate"),
        "setup.preload_s": traced.seconds("setup"),
        "engine.ops_s": engine.ops_s(),
        "engine.us_per_op": engine.elapsed_s() / ops * 1e6,
        "engine.batch_p50_ms": metrics.p50(engine.call_ms()),
        "engine.batch_p95_ms": metrics.p95(engine.call_ms()),
        "engine.share_of_ingest":
            engine.elapsed_s() / ops / front_door_s_per_op,
        "engine.alg1_graph_share":
            _hist(engine_metrics, "engine.insert.graph_ns") / engine_raw_ns,
        "engine.alg3_sample_share":
            _hist(engine_metrics, "engine.insert.sample_ns") / engine_raw_ns,
        "engine.delete_graph_share":
            _hist(engine_metrics, "engine.delete.graph_ns") / engine_raw_ns,
        "engine.alg2_replenish_share":
            _hist(engine_metrics, "engine.delete.replenish_ns")
            / engine_raw_ns,
        "graph.vertices_visited_per_op":
            _value(engine_metrics, "graph.vertices_visited") / ops,
        "graph.index_refreshes_per_op":
            _value(engine_metrics, "graph.index_refreshes") / ops,
        "graph.index_maintenance_ops_per_op":
            _value(engine_metrics, "graph.index_maintenance_ops") / ops,
        "synopsis.skips_drawn":
            _value(engine_metrics, "synopsis.skips_drawn"),
        "synopsis.redraws": _value(engine_metrics, "synopsis.redraws"),
        "synopsis.rebuilds": _value(engine_metrics, "synopsis.rebuilds"),
        "fk.assembles_per_op":
            _value(engine_metrics, "fk.assembles") / ops,
        "manager.ops_s": manager.ops_s(),
        "manager.incr_us_per_op": per_op_us(manager, engine),
        "persist.nosync_ops_s": nosync.ops_s(),
        "persist.wal_incr_us_per_op": per_op_us(nosync, manager),
        "persist.ops_s": durable.ops_s(),
        "persist.fsync_incr_us_per_op": per_op_us(durable, nosync),
        "persist.wal_bytes_per_op": persist["wal_bytes"] / durable.ops,
        "persist.wal_syncs_per_op": persist["wal_syncs"] / durable.ops,
        "persist.checkpoint_s": durable.seconds("checkpoint"),
        "persist.snapshot_bytes": durable.extra["snapshot_bytes"],
        "persist.snapshot_load_s": durable.seconds("snapshot_load"),
        "persist.replay_ops_s": durable.extra["replayed_ops"] / replay_s,
        "service.ops_s": traced.ops_s(),
        "service.incr_us_per_op": per_op_us(traced, durable),
        "service.batch_ops_mean":
            _hist(service_metrics, "service.batch_ops", "mean"),
        # the two the issue's rule demoted from end-to-end (README)
        "ack_p95_ms": metrics.p95(
            load.write_ms if spec.front_door == "http"
            else plain.call_ms()),
        "estimate_p95_ms": metrics.p95(
            load.read_ms if spec.front_door == "http"
            else plain.call_ms("estimate")),
        "service.view_fetch_p50_us": read_p50("service.view_fetch") * 1e3,
        "service.synopsis_payload_p50_us":
            read_p50("service.synopsis_payload") * 1e3,
        "aqp.count_p50_us": read_p50("aqp.count") * 1e3,
        "aqp.filter_p50_us": read_p50("aqp.filter") * 1e3,
        "aqp.groupby_p50_ms": read_p50("aqp.groupby"),
        "http.ops_s": load.acked / load.window_s,
        "http.write_p50_ms": metrics.p50(load.write_ms),
        "http.read_p50_ms": metrics.p50(load.read_ms),
        "http.write_overhead_mean_ms":
            statistics.fmean(load.write_ms)
            - served_mean_ms("service_ingest_batch_ns"),
        "http.read_overhead_mean_ms":
            statistics.fmean(load.read_ms)
            - served_mean_ms("aqp_estimate_ns"),
        "http.requests": load.requests,
        "http.non200": load.non200,
        "replicate.ship_s": nosync.seconds("ship"),
        "replicate.ship_bytes": nosync.extra["ship_bytes"],
        "replicate.follower_bootstrap_s":
            nosync.seconds("follower_bootstrap"),
        "replicate.follower_apply_ops_s":
            nosync.extra["follower_ops"] / nosync.seconds("follower_apply"),
        "trace_overhead_ratio": traced.ops_s() / plain.ops_s(),
        "error_share": gate.failed / max(gate.attempted, 1),
    }
    samples = {
        "stream_ops": len(stream.ops),
        "calls_per_rung": len(engine.calls["apply_batch"]),
        "http_window_s": load.window_s,
        "http_writes": len(load.writes_ns),
        "http_deletes": load.deletes,
        "http_reads": len(load.reads_ns),
        "probe_p50_us": _probe_p50_us(ladder),
        "raw_engine_ops_s": engine.raw_ops_s(),
        "raw_service_ops_s": traced.raw_ops_s(),
        "spans": len(recorder.spans),
        "spans_path": os.path.relpath(spans_path),
    }
    return values, samples


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _meta(args) -> dict:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "index_backend": default_backend(),
        "batch": streams.BATCH,
        "probe_ref_us": speed.PROBE_REF_S * 1e6,
    }


def run_one(args, contract: metrics.Declared) -> int:
    """One workload, one mode, in this process; prints the result line."""
    spec = streams.BY_NAME[args.workload]
    traced = args.trace == "1"
    workdir = os.path.join(WORK_ROOT, f"{spec.name}-{os.getpid()}")
    os.makedirs(workdir)
    gate = Gate()
    try:
        if traced:
            spans_path = args.spans or os.path.join(
                WORK_ROOT, f"spans-{spec.name}.jsonl")
            values, samples = trace_workload(
                spec, args.seed, args.seconds, args.tiny, workdir, gate,
                args.inject_fault, spans_path)
            declared = contract.per_layer
        else:
            measure = (measure_http if spec.front_door == "http"
                       else measure_stream)
            values, samples = measure(
                spec, args.seed, args.seconds, args.tiny, workdir, gate,
                args.inject_fault)
            declared = contract.end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = contract.units
    for name in metrics.missing_or_non_finite(values, declared):
        gate.check(f"metric {name} is missing or not finite", False)
    print(f"# {spec.name} seed={args.seed} trace={args.trace} "
          f"({contract.why[spec.name]})")
    for name, *_ in declared:
        print(f"{name:<38} {values.get(name, float('nan')):>16.6f} "
              f"{units[name]}")
    for name, count in samples.items():
        print(f"# samples.{name} = {count}")
    for problem in gate.problems:
        print(f"# GATE: {problem}")
    result = {
        "correct": gate.correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics.as_metrics(values, units),
    }
    if args.out:
        section = "per_layer" if traced else "end_to_end"
        with open(args.out, "w") as fh:
            json.dump({
                "meta": _meta(args),
                "workloads": {spec.name: {
                    section: values, f"{section}_samples": samples,
                    f"{section}_gate": {
                        "correct": gate.correct,
                        "attempted": gate.attempted,
                        "failed": gate.failed, "problems": gate.problems},
                }},
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh child;
    ``--repeat N`` does that for seeds ``seed .. seed+N-1`` (one set of
    runs), tracing only the first ``TRACED_SEEDS`` of them: per-layer
    metrics carry no bound, so a set needs few traced runs."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    runs: List[dict] = []
    status = 0
    for seed in range(args.seed, args.seed + args.repeat):
        modes = ("0", "1") if args.trace == "both" else (args.trace,)
        if seed - args.seed >= TRACED_SEEDS:
            modes = tuple(mode for mode in modes if mode == "0")
        merged: Dict[str, dict] = {}
        for spec in streams.WORKLOADS:
            for mode in modes:
                part = os.path.join(
                    WORK_ROOT, f"part-{spec.name}-{mode}-{os.getpid()}.json")
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", spec.name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", mode,
                       "--out", part]
                if args.tiny:
                    cmd.append("--tiny")
                if args.inject_fault:
                    cmd += ["--inject-fault", args.inject_fault]
                status = subprocess.run(cmd).returncode or status
                if os.path.exists(part):
                    with open(part) as fh:
                        merged.setdefault(spec.name, {}).update(
                            json.load(fh)["workloads"][spec.name])
                    os.remove(part)
        runs.append({"seed": seed, "workloads": merged})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": _meta(args), "runs": runs}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    contract = metrics.load()
    parser = argparse.ArgumentParser(
        prog="benchmarks.layers", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *streams.BY_NAME])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract.run_seconds,
                        help="measuring budget of one run: sets the length "
                             "of the HTTP windows; the in-process replays "
                             "are sized for it in stream.py and do not "
                             "stretch")
    parser.add_argument("--trace", default=None, choices=["0", "1", "both"],
                        help="0: end-to-end metrics, tracing off; 1: "
                             "per-layer metrics + spans.jsonl; both: "
                             "only with --workload all (its default)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: run this many seeds, "
                             "starting at --seed (one set of runs; only "
                             f"its first {TRACED_SEEDS} seeds are traced)")
    parser.add_argument("--out", help="also write the results as JSON")
    parser.add_argument("--spans", help="where a traced run writes "
                                        "spans.jsonl")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (numbers mean nothing)")
    parser.add_argument("--inject-fault", choices=["drop-op"],
                        help="make the reference wrong on purpose; the "
                             "run must then exit non-zero")
    args = parser.parse_args(argv)
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        parser.error(f"refusing to run with {', '.join(present)} set: "
                     "the benchmark measures the default engine")
    if args.workload == "all":
        args.trace = args.trace or "both"
        return run_all(args)
    if args.trace == "both":
        parser.error("--trace both needs --workload all")
    args.trace = args.trace or "0"
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
