"""Command-line interface: run the paper's workloads from a shell.

Usage::

    python -m repro.cli stats --query QY --scale tiny --json
    python -m repro.cli stats --workload linear-road --d 100 --explain

``stats`` runs one workload — a TPC-DS-like query (``--deletions``
weaves in the §7.3 pattern) or the QB band join — through one engine
with observability enabled and dumps the metrics snapshot
(pretty-printed, or JSON with ``--json``); ``--budget`` caps the
stream's wall-clock time.  The paper's figures are re-measured by
``benchmarks/paper.py``, not here.

``checkpoint`` runs a TPC-DS workload under WAL durability and leaves a
recoverable state directory behind; ``restore`` recovers such a
directory — snapshot load, verification, WAL-tail replay — and prints
the recovered queries' stats::

    python -m repro.cli checkpoint --dir /tmp/qy --query QY --scale tiny
    python -m repro.cli restore --dir /tmp/qy

``serve`` stands up the concurrent serving layer (:mod:`repro.service`)
over a freshly-preloaded workload — or, with ``--dir``, over a durable
state directory (recovered if it exists, created otherwise) — and
answers JSON over HTTP until interrupted.  The workload's query is
registered under its name (``QX``/``QY``/``QZ``) on a
:class:`~repro.core.manager.SynopsisManager`; writes address base
tables, and the AQP routes (``POST /query/QY/estimate``) answer from
the same synopsis::

    python -m repro.cli serve --query QY --scale tiny --port 8080
    python -m repro.cli serve --dir /tmp/qy --port 8080   # durable

``metrics`` runs one workload like ``stats`` and prints the
Prometheus/OpenMetrics text exposition (the same body ``GET /metrics``
serves); ``top`` polls a running ``serve`` endpoint and renders a live
health/quality view::

    python -m repro.cli metrics --query QY --scale tiny
    python -m repro.cli top --url http://127.0.0.1:8080 --interval 2

``serve --slow-op-ms N`` writes every stage that took N ms or longer
(engine insert segment or delete run, WAL append, snapshot write, ingest
batch, follower apply) to the event log as ``trace.slow_op``;
``--quality`` arms the online sample-quality monitor.  Both work alike
on a fresh target, a recovered ``--dir`` target and ``--follow``.

``ship`` publishes a leader's durable state directory through a
replication transport (:mod:`repro.replicate`), and ``serve --follow``
serves a read-only follower replica tailing such a shipped directory::

    python -m repro.cli ship --from /tmp/qy --to /mnt/ship --interval 1
    python -m repro.cli serve --follow /mnt/ship \
        --leader-url http://leader:8080 --port 8081

``lag`` summarises correlated replication lag — from a follower's
``/healthz``, or straight off a shipped manifest's publish watermarks
with ``--ship``; ``events`` dumps a running endpoint's structured event
log; ``query audit`` fetches a registered query's accuracy audit::

    python -m repro.cli lag --url http://127.0.0.1:8081
    python -m repro.cli lag --ship /mnt/ship
    python -m repro.cli events --url http://127.0.0.1:8080 --kind quality
    python -m repro.cli query audit q1 --url http://127.0.0.1:8080
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Tuple

from repro.core import (JoinSynopsisMaintainer, MaintainerConfig,
                        SynopsisManager, SynopsisSpec)
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import (Insert, StreamPlayer, count_operations,
                                    interleave_deletions)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry


def parse_synopsis(text: str) -> SynopsisSpec:
    """``fixed:1000`` | ``replacement:1000`` | ``bernoulli:0.001`` |
    ``weighted:1000@alias.attr`` | ``weighted-replacement:1000@a.w`` |
    ``subset:0.001[@alias.attr]``.

    The ``@alias.attr`` suffix names the integer weight column; weight-
    aware kinds without one weight every tuple 1 (uniform targets
    through the weighted machinery).
    """
    kind, _, param = text.partition(":")
    kind = kind.lower()
    if not param:
        raise ReproError(f"synopsis spec needs a parameter: {text!r}")
    param, _, weight_column = param.partition("@")
    weight_column = weight_column or None
    try:
        return _dispatch_synopsis(text, kind, param, weight_column)
    except ValueError as exc:
        raise ReproError(
            f"bad synopsis parameter in {text!r}: {exc}") from exc


def _dispatch_synopsis(text: str, kind: str, param: str,
                       weight_column: Optional[str]) -> SynopsisSpec:
    if kind in ("fixed", "replacement", "fixed_wr", "bernoulli"):
        if weight_column is not None:
            raise ReproError(
                f"synopsis kind {kind!r} is uniform and takes no "
                f"@weight-column (got {text!r}); use weighted:M, "
                "weighted-replacement:M, or subset:P"
            )
        if kind == "fixed":
            return SynopsisSpec.fixed_size(int(param))
        if kind in ("replacement", "fixed_wr"):
            return SynopsisSpec.with_replacement(int(param))
        return SynopsisSpec.bernoulli(float(param))
    if kind == "weighted":
        return SynopsisSpec.weighted_fixed_size(
            int(param), weight_column=weight_column)
    if kind in ("weighted-replacement", "weighted_replacement"):
        return SynopsisSpec.weighted_with_replacement(
            int(param), weight_column=weight_column)
    if kind == "subset":
        return SynopsisSpec.subset(
            float(param), weight_column=weight_column)
    raise ReproError(f"unknown synopsis kind {kind!r}")


def parse_scale(text: str) -> TpcdsScale:
    presets = {
        "tiny": TpcdsScale.tiny,
        "small": TpcdsScale.small,
        "bench": TpcdsScale.bench,
    }
    if text not in presets:
        raise ReproError(
            f"unknown scale {text!r}; pick one of {sorted(presets)}"
        )
    return presets[text]()


def run_workload(args) -> Tuple[dict, int]:
    """Run the workload ``args`` describe through one maintainer with a
    metrics registry attached (its plan printed first under
    ``--explain``): the preload untimed, then the stream through
    :class:`StreamPlayer` until it ends or ``--budget`` seconds pass.
    Returns the ``stats --json`` record and the stream's op count."""
    import time

    if args.workload == "tpcds":
        setup = setup_query(args.query, parse_scale(args.scale),
                            seed=args.seed)
        preload, events = setup.preload, setup.stream
        if args.deletions:
            events = interleave_deletions(
                [e for e in events if isinstance(e, Insert)],
                delete_every={"ss": 300, "c2": 50},
                delete_count={"ss": 60, "c2": 10},
            )
    else:
        setup = setup_qb(args.d, LinearRoadConfig(
            cars_per_lane=args.cars, ticks=args.ticks), seed=args.seed)
        preload, events = [], setup.events
    maintainer = JoinSynopsisMaintainer(setup.db, setup.sql, MaintainerConfig(
        spec=parse_synopsis(args.synopsis), engine=args.algorithm,
        seed=args.seed, obs=MetricsRegistry()))
    if args.explain:
        from repro.query.explain import explain_plan
        print(explain_plan(maintainer.engine.plan))
        print()
    player = StreamPlayer(maintainer)
    player.run(preload)
    operations, aborted = 0, False
    started = time.perf_counter()
    for event in events:
        if (args.budget is not None
                and time.perf_counter() - started > args.budget):
            aborted = True
            break
        operations += player.apply(event)
    return {
        "engine": args.algorithm,
        "workload": f"{setup.name}/{args.algorithm}",
        "operations": operations,
        "elapsed_sec": time.perf_counter() - started,
        "aborted": aborted,
        "metrics": maintainer.engine.metrics_snapshot(),
    }, count_operations(events)


def summary(run: dict, planned: int) -> str:
    """One line: engine, workload, ops, seconds, ops/s, progress."""
    elapsed = run["elapsed_sec"]
    rate = run["operations"] / elapsed if elapsed > 0 else float("inf")
    progress = run["operations"] / planned if planned else 1.0
    return (
        f"{run['engine']:>10} | {run['workload']:<14} | "
        f"{run['operations']:>8} ops in {elapsed:7.2f}s | "
        f"{rate:>9.1f} ops/s | {100 * progress:5.1f}% | "
        + ("ABORTED" if run["aborted"] else "done")
    )


def format_metrics(metrics: dict) -> str:
    """Human-readable rendering of a registry snapshot."""
    lines = []
    for name in sorted(metrics):
        snap = metrics[name]
        if snap.get("type") == "histogram":
            lines.append(
                f"{name:<34} count={snap['count']:<8} "
                f"mean={snap['mean']:.1f} p50={snap['p50']} "
                f"p95={snap['p95']} p99={snap['p99']}"
            )
        else:
            lines.append(f"{name:<34} {snap['value']}")
    return "\n".join(lines)


def cmd_stats(args) -> None:
    """Run one workload with observability on; dump the metrics snapshot."""
    run, planned = run_workload(args)
    if args.json:
        print(json.dumps(run, indent=2, sort_keys=True))
    else:
        print(summary(run, planned))
        print()
        print(format_metrics(run["metrics"]))


def cmd_metrics(args) -> None:
    """Run one workload with metrics on; print the text exposition."""
    from repro.obs.expo import render_exposition

    print(render_exposition(run_workload(args)[0]["metrics"]), end="")


def format_top(health: dict, stats: Optional[dict] = None) -> str:
    """Render one ``repro top`` frame from ``/healthz`` (+ ``/stats``).

    Pure string building — exposed separately from :func:`cmd_top` so
    tests can exercise the rendering without a socket or a sleep loop.
    """
    lines = [
        "repro top — status {status}  epoch {epoch}".format(
            status=health.get("status", "?"),
            epoch=health.get("epoch", "?")),
        "  version {v}  uptime {u:.1f}s".format(
            v=health.get("version", "?"),
            u=float(health.get("uptime_seconds", 0.0))),
        "  queue depth {q}  staleness {s:.3f}s".format(
            q=health.get("queue_depth", "?"),
            # null on a follower that has no manifest yet
            s=float(health.get("staleness_seconds") or 0.0)),
    ]
    quality = health.get("quality")
    if quality:
        lines.append(
            "  quality: {flag}  chi2 {chi:.1f}/{dof}  ks {ks:.2f}  "
            "rounds {rounds} (skipped {skipped})".format(
                flag="FLAGGED" if quality.get("flagged") else "ok",
                chi=float(quality.get("chi_square", 0.0)),
                dof=quality.get("chi_dof", 0),
                ks=float(quality.get("ks_ratio", 0.0)),
                rounds=quality.get("probe_rounds", 0),
                skipped=quality.get("skipped_rounds", 0)))
    if stats:
        service = stats.get("service", {})
        lines.append(
            "  applied ops {ops}  batches {batches}  errors {errors}"
            .format(ops=service.get("applied_ops", "?"),
                    batches=service.get("applied_batches", "?"),
                    errors=service.get("ingest_errors", "?")))
        typed = stats.get("stats", {})
        if "total_results" in typed:
            lines.append(
                "  J {j}  synopsis {size}".format(
                    j=typed.get("total_results"),
                    size=typed.get("synopsis_size")))
    return "\n".join(lines)


def _http_json(url: str, path: str, body: Optional[dict] = None,
               timeout: float = 30.0) -> Tuple[int, dict]:
    """One JSON round trip against a ``repro serve`` endpoint: ``(status,
    reply)``.  The front door answers every request — errors included —
    with a JSON body, so a 4xx/5xx comes back like a 200 and the caller
    decides whether it exits or renders."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url.rstrip("/") + path)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _print_reply(status: int, reply: dict) -> None:
    """Print a reply as JSON (stable key order) for scripting; an error
    reply (400 parse/plan failures, 403 follower redirects, 404 unknown
    queries, ...) is the output of a nonzero exit, with its
    ``http_status``, instead of a traceback."""
    if status >= 400:
        raise SystemExit(json.dumps({**reply, "http_status": status},
                                    indent=2, sort_keys=True))
    print(json.dumps(reply, indent=2, sort_keys=True))


def cmd_top(args) -> None:
    """Poll a running ``serve`` endpoint; print live health frames (a
    degraded service answers ``/healthz`` with 503 and a body that is
    rendered like any other)."""
    import time

    iteration = 0
    while args.iterations is None or iteration < args.iterations:
        if iteration:
            time.sleep(args.interval)
        _, health = _http_json(args.url, "/healthz", timeout=5)
        _, stats = _http_json(args.url, "/stats", timeout=5)
        print(format_top(health, stats))
        iteration += 1


def cmd_query(args) -> None:
    """``repro query``: the AQP front door over HTTP.

    ``register`` POSTs SQL to ``/query``, ``estimate`` POSTs to
    ``/query/<name>/estimate``, ``list`` GETs ``/queries``, ``audit``
    GETs ``/queries/<name>/audit`` (the per-query accuracy audit:
    realized CI coverage vs nominal, recent records).  Replies are
    printed by :func:`_print_reply`.
    """
    body = None
    if args.action == "register":
        path = "/query"
        body = {"sql": args.sql, "size": args.size, "engine": args.engine}
        if args.name is not None:
            body["name"] = args.name
        if args.weight_column is not None:
            body["weight_column"] = args.weight_column
        if args.seed is not None:
            body["seed"] = args.seed
    elif args.action == "audit":
        path = f"/queries/{args.name}/audit"
        if args.limit is not None:
            path += f"?limit={args.limit}"
    elif args.action == "estimate":
        path = f"/query/{args.name}/estimate"
        body = {"agg": args.agg, "confidence": args.confidence}
        if args.column is not None:
            body["column"] = args.column
        if args.group_by is not None:
            body["group_by"] = args.group_by
        if args.where is not None:
            body["where"] = json.loads(args.where)
    else:  # list
        path = "/queries"
    _print_reply(*_http_json(args.url, path, body))


def cmd_events(args) -> None:
    """``repro events``: dump a serve endpoint's structured event log."""
    from urllib.parse import quote

    path = "/events"
    if args.kind is not None:
        path += "?kind=" + quote(args.kind)
    _print_reply(*_http_json(args.url, path))


def format_lag(body: dict) -> str:
    """Human-readable replication-lag summary from a ``/healthz`` body
    (follower role) or a manifest summary (``--ship``).

    Pure string building — exposed separately from :func:`cmd_lag` so
    tests can exercise the rendering without a socket.
    """
    lines = [
        "replication lag — role {role}  status {status}".format(
            role=body.get("role", "leader"),
            status=body.get("status", "?")),
        "  applied_lsn {a}  acked_lsn {k}  epoch_lag {lag}".format(
            a=body.get("applied_lsn", "—"),
            k=body.get("acked_lsn", "?"),
            lag=body.get("epoch_lag", "—")),
    ]
    staleness = body.get("staleness_seconds")
    if staleness is not None:
        lines.append(f"  manifest staleness {float(staleness):.3f}s")
    if body.get("lag_samples"):
        lines.append(
            "  record lag {ms:.1f}ms (last of {n} samples)".format(
                ms=float(body["lag_ms"]), n=body["lag_samples"]))
    if body.get("stalled") is not None:
        lines.append(
            "  feed {state}  (stall transitions: {n})".format(
                state="STALLED" if body["stalled"] else "flowing",
                n=body.get("stalls", 0)))
    watermarks = body.get("watermarks")
    if watermarks:
        newest = watermarks[-1]
        lines.append(
            "  watermarks {n}  newest lsn {lsn}  publish delay "
            "{ms:.1f}ms".format(
                n=len(watermarks), lsn=newest["lsn"],
                ms=1000.0 * (newest["shipped_at"]
                             - newest["appended_at"])))
    return "\n".join(lines)


def cmd_lag(args) -> None:
    """``repro lag``: correlated replication-lag summary.

    ``--url`` asks a running follower's ``/healthz`` (rendering the
    503 a bootstrapping replica answers like any other reply);
    ``--ship`` reads the shipped manifest directly and summarises its
    publish watermarks — no follower required.
    """
    import time

    if args.ship is not None:
        from repro.replicate.transport import as_transport

        manifest = as_transport(args.ship).read_manifest()
        if manifest is None:
            raise SystemExit(f"nothing shipped yet at {args.ship}")
        body = {
            "role": "leader",
            "status": "shipped",
            "acked_lsn": manifest["acked_lsn"],
            "ship_seq": manifest["ship_seq"],
            "shipped_at": manifest["shipped_at"],
            "staleness_seconds": max(
                0.0, time.time() - manifest["shipped_at"]),
            "watermarks": manifest.get("watermarks", []),
        }
    else:
        _, body = _http_json(args.url, "/healthz", timeout=5)
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(format_lag(body))


def build_stack(args):
    """The one place the CLI assembles the stack ``args`` describes, for
    ``serve``, ``serve --follow``, ``checkpoint`` and ``restore``;
    returns ``(top, stream, close)``.

    ``top`` is the outermost layer built: for ``serve`` the
    :class:`~repro.service.SynopsisService` over the target — or, with
    ``--follow``, a :class:`~repro.replicate.FollowerService` whose poll
    loop is not started yet — and for ``checkpoint`` / ``restore`` the
    :class:`~repro.persist.PersistentManager`.  The target is a
    :class:`SynopsisManager` with the workload's query registered as
    ``args.query`` (``QX``/``QY``/``QZ``), preloaded unless
    ``--no-preload``; with ``--dir`` it sits behind a
    ``PersistentManager`` — recovered for ``restore`` and for ``serve``
    over a directory that holds state, created otherwise (the preload
    folded into its first checkpoint, so only the stream goes through
    the WAL).  ``stream`` is the rest of the workload, addressed by
    *base table* — the manager stack's convention; the generators emit
    range-table aliases and every shipped workload maps the two one to
    one — and is empty for a recovered target.  ``close`` releases
    everything built.

    ``serve`` observes through one registry over the event log ``GET
    /events`` serves (``--slow-op-ms``, in nanoseconds, arms its
    slow-stage promotion), shared by engine, persistence and service so
    a recovered target reports like a fresh one.  Tests drive this
    exact construction without binding a socket.
    """
    from repro.obs import EventLog
    from repro.persist import PersistentManager
    from repro.persist.runtime import has_state
    from repro.replicate import FollowerService
    from repro.service import ServiceConfig, SynopsisService

    serving = args.command == "serve"
    obs = None
    if serving:
        slow_ms = args.slow_op_ms
        obs = MetricsRegistry(
            events=EventLog(capacity=args.events_capacity),
            slow_op_threshold_ns=(None if slow_ms is None
                                  else int(slow_ms * 1e6)))
        if args.follow:
            follower = FollowerService(
                args.follow, leader_url=args.leader_url, obs=obs,
                events=obs.events, quality=args.quality,
                stall_after=args.stall_after)
            return follower, [], follower.stop
    stream = []
    if args.command == "restore" or (
            serving and args.dir and has_state(args.dir)):
        target = PersistentManager.recover(
            args.dir, sync=args.sync, obs=obs, manager_obs=obs)
    else:
        setup = setup_query(args.query, parse_scale(args.scale),
                            seed=args.seed)
        target = SynopsisManager(setup.db, MaintainerConfig(obs=obs))
        query = target.register(args.query, setup.sql, MaintainerConfig(
            spec=parse_synopsis(args.synopsis), engine=args.algorithm,
            seed=args.seed, obs=obs,
        )).query
        table_of = {rt.alias: rt.table_name for rt in query.range_tables}
        preload, stream = [
            [dataclasses.replace(e, alias=table_of[e.alias]) for e in events]
            for events in (setup.preload, setup.stream)]
        if getattr(args, "preload", True):
            StreamPlayer(target).run(preload)
        if args.dir:
            target = PersistentManager(target, args.dir, sync=args.sync,
                                       obs=obs)
    close = target.close if args.dir else (lambda: None)
    if not serving:
        return target, stream, close
    service = SynopsisService(target, ServiceConfig(
        max_queue_ops=args.max_queue_ops,
        max_batch_ops=args.max_batch_ops,
        overflow_policy=args.overflow_policy,
        obs=obs, events=obs.events, quality=args.quality,
    ))

    def close_all() -> None:
        service.close()
        close()

    return service, stream, close_all


def _shared(values):
    """The one value every query agrees on, else ``None``."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else None


def _print_query_stats(stats) -> None:
    for name, query in stats.queries.items():
        print(f"  query {name}")
        print(f"    algorithm          {query.algorithm}")
        print(f"    total results (J)  {query.total_results}")
        print(f"    synopsis size      {query.synopsis_size}")


def cmd_checkpoint(args) -> None:
    """Run a TPC-DS workload under WAL durability; leave a state dir."""
    pm, events, close = build_stack(args)
    if args.events is not None:
        events = events[:args.events]
    StreamPlayer(pm).run(events)
    path = pm.checkpoint()
    close()
    print(f"checkpointed {args.query}/{args.algorithm} -> {path}")
    print(f"  events applied     {len(events)}")
    _print_query_stats(pm.stats())
    for key, value in sorted(pm.persist_metrics().items()):
        print(f"  {key:<18} {value}")


def cmd_restore(args) -> None:
    """Recover a ``checkpoint`` state dir; print the verified stats."""
    pm, _, close = build_stack(args)
    stats = pm.stats()
    close()
    if args.json:
        queries = stats.queries.values()
        print(json.dumps(
            {
                # one value when every recovered query agrees (a
                # ``repro checkpoint`` dir holds exactly one), else null
                "algorithm": _shared(q.algorithm for q in queries),
                "total_results": stats.total_results,
                "synopsis_size": stats.synopsis_size,
                "queries": {
                    name: {"algorithm": q.algorithm,
                           "total_results": q.total_results,
                           "synopsis_size": q.synopsis_size}
                    for name, q in stats.queries.items()
                },
                "persist": pm.persist_metrics(),
            },
            indent=2, sort_keys=True,
        ))
        return
    print(f"recovered {args.dir} (verified against snapshot record)")
    _print_query_stats(stats)
    for key, value in sorted(pm.persist_metrics().items()):
        print(f"  {key:<18} {value}")


def cmd_ship(args) -> None:
    """Ship a leader state dir through a replication transport."""
    import time

    from repro.replicate import WalShipper

    shipper = WalShipper(args.source_dir, args.to, obs=MetricsRegistry())
    manifest = shipper.ship_once()
    print(f"shipped {args.source_dir} -> {args.to} "
          f"(acked_lsn {manifest['acked_lsn']}, "
          f"ship_seq {manifest['ship_seq']})")
    if args.once:
        for key, value in sorted(shipper.ship_metrics().items()):
            print(f"  {key:<18} {value}")
        return
    try:
        while True:
            time.sleep(args.interval)
            manifest = shipper.ship_once()
            print(f"ship_seq {manifest['ship_seq']}  "
                  f"acked_lsn {manifest['acked_lsn']}  "
                  f"bytes {shipper.bytes_shipped}")
    except KeyboardInterrupt:
        pass


def cmd_serve(args) -> None:
    """Serve a synopsis — or, with ``--follow``, a read-only replica of
    one — over JSON/HTTP until interrupted."""
    from repro.service import ServiceHTTPServer

    top, _, close = build_stack(args)
    if args.follow:
        top.start(poll_interval=args.poll_interval)
    server = ServiceHTTPServer(top, host=args.host, port=args.port)
    host, port = server.address
    if args.follow:
        print(f"serving follower on http://{host}:{port} "
              f"(read-only; tailing {args.follow}; writes -> 403"
              + (f" redirecting to {args.leader_url}" if args.leader_url
                 else "") + ")")
    else:
        print(f"serving {args.query} on http://{host}:{port} "
              f"(GET /healthz /metrics /synopsis /stats /queries; "
              f"POST /insert /delete /query/{args.query}/estimate)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        close()


def make_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def engine_options(p, algorithms=("sjoin-opt", "sjoin", "sj")):
        p.add_argument("--algorithm", default="sjoin-opt",
                       choices=list(algorithms))
        p.add_argument("--synopsis", default="fixed:500",
                       help="fixed:M | replacement:M | bernoulli:P | "
                            "weighted:M[@a.w] | "
                            "weighted-replacement:M[@a.w] | "
                            "subset:P[@a.w]")
        p.add_argument("--seed", type=int, default=0)

    def tpcds_options(p, scale):
        p.add_argument("--query", default="QY",
                       choices=["QX", "QY", "QZ"])
        p.add_argument("--scale", default=scale,
                       choices=["tiny", "small", "bench"])

    def either_workload(p, scale):
        engine_options(p)
        p.add_argument("--budget", type=float, default=None,
                       help="wall-clock cap in seconds")
        p.add_argument("--explain", action="store_true",
                       help="print the query plan before running")
        p.add_argument("--workload", default="tpcds",
                       choices=["tpcds", "linear-road"])
        tpcds_options(p, scale)
        p.add_argument("--deletions", action="store_true",
                       help="interleave the §7.3 deletion pattern")
        p.add_argument("--d", type=int, default=100,
                       help="QB band width")
        p.add_argument("--cars", type=int, default=60)
        p.add_argument("--ticks", type=int, default=10)

    stats = sub.add_parser(
        "stats", help="run one workload with metrics on; dump the snapshot")
    either_workload(stats, "small")
    stats.add_argument("--json", action="store_true",
                       help="dump the snapshot as JSON instead of a table")

    metrics = sub.add_parser(
        "metrics",
        help="run one workload with metrics on; print the Prometheus "
             "text exposition")
    either_workload(metrics, "tiny")

    top = sub.add_parser(
        "top", help="poll a running serve endpoint; live health view")
    top.add_argument("--url", default="http://127.0.0.1:8080")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between frames")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: run forever)")

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run a workload under WAL durability; leave a state dir")
    checkpoint.add_argument("--dir", required=True,
                            help="state directory (wal/ + snapshots/)")
    engine_options(checkpoint, algorithms=("sjoin-opt", "sjoin"))
    tpcds_options(checkpoint, "tiny")
    checkpoint.add_argument("--events", type=int, default=None,
                            help="cap the stream length")
    checkpoint.add_argument("--sync", default="batch",
                            choices=["always", "batch", "never"])

    restore = sub.add_parser(
        "restore", help="recover a checkpoint state dir; print stats")
    restore.add_argument("--dir", required=True)
    restore.add_argument("--sync", default="batch",
                         choices=["always", "batch", "never"])
    restore.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve", help="serve a synopsis over JSON/HTTP (repro.service)")
    tpcds_options(serve, "tiny")
    engine_options(serve, algorithms=("sjoin-opt", "sjoin"))
    serve.add_argument("--no-preload", dest="preload",
                       action="store_false",
                       help="start from empty tables instead of the "
                            "workload preload")
    serve.add_argument("--dir", default=None,
                       help="durable state directory: recovered if it "
                            "holds state, created otherwise")
    serve.add_argument("--sync", default="batch",
                       choices=["always", "batch", "never"])
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 binds an ephemeral port")
    serve.add_argument("--max-queue-ops", type=int, default=4096,
                       help="backpressure threshold (enqueued ops)")
    serve.add_argument("--max-batch-ops", type=int, default=256,
                       help="ingest micro-batch coalescing cap")
    serve.add_argument("--overflow-policy", default="block",
                       choices=["block", "reject"])
    serve.add_argument("--slow-op-ms", type=float, default=None,
                       help="write every stage that took this long or "
                            "longer to the event log (trace.slow_op)")
    serve.add_argument("--quality", action="store_true",
                       help="arm the online sample-quality monitor "
                            "(quality.* metrics, /healthz section); "
                            "with --follow it probes the replica's "
                            "restored engine")
    serve.add_argument("--events-capacity", type=int, default=512,
                       help="structured event-log ring slots "
                            "(GET /events; oldest events drop)")
    serve.add_argument("--follow", default=None, metavar="SHIP_DIR",
                       help="follower mode: serve a read-only replica "
                            "tailing this shipped replication directory "
                            "(writes answer 403)")
    serve.add_argument("--leader-url", default=None,
                       help="with --follow: where rejected writes are "
                            "redirected (the 403 Location header)")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       help="with --follow: seconds between manifest "
                            "polls")
    serve.add_argument("--stall-after", type=float, default=None,
                       help="with --follow: manifest staleness (s) that "
                            "declares the feed stalled (replicate.stall "
                            "event)")

    query = sub.add_parser(
        "query",
        help="register SQL queries and get error-bounded answers "
             "from a running serve endpoint (docs/sql.md)")
    qsub = query.add_subparsers(dest="action", required=True)

    def query_common(p):
        p.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the serve endpoint")

    qreg = qsub.add_parser("register", help="POST /query: register SQL")
    query_common(qreg)
    qreg.add_argument("--sql", required=True,
                      help="the join query (SELECT * FROM ... WHERE ...)")
    qreg.add_argument("--name", default=None,
                      help="query name (auto-assigned when omitted)")
    qreg.add_argument("--size", type=int, default=1000,
                      help="synopsis size to provision")
    qreg.add_argument("--engine", default="sjoin-opt",
                      choices=["sjoin-opt", "sjoin", "sj"])
    qreg.add_argument("--weight-column", default=None, metavar="ALIAS.ATTR",
                      help="sample proportionally to this column "
                           "(weighted family; sharpens SUM estimates)")
    qreg.add_argument("--seed", type=int, default=None)
    qest = qsub.add_parser(
        "estimate", help="POST /query/<name>/estimate")
    query_common(qest)
    qest.add_argument("name", help="registered query name")
    qest.add_argument("--agg", default="count",
                      choices=["count", "sum", "avg"])
    qest.add_argument("--column", default=None, metavar="ALIAS.ATTR",
                      help="aggregated column (required for sum/avg)")
    qest.add_argument("--group-by", default=None, metavar="ALIAS.ATTR")
    qest.add_argument("--where", default=None, metavar="JSON",
                      help='conjunctive filters, e.g. \'[{"column": '
                           '"c.region", "op": "=", "value": "emea"}]\'')
    qest.add_argument("--confidence", type=float, default=0.95)
    qlist = qsub.add_parser("list", help="GET /queries")
    query_common(qlist)
    qaud = qsub.add_parser(
        "audit",
        help="GET /queries/<name>/audit: the accuracy audit (realized "
             "CI coverage vs nominal, recent scored estimates)")
    query_common(qaud)
    qaud.add_argument("name", help="registered query name")
    qaud.add_argument("--limit", type=int, default=None,
                      help="return only the newest N audit records")

    events = sub.add_parser(
        "events",
        help="dump a serve endpoint's structured event log (GET /events)")
    events.add_argument("--url", default="http://127.0.0.1:8080")
    events.add_argument("--kind", default=None,
                        help="dotted kind prefix filter, e.g. "
                             "'quality' or 'replicate.stall'")

    lag = sub.add_parser(
        "lag",
        help="correlated replication-lag summary (follower /healthz, "
             "or a shipped manifest's watermarks with --ship)")
    lag.add_argument("--url", default="http://127.0.0.1:8080",
                     help="a running follower serve endpoint")
    lag.add_argument("--ship", default=None, metavar="SHIP_DIR",
                     help="summarise this shipped directory's manifest "
                          "instead of asking a follower")
    lag.add_argument("--json", action="store_true")

    ship = sub.add_parser(
        "ship",
        help="ship a leader state dir to followers (repro.replicate)")
    ship.add_argument("--from", dest="source_dir", required=True,
                      metavar="STATE_DIR",
                      help="leader state directory (wal/ + snapshots/)")
    ship.add_argument("--to", required=True, metavar="SHIP_DIR",
                      help="replication directory followers tail "
                           "(a shared/mounted filesystem path)")
    ship.add_argument("--interval", type=float, default=1.0,
                      help="seconds between ship rounds")
    ship.add_argument("--once", action="store_true",
                      help="run a single ship round and exit")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = make_parser().parse_args(argv)
    if args.command == "stats":
        cmd_stats(args)
    elif args.command == "metrics":
        cmd_metrics(args)
    elif args.command == "top":
        cmd_top(args)
    elif args.command == "checkpoint":
        cmd_checkpoint(args)
    elif args.command == "restore":
        cmd_restore(args)
    elif args.command == "serve":
        cmd_serve(args)
    elif args.command == "query":
        cmd_query(args)
    elif args.command == "events":
        cmd_events(args)
    elif args.command == "lag":
        cmd_lag(args)
    else:
        cmd_ship(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
