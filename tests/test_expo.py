"""repro.obs.expo: Prometheus text rendering, golden file, HTTP parity.

The validation parser below is a deliberately minimal OpenMetrics /
Prometheus-text-format line parser (no third-party dependency): it
checks line grammar, HELP/TYPE pairing, family uniqueness, and
histogram invariants (cumulative buckets, mandatory ``+Inf``,
``_count`` agreement) — exactly the properties a real scraper relies
on.
"""

import json
import os
import re
import urllib.request

import pytest

from repro import Database, MaintainerConfig
from repro.obs import MetricsRegistry, render_exposition
from repro.obs import names as metric_names
from repro.obs.expo import CONTENT_TYPE, sanitize_name

from conftest import make_tables, single_query

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "metrics.prom")

_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)'        # metric name
    r'(?:\{([^}]*)\})?'                 # optional label set
    r' (NaN|[+-]?Inf|[0-9eE.+-]+)$'     # value
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(body):
    """A ``k="v",...`` label body as a dict (grammar-checked)."""
    if body is None:
        return {}
    labels = {}
    rebuilt = []
    for match in _LABEL_RE.finditer(body):
        labels[match.group(1)] = match.group(2)
        rebuilt.append(match.group(0))
    assert ",".join(rebuilt) == body, f"malformed label set: {body!r}"
    return labels


def parse_exposition(text):
    """Parse Prometheus text format into ``{family: parsed}`` dicts.

    Returns a mapping from family name to ``{"help": str, "type": str
    or None, "samples": [(sample_name, labels_dict, float_value)]}``.
    Raises AssertionError on any grammar or structural violation.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in families, f"family {name} repeated"
            current = {"help": help_text, "type": None, "samples": []}
            families[name] = current
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert current is not None and name in families
            assert kind in ("counter", "gauge", "histogram"), kind
            assert families[name]["type"] is None, f"{name} re-typed"
            families[name]["type"] = kind
        elif line.startswith("#"):
            raise AssertionError(f"unknown comment line: {line!r}")
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            sample_name, label_body, raw = match.groups()
            value = float(raw)
            family = _owning_family(families, sample_name)
            assert family is not None, \
                f"sample {sample_name} precedes its HELP line"
            families[family]["samples"].append(
                (sample_name, _parse_labels(label_body), value))
    for name, family in families.items():
        assert family["samples"], f"family {name} has no samples"
        if family["type"] == "histogram":
            _check_histogram(name, family["samples"])
    return families


def _owning_family(families, sample_name):
    for suffix in ("", "_bucket", "_sum", "_count"):
        if suffix and sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
        elif suffix:
            continue
        else:
            base = sample_name
        if base in families:
            return base
    return None


def _check_histogram(name, samples):
    # labeled children are independent histogram series within the
    # family: group by the non-le label set, check each series
    def series_key(labels):
        return tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le"))

    buckets = {}
    counts = {}
    for n, labels, v in samples:
        if n == f"{name}_bucket":
            assert "le" in labels, f"{name} bucket missing le"
            buckets.setdefault(series_key(labels), []).append(
                (labels["le"], v))
        elif n == f"{name}_count":
            counts.setdefault(series_key(labels), []).append(v)
    assert buckets and set(buckets) == set(counts), \
        f"{name} bucket/count series mismatch"
    for key, series in buckets.items():
        (count,) = counts[key]
        assert series[-1][0] == "+Inf", "last bucket must be le=+Inf"
        values = [v for _, v in series]
        assert values == sorted(values), f"{name} buckets not cumulative"
        assert series[-1][1] == count, \
            f"{name} +Inf bucket disagrees with _count"
        uppers = [float(le) for le, _ in series[:-1]]
        assert uppers == sorted(uppers), f"{name} le bounds out of order"


# ----------------------------------------------------------------------
# renderer units
# ----------------------------------------------------------------------
class TestRenderer:
    def test_sanitize_name(self):
        assert sanitize_name("engine.insert_ns") == \
            "repro_engine_insert_ns"
        assert sanitize_name("table.ss.insert_ns") == \
            "repro_table_ss_insert_ns"
        assert sanitize_name("9weird-name") == "repro__9weird_name"

    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("synopsis.accepts").inc(3)
        registry.gauge("synopsis.size").set(7)
        hist = registry.histogram("engine.insert_ns")
        hist.observe(1)
        hist.observe(1000)
        families = parse_exposition(render_exposition(registry.snapshot()))
        accepts = families["repro_synopsis_accepts"]
        assert accepts["type"] == "counter"
        assert accepts["samples"] == [("repro_synopsis_accepts", {}, 3.0)]
        size = families["repro_synopsis_size"]
        assert size["type"] == "gauge"
        assert size["samples"] == [("repro_synopsis_size", {}, 7.0)]
        hist_family = families["repro_engine_insert_ns"]
        assert hist_family["type"] == "histogram"
        samples = dict(
            ((n, labels.get("le")), v)
            for n, labels, v in hist_family["samples"])
        # log2 buckets: 1 lands in upper bound 1, 1000 in 1023;
        # cumulative counts must therefore read 1 then 2
        assert samples[("repro_engine_insert_ns_bucket", "1.0")] == 1.0
        assert samples[("repro_engine_insert_ns_bucket", "1023.0")] == 2.0
        assert samples[("repro_engine_insert_ns_bucket", "+Inf")] == 2.0
        assert samples[("repro_engine_insert_ns_sum", None)] == 1001.0
        assert samples[("repro_engine_insert_ns_count", None)] == 2.0

    def test_labeled_children_group_under_one_family(self):
        registry = MetricsRegistry()
        estimates = registry.counter("aqp.estimates")
        estimates.inc(5)
        estimates.labels(query="q1").inc(3)
        estimates.labels(query="q2").inc(2)
        text = render_exposition(registry.snapshot())
        families = parse_exposition(text)
        family = families["repro_aqp_estimates"]
        assert family["type"] == "counter"
        # unlabeled head first, children after it in label order
        assert family["samples"] == [
            ("repro_aqp_estimates", {}, 5.0),
            ("repro_aqp_estimates", {"query": "q1"}, 3.0),
            ("repro_aqp_estimates", {"query": "q2"}, 2.0),
        ]
        # HELP/TYPE appear exactly once for the whole family
        assert text.count("# HELP repro_aqp_estimates ") == 1
        assert text.count("# TYPE repro_aqp_estimates ") == 1

    def test_labeled_histogram_renders_per_series_buckets(self):
        registry = MetricsRegistry()
        lag = registry.histogram("replicate.lag_ms")
        lag.labels(role="leader").observe(3)
        lag.labels(role="follower").observe(700)
        families = parse_exposition(render_exposition(registry.snapshot()))
        family = families["repro_replicate_lag_ms"]
        assert family["type"] == "histogram"
        by_series = {}
        for n, labels, v in family["samples"]:
            if n.endswith("_count"):
                by_series[labels.get("role")] = v
        # the (empty) head plus one series per role
        assert by_series == {None: 0.0, "leader": 1.0, "follower": 1.0}
        # bucket lines carry the role label alongside le
        leader_buckets = [
            labels for n, labels, v in family["samples"]
            if n.endswith("_bucket") and labels.get("role") == "leader"]
        assert leader_buckets and all("le" in l for l in leader_buckets)

    def test_label_values_escape_quotes_and_backslashes(self):
        registry = MetricsRegistry()
        registry.gauge("aqp.coverage").labels(
            query='we"ird\\name').set(0.9)
        families = parse_exposition(render_exposition(registry.snapshot()))
        (head, child) = families["repro_aqp_coverage"]["samples"]
        assert head == ("repro_aqp_coverage", {}, 0.0)
        # the parser keeps the escaped form; unescaping restores the raw
        assert child[1]["query"].replace(r'\"', '"').replace(
            r"\\", "\\") == 'we"ird\\name'

    def test_bare_numbers_render_untyped(self):
        families = parse_exposition(render_exposition(
            {"engine.work_units": 12, "engine.load": 0.5}))
        work = families["repro_engine_work_units"]
        assert work["type"] is None
        assert work["samples"] == [("repro_engine_work_units", {}, 12.0)]
        assert families["repro_engine_load"]["samples"][0][2] == 0.5

    def test_empty_snapshot_renders_empty(self):
        assert render_exposition({}) == ""

    def test_help_line_carries_the_catalogue_name(self):
        registry = MetricsRegistry()
        registry.counter("fk.lookups").inc()
        families = parse_exposition(render_exposition(registry.snapshot()))
        assert families["repro_fk_lookups"]["help"] == "fk.lookups"


# ----------------------------------------------------------------------
# catalogue coverage: every instrument, exactly once
# ----------------------------------------------------------------------
#: the catalogue's gauges and its two histograms that are not ``_ns``
#: latencies, as ``repro.obs.names`` documents them; every other name
#: is a counter
CATALOGUE_GAUGES = {
    metric_names.GRAPH_INDEX_MAINTENANCE_OPS,
    metric_names.SYNOPSIS_SIZE, metric_names.TOTAL_RESULTS,
    metric_names.TRACE_SLOW_OPS,
    metric_names.QUALITY_PROBE_ROUNDS,
    metric_names.QUALITY_PROBES_DRAWN,
    metric_names.QUALITY_CHI_SQUARE, metric_names.QUALITY_KS_RATIO,
    metric_names.QUALITY_FLAGGED,
    metric_names.QUALITY_STALENESS_SECONDS,
    metric_names.AQP_RELATIVE_ERROR, metric_names.AQP_COVERAGE,
    metric_names.AQP_COVERAGE_FLAGGED,
    metric_names.EVENTS_EMITTED, metric_names.EVENTS_DROPPED,
    metric_names.REPLICATE_ACKED_LSN,
    metric_names.REPLICATE_APPLIED_LSN,
    metric_names.REPLICATE_EPOCH_LAG,
    metric_names.REPLICATE_STALENESS_SECONDS,
    metric_names.SERVICE_QUEUE_DEPTH, metric_names.SERVICE_EPOCH,
}
CATALOGUE_HISTOGRAMS = {metric_names.SERVICE_BATCH_OPS,
                        metric_names.REPLICATE_LAG_MS}


def documented_type(name):
    if name.endswith("_ns") or name in CATALOGUE_HISTOGRAMS:
        return "histogram"
    return "gauge" if name in CATALOGUE_GAUGES else "counter"


def touch_catalogue(registry):
    """Exercise every name in the catalogue with its documented type."""
    for name in metric_names.ALL_METRIC_NAMES:
        kind = documented_type(name)
        if kind == "histogram":
            registry.histogram(name).observe(1)
        elif kind == "gauge":
            registry.gauge(name).set(1)
        else:
            registry.counter(name).inc()


def test_every_catalogue_name_renders_exactly_once():
    registry = MetricsRegistry()
    touch_catalogue(registry)
    families = parse_exposition(render_exposition(registry.snapshot()))
    rendered = set(families)
    expected = {sanitize_name(name)
                for name in metric_names.ALL_METRIC_NAMES}
    assert rendered == expected
    # "exactly once" is enforced structurally: parse_exposition raises
    # on a repeated HELP line, so set equality completes the check
    assert len(metric_names.ALL_METRIC_NAMES) == len(expected)


def test_every_catalogue_name_has_an_emitter(tmp_path):
    """The render test feeds a synthetic registry; this one proves each
    name is *produced*: a small real stack, observability on everywhere,
    and every catalogue name must show up in some snapshot with its
    documented type.  A name nothing reaches gets deleted."""
    import threading
    import time

    from repro import (DeleteOp, InsertOp, JoinSynopsisMaintainer,
                       SynopsisManager, SynopsisSpec)
    from repro.aqp import QueryRegistry
    from repro.errors import ReproError, ServiceOverloadedError
    from repro.obs import EventLog, QualityConfig
    from repro.persist import PersistentManager
    from repro.replicate import FollowerService, WalShipper
    from repro.service import ServiceConfig, SynopsisService

    sql = "SELECT * FROM r, s WHERE r.c0 = s.c0"
    leader_dir, ship_dir = str(tmp_path / "leader"), str(tmp_path / "ship")
    events = EventLog(sink=lambda payload: None)
    obs = MetricsRegistry(events=events, slow_op_threshold_ns=0)
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    pm = PersistentManager(
        SynopsisManager(db, MaintainerConfig(seed=1, obs=obs)),
        leader_dir, obs=obs)
    pm.register("q", sql, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(8), seed=2))
    shipper = WalShipper(leader_dir, ship_dir, obs=MetricsRegistry())
    with SynopsisService(pm, ServiceConfig(
            max_queue_ops=1, overflow_policy="reject", obs=obs,
            events=events, quality=QualityConfig(
                check_every=10, probes=8, min_results=1,
                min_samples=1))) as service:
        service.apply_batch([InsertOp(table, (i % 3, i))
                             for i in range(20) for table in ("r", "s")])
        shipper.ship_once()
        follower = FollowerService(ship_dir, obs=MetricsRegistry())
        service.apply_batch([DeleteOp("r", tid) for tid in range(12)])
        with pytest.raises(ReproError):          # the refused batch
            service.delete("r", 10 ** 6)
        # the rejected submission: the ingest thread held inside a heap
        # insert, one submission queued behind it, the queue is full
        entered, release = threading.Event(), threading.Event()
        heap_insert = db.table("s").insert

        def gated(row):
            if row == (9, 9):
                entered.set()
                release.wait(10)
            return heap_insert(row)

        db.table("s").insert = gated
        service.apply_batch([InsertOp("s", (9, 9))], wait=False)
        assert entered.wait(10)
        service.apply_batch([InsertOp("s", (0, 100))], wait=False)
        with pytest.raises(ServiceOverloadedError):
            service.apply_batch([InsertOp("s", (0, 101))], wait=False)
        release.set()
        while service.queue_depth:               # drains behind it
            time.sleep(0.001)
        service.synopsis()
        QueryRegistry(service).get("q").estimate("count")   # audited
        service.checkpoint()
        shipper.ship_once()
        follower.catch_up()
        snapshots = [service.metrics_snapshot(), shipper.obs.snapshot(),
                     follower.metrics_snapshot()]
    pm.close()
    recovered = PersistentManager.recover(leader_dir, obs=MetricsRegistry())
    recovered.stats()
    recovered.close()
    baseline = JoinSynopsisMaintainer(db, sql, MaintainerConfig(
        engine="sj", obs=MetricsRegistry()))
    baseline.insert("s", (1, 200))
    snapshots += [recovered.obs.snapshot(), baseline.stats().metrics]
    for name in metric_names.ALL_METRIC_NAMES:
        types = {snap[name]["type"] for snap in snapshots if name in snap}
        assert types == {documented_type(name)}, (name, types)


# ----------------------------------------------------------------------
# golden file
# ----------------------------------------------------------------------
def golden_snapshot():
    """A small deterministic snapshot exercising every rendering rule."""
    registry = MetricsRegistry()
    registry.counter("synopsis.accepts").inc(3)
    registry.counter("service.ops_applied").inc(41)
    registry.gauge("synopsis.size").set(7)
    registry.gauge("quality.flagged").set(0)
    hist = registry.histogram("engine.insert_ns")
    for value in (1, 6, 6, 900):
        hist.observe(value)
    # a labeled family: per-query audit children under one family header
    estimates = registry.counter("aqp.estimates")
    estimates.inc(9)
    estimates.labels(query="q1").inc(6)
    estimates.labels(query="q2").inc(3)
    registry.histogram("replicate.lag_ms").labels(
        role="follower").observe(250)
    snapshot = dict(registry.snapshot())
    snapshot["engine.work_units"] = 12        # bare work counter
    return snapshot


def test_exposition_matches_golden_file():
    rendered = render_exposition(golden_snapshot())
    with open(GOLDEN_PATH) as fh:
        golden = fh.read()
    assert rendered == golden, (
        "exposition drifted from tests/golden/metrics.prom; if the "
        "change is intentional, regenerate the golden file")
    parse_exposition(golden)


# ----------------------------------------------------------------------
# HTTP + client parity
# ----------------------------------------------------------------------
@pytest.fixture
def service():
    from repro.service import ServiceConfig, SynopsisService

    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    manager, _ = single_query(
        db, "SELECT * FROM r, s WHERE r.c0 = s.c0",
        MaintainerConfig(seed=1, obs=MetricsRegistry()))
    svc = SynopsisService(manager,
                          ServiceConfig(obs=MetricsRegistry()))
    yield svc
    svc.close()


def test_http_metrics_endpoint_serves_parsable_text(service):
    from repro.service import ServiceHTTPServer

    service.insert("r", (1, 1))
    service.insert("s", (1, 2))
    with ServiceHTTPServer(service, port=0) as server:
        host, port = server.address
        response = urllib.request.urlopen(
            f"http://{host}:{port}/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"] == CONTENT_TYPE
        body = response.read().decode("utf-8")
    families = parse_exposition(body)
    assert "repro_service_epoch" in families
    assert "repro_service_ops_applied" in families
    assert "repro_engine_insert_ns" in families


def test_local_client_metrics_parity(service):
    from repro.service import LocalServiceClient

    service.insert("r", (2, 1))
    client = LocalServiceClient(service)

    def settled(text):      # the view's age is read at scrape time
        return [line for line in text.splitlines()
                if not line.startswith("repro_quality_staleness_seconds ")]

    assert settled(client.metrics()) == settled(service.exposition())
    parse_exposition(client.metrics())


def test_exposition_covers_view_and_service_registries(service):
    # target work counters (captured in the view) and live service
    # instruments must land in one exposition
    service.insert("r", (3, 1))
    service.insert("s", (3, 2))
    families = parse_exposition(service.exposition())
    assert "repro_synopsis_total_results" in families
    assert "repro_service_ingest_batch_ns" in families


def test_cli_metrics_subcommand_output_parses(capsys):
    from repro.cli import main

    main(["metrics", "--query", "QY", "--scale", "tiny",
          "--budget", "5"])
    out = capsys.readouterr().out
    families = parse_exposition(out)
    assert "repro_engine_insert_ns" in families
    assert json.dumps(sorted(families)) is not None
