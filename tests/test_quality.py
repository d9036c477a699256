"""repro.obs.quality: the online sample-quality monitor.

The decisive pair of tests: honest engines (all three synopsis types)
must stay quiet over many probe rounds, while an engine driven by an
artificially biased RNG — ``random()`` returning ``u⁵``, which
collapses the Vitter skip counter and over-accepts recently-inserted
results — must be flagged, also *through the stack*: whoever serves the
view owns the monitor, so a service over a bare or a persistent manager
probes per applied batch.  Statistics units (KS, chi-square) are tested
against hand-checkable inputs first so a regression localises.
"""

import random

import pytest

from repro import Database, JoinSynopsisMaintainer, MaintainerConfig, \
    SynopsisSpec
from repro.obs import MetricsRegistry, QualityMonitor, quality
from repro.obs import names as metric_names
from repro.obs.quality import chi_square_two_sample, ks_critical, \
    ks_statistic

from conftest import make_tables, single_query

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2)])
    return db


class BiasedRandom(random.Random):
    """``random()`` returns ``u⁵`` — heavily skewed toward 0.

    The Vitter skip sampler draws its skips from ``1 - random()``; the
    power collapses skip lengths toward zero, so the synopsis
    over-accepts late (high-TID) results: exactly the kind of silent
    sampler corruption the monitor exists to catch.
    """

    def random(self):
        return super().random() ** 5


def drive(target, n, rng_seed=13, domain=8, monitor=None):
    rng = random.Random(rng_seed)
    for i in range(n):
        target.insert("r", (rng.randrange(domain), i))
        target.insert("s", (rng.randrange(domain), i))
        if monitor is not None:
            monitor.note_ops(2)


# ----------------------------------------------------------------------
# statistics units
# ----------------------------------------------------------------------
class TestStatistics:
    def test_ks_identical_samples_is_zero(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert ks_statistic(xs, list(xs)) == 0.0

    def test_ks_disjoint_samples_is_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_ks_half_shifted(self):
        # ECDFs of {1,2} vs {2,3} differ by exactly 1/2 at x in [1,2)
        assert ks_statistic([1.0, 2.0], [2.0, 3.0]) == 0.5

    def test_ks_critical_shrinks_with_sample_size(self):
        assert ks_critical(1000, 1000, 0.01) < ks_critical(10, 10, 0.01)

    def test_chi_square_identical_counts_is_zero(self):
        stat, dof = chi_square_two_sample([5, 5, 5], [5, 5, 5])
        assert stat == 0.0
        assert dof == 2

    def test_chi_square_ignores_jointly_empty_cells(self):
        stat, dof = chi_square_two_sample([5, 0, 5], [5, 0, 5])
        assert dof == 1

    def test_chi_square_scales_with_divergence(self):
        mild, _ = chi_square_two_sample([10, 10], [12, 8])
        wild, _ = chi_square_two_sample([10, 10], [20, 0])
        assert wild > mild > 0.0

    def test_chi_square_empty_sample_is_zero(self):
        assert chi_square_two_sample([0, 0], [3, 4]) == (0.0, 0)


# ----------------------------------------------------------------------
# the monitor's settings: module constants
# ----------------------------------------------------------------------
def tune(monkeypatch, **values):
    """Patch the monitor's module constants (``check_every=100`` sets
    ``CHECK_EVERY``) for one test."""
    for name, value in values.items():
        monkeypatch.setattr(quality, name.upper(), value)


class TestQualityConfig:
    def test_defaults(self):
        assert (quality.CHECK_EVERY, quality.PROBES, quality.BUCKETS,
                quality.WINDOW, quality.SIGMA, quality.ALPHA,
                quality.MIN_RESULTS, quality.MIN_SAMPLES,
                quality.SEED) == (2048, 128, 16, 8, 5.0, 1e-4, 256, 32, 0)


# ----------------------------------------------------------------------
# monitor mechanics
# ----------------------------------------------------------------------
class TestMonitorMechanics:
    SMALL = dict(check_every=100, probes=64, min_results=50,
                 min_samples=10, seed=1)

    def test_rounds_skip_below_size_floors(self, monkeypatch):
        tune(monkeypatch, **dict(self.SMALL, min_results=10 ** 9))
        maintainer = JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(seed=1))
        monitor = QualityMonitor(maintainer.engine)
        drive(maintainer, 100)
        assert monitor.check_now() is None
        assert monitor.skipped_rounds == 1
        assert monitor.probe_rounds == 0

    def test_note_ops_schedules_rounds(self, monkeypatch):
        tune(monkeypatch, **self.SMALL)
        maintainer = JoinSynopsisMaintainer(
            make_db(), SQL, MaintainerConfig(seed=1))
        drive(maintainer, 300)
        monitor = QualityMonitor(maintainer.engine)
        monitor.note_ops(250)     # 2 rounds due (check_every=100)
        assert monitor.probe_rounds + monitor.skipped_rounds == 2

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["bare", "persistent"])
    def test_service_wiring_runs_rounds_and_publishes(self, durable,
                                                      tmp_path,
                                                      monkeypatch):
        """The monitor runs through the stack: ``manager.apply_batch``
        opens the engines' runs itself, so only the ingest loop can
        count the ops (at the parent ``probe_rounds`` stayed 0)."""
        from repro.persist import PersistentManager
        from repro.service import ServiceConfig, SynopsisService

        tune(monkeypatch, **self.SMALL)
        obs = MetricsRegistry()
        target, _ = single_query(make_db(), SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(40), seed=1))
        if durable:
            target = PersistentManager(target, str(tmp_path))
        with SynopsisService(target, ServiceConfig(
                obs=obs, quality=True)) as service:
            drive(service, 300)
            health = service.healthz()["quality"]
            assert health["probe_rounds"] >= 600 // 100 - 1
            assert health == service.quality.status()
            # the scrape itself sets the gauges, the view's age too
            assert metric_names.QUALITY_STALENESS_SECONDS not in obs
            snapshot = service.metrics_snapshot()
        assert snapshot[metric_names.QUALITY_PROBE_ROUNDS]["value"] == \
            health["probe_rounds"]
        assert snapshot[metric_names.QUALITY_FLAGGED]["value"] == 0
        assert snapshot[metric_names.QUALITY_STALENESS_SECONDS][
            "value"] >= 0.0

    def test_quality_true_uses_default_config(self):
        from repro.service import ServiceConfig, SynopsisService

        manager, _ = single_query(make_db(), SQL, MaintainerConfig(seed=1))
        with SynopsisService(
                manager, ServiceConfig(quality=True)) as service:
            monitor = service.quality
            monitor.note_ops(2047)
            assert monitor.probe_rounds + monitor.skipped_rounds == 0
            monitor.note_ops(1)      # CHECK_EVERY = 2048 ops: one round
            assert monitor.probe_rounds + monitor.skipped_rounds == 1
            assert set(service.healthz()["quality"]) == {
                "flagged", "flag_count", "probe_rounds", "probes_drawn",
                "skipped_rounds", "chi_square", "chi_dof", "ks_ratio",
                "window_rounds"}
        with SynopsisService(manager) as service:
            assert service.quality is None
            assert "quality" not in service.healthz()

    def test_monitor_follows_the_sole_registered_query(self):
        """One owner, one rule: the sole query's engine, re-picked when
        the registration set changes (none or several: no monitor)."""
        from repro import SynopsisManager
        from repro.service import ServiceConfig, SynopsisService

        manager = SynopsisManager(make_db(), MaintainerConfig(seed=1))
        with SynopsisService(
                manager, ServiceConfig(quality=True)) as service:
            assert service.quality is None
            first = service.register("q1", SQL)
            assert service.quality.engine is first.engine
            service.register("q2", SQL)
            assert service.quality is None


# ----------------------------------------------------------------------
# honest engines stay quiet, a biased sampler is flagged
# ----------------------------------------------------------------------
MONITOR_CONFIG = dict(check_every=100, probes=256, window=6,
                      min_results=400, min_samples=100, alpha=1e-3,
                      seed=5)


@pytest.mark.parametrize("spec", [
    SynopsisSpec.fixed_size(200),
    SynopsisSpec.with_replacement(200),
    SynopsisSpec.bernoulli(0.05),
], ids=["fixed", "replacement", "bernoulli"])
def test_honest_engine_not_flagged(spec, monkeypatch):
    tune(monkeypatch, **MONITOR_CONFIG)
    maintainer = JoinSynopsisMaintainer(
        make_db(), SQL, MaintainerConfig(spec=spec, seed=2))
    monitor = QualityMonitor(maintainer.engine)
    drive(maintainer, 800, monitor=monitor)
    assert monitor.probe_rounds >= 5
    assert not monitor.flagged, monitor.status()


# ----------------------------------------------------------------------
# service surfacing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rng_class, flagged", [
    (BiasedRandom, True), (random.Random, False)], ids=["biased", "honest"])
def test_service_flags_a_biased_sampler_and_only_that(
        rng_class, flagged, monkeypatch):
    """The decisive pair, through the stack: manager + service, the
    same drive, the engine's RNG the only difference (the honest run
    guards against the biased one being flagged for the wrong reason).
    The ingest loop's monitor decides; the event log hears once."""
    from repro.obs import EventLog
    from repro.service import ServiceConfig, SynopsisService

    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", rng_class)
        manager, maintainer = single_query(
            make_db(), SQL, MaintainerConfig(
                spec=SynopsisSpec.fixed_size(200), seed=2))
    assert type(maintainer.engine.rng) is rng_class
    tune(monkeypatch, **MONITOR_CONFIG)
    events = EventLog()
    with SynopsisService(manager, ServiceConfig(
            obs=MetricsRegistry(events=events),
            quality=True)) as service:
        drive(service, 800)
        health = service.healthz()["quality"]
    assert health["probe_rounds"] >= 5
    assert health["flagged"] is flagged, health
    assert [e.kind for e in events.events("quality")] == \
        ["quality.flag"] * flagged


def test_format_top_renders_quality_section():
    from repro.cli import format_top

    health = {
        "status": "ok", "epoch": 4, "version": "1.1.0",
        "uptime_seconds": 12.5,
        "queue_depth": 0, "staleness_seconds": 0.25,
        "quality": {"flagged": True, "chi_square": 99.5, "chi_dof": 30,
                    "ks_ratio": 1.4, "probe_rounds": 7,
                    "skipped_rounds": 1},
    }
    stats = {"service": {"applied_ops": 9, "applied_batches": 3,
                         "ingest_errors": 0},
             "stats": {"total_results": 42, "synopsis_size": 10}}
    text = format_top(health, stats)
    assert "FLAGGED" in text
    assert "chi2 99.5/30" in text
    assert "applied ops 9" in text
    assert "J 42" in text


def test_format_top_without_quality_section():
    from repro.cli import format_top

    text = format_top({"status": "ok", "epoch": 0})
    assert "quality" not in text
    assert "status ok" in text
