"""Statistics substrate tests: column stats + selectivity estimation."""

import random

import pytest

from repro import MaintainerConfig
from repro import (
    BandPredicate,
    Column,
    ComparisonOp,
    Database,
    JoinPredicate,
    JoinSynopsisMaintainer,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.stats.column_stats import ColumnStats, collect_stats
from repro.stats.selectivity import (
    SELECTIVITY_FLOOR,
    estimate_theta_selectivity,
)


def table_with(values, name="t"):
    db = Database()
    table = db.create_table(
        TableSchema(name, [Column("a", nullable=True)])
    )
    for v in values:
        table.insert((v,))
    return table


class TestCollectStats:
    def test_basic_summary(self):
        table = table_with(list(range(100)))
        stats = collect_stats(table)
        col = stats.column("a")
        assert col.row_count == 100
        assert col.min_value == 0 and col.max_value == 99
        assert col.null_count == 0
        assert 90 <= col.distinct_estimate <= 100

    def test_null_count(self):
        table = table_with([1, None, 3, None])
        col = collect_stats(table).column("a")
        assert col.null_count == 2

    def test_empty_table(self):
        table = table_with([])
        col = collect_stats(table).column("a")
        assert col.row_count == 0
        assert col.boundaries == []
        assert col.distinct_estimate == 0

    def test_sampling_kicks_in(self):
        table = table_with(list(range(5000)))
        stats = collect_stats(table, sample_limit=500)
        col = stats.column("a")
        assert col.sample_size == 500
        assert col.row_count == 5000
        # distinct scale-up: all sampled values are singletons
        assert col.distinct_estimate > 2000

    def test_repeated_values_distinct_estimate(self):
        table = table_with([1, 2, 3] * 200)
        col = collect_stats(table).column("a")
        assert col.distinct_estimate == 3

    def test_fraction_below(self):
        table = table_with(list(range(1000)))
        col = collect_stats(table, buckets=50)
        frac = col.column("a").fraction_below(500, inclusive=True)
        assert abs(frac - 0.5) < 0.1

    def test_fraction_between(self):
        table = table_with(list(range(1000)))
        col = collect_stats(table, buckets=50).column("a")
        frac = col.fraction_between(250, 750)
        assert abs(frac - 0.5) < 0.12
        assert col.fraction_between(2000, 3000) == 0.0
        assert abs(col.fraction_between(None, None) - 1.0) < 1e-9


class TestThetaSelectivity:
    def uniform_stats(self, n=1000, name="t"):
        return collect_stats(
            table_with(list(range(n)), name), buckets=64
        ).column("a")

    def test_equality_is_inverse_distinct(self):
        left = self.uniform_stats()
        right = self.uniform_stats(name="u")
        pred = JoinPredicate("l", "a", ComparisonOp.EQ, "r", "a")
        est = estimate_theta_selectivity(pred, left, right)
        assert est == pytest.approx(SELECTIVITY_FLOOR, abs=1e-6) or \
            est <= 0.02

    def test_inequality_half(self):
        left = self.uniform_stats()
        right = self.uniform_stats(name="u")
        pred = JoinPredicate("l", "a", ComparisonOp.LE, "r", "a")
        est = estimate_theta_selectivity(pred, left, right)
        assert abs(est - 0.5) < 0.1

    def test_band_fraction(self):
        left = self.uniform_stats()
        right = self.uniform_stats(name="u")
        pred = BandPredicate("l", "a", "r", "a", width=100)
        est = estimate_theta_selectivity(pred, left, right)
        # |l - r| <= 100 over uniform [0,1000)^2: ~0.19 of pairs
        assert 0.08 < est < 0.35

    def test_fallback_without_histograms(self):
        empty = ColumnStats("a", 0, 0, 0)
        pred = JoinPredicate("l", "a", ComparisonOp.LE, "r", "a")
        est = estimate_theta_selectivity(pred, empty, empty)
        assert est == pytest.approx(1 / 3)


class TestMaintainerIntegration:
    def test_enlargement_from_statistics(self):
        """Preloaded data + a demoted inequality edge: the maintainer
        estimates f from stats and over-allocates by ~1/f."""
        db = Database()
        for name in ("r", "s", "t"):
            db.create_table(
                TableSchema(name, [Column("a"), Column("b")])
            )
        rng = random.Random(0)
        for name in ("r", "s", "t"):
            for i in range(300):
                db.insert(name, (rng.randrange(10), rng.randrange(100)))
        # cycle: r-s, s-t, t-r; the t.b <= r.b edge is demoted
        sql = ("SELECT * FROM r, s, t WHERE r.a = s.a AND s.a = t.a "
               "AND t.b <= r.b")
        m = JoinSynopsisMaintainer(
            db, sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=0))
        # f ~ 0.5 -> factor 2
        assert m.engine.spec.size in (20, 30)
