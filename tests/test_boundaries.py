"""Boundary-condition tests for spots where implementations switch modes.

* Vitter skips at the Algorithm X / Algorithm Z threshold (t = 22m):
  the drawn distribution must be the same on both sides of the switch.
* Reservoir rebuild exactly at the m >= J/2 boundary (§5.3).
"""

import random
from collections import Counter

import pytest

from repro.sampling.reservoir import VitterSkipSampler

from conftest import (
    chi_square_threshold, engine_delete, engine_insert)


class TestVitterThreshold:
    M = 3
    THRESHOLD = VitterSkipSampler.THRESHOLD_FACTOR * M  # 66

    def exact_survival(self, m, t, cutoff):
        surv = [1.0]
        for s in range(1, cutoff + 1):
            surv.append(surv[-1] * (t + s - m) / (t + s))
        return surv

    @pytest.mark.parametrize("t_offset", [-1, 0, 1])
    def test_distribution_across_switch(self, t_offset):
        """Algorithm X is used at t <= 22m, Z above; both must draw from
        the same exact skip law."""
        t = self.THRESHOLD + t_offset
        rng = random.Random(17)
        sampler = VitterSkipSampler(self.M, rng)
        n = 8000
        draws = Counter(sampler.skip(t) for _ in range(n))
        cutoff = max(draws) + 1
        surv = self.exact_survival(self.M, t, cutoff)
        stat = 0.0
        buckets = 0
        tail_obs, tail_exp = n, float(n)
        for s in range(cutoff):
            expected = n * (surv[s] - surv[s + 1])
            if expected < 8:
                break
            stat += (draws.get(s, 0) - expected) ** 2 / expected
            tail_obs -= draws.get(s, 0)
            tail_exp -= expected
            buckets += 1
        if tail_exp > 8:
            stat += (tail_obs - tail_exp) ** 2 / tail_exp
            buckets += 1
        assert stat < chi_square_threshold(max(buckets - 1, 1)), t


class TestRebuildBoundary:
    def test_rebuild_triggers_at_half_j(self):
        """With m >= J/2 after a purge, the engine must rebuild rather
        than rejection-sample (§5.3's 2m access bound)."""
        from repro import (Column, Database, SJoinEngine, SynopsisSpec,
                           TableSchema, parse_query)

        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("b")]))
        db.create_table(TableSchema("s", [Column("a"), Column("b")]))
        query = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(4), seed=0)
        # J = 8 results, m = 4: exactly the m >= J/2 regime (2m >= J)
        for i in range(8):
            engine_insert(engine, "r", (i, i))
            engine_insert(engine, "s", (i, i))
        assert engine.total_results() == 8
        before = engine.stats.rebuilds
        victim = engine.raw_samples()[0]
        engine_delete(engine, "r", victim[0])
        assert engine.stats.rebuilds == before + 1
        assert engine.stats.redraws == 0
        assert len(engine.raw_samples()) == 4

    def test_redraw_used_when_j_large(self):
        from repro import (Column, Database, SJoinEngine, SynopsisSpec,
                           TableSchema, parse_query)

        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("b")]))
        db.create_table(TableSchema("s", [Column("a"), Column("b")]))
        query = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
        engine = SJoinEngine(db, query, SynopsisSpec.fixed_size(3), seed=0)
        # J = 40 >> 2m = 6: rejection re-draws, no rebuild
        for i in range(40):
            engine_insert(engine, "r", (i, i))
            engine_insert(engine, "s", (i, i))
        victim = engine.raw_samples()[0]
        before_rebuilds = engine.stats.rebuilds
        engine_delete(engine, "r", victim[0])
        assert engine.stats.rebuilds == before_rebuilds
        assert engine.stats.redraws >= 1
        assert len(engine.raw_samples()) == 3
