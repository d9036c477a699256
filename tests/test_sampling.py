"""Sampling substrate tests: alias structure, skip-number distributions.

Skip generators are validated two ways: (1) expectations / support checks,
(2) chi-square goodness of fit against the exact target distribution or
against a naive per-record reference implementation.
"""

import random
from collections import Counter

import pytest

from repro.sampling.alias import WalkerAlias
from repro.sampling.bernoulli import GeometricSkipSampler
from repro.sampling.reservoir import VitterSkipSampler, naive_reservoir_skip
from repro.sampling.with_replacement import MultiReservoirSkips

from conftest import chi_square_threshold, chi_square_uniform


class TestWalkerAlias:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkerAlias([])
        with pytest.raises(ValueError):
            WalkerAlias([0.0, 0.0])
        with pytest.raises(ValueError):
            WalkerAlias([1.0, -1.0])

    def test_single_outcome(self):
        alias = WalkerAlias([3.0])
        rng = random.Random(1)
        assert all(alias.sample(rng) == 0 for _ in range(50))

    def test_zero_weight_outcomes_never_drawn(self):
        alias = WalkerAlias([1.0, 0.0, 1.0])
        rng = random.Random(2)
        draws = {alias.sample(rng) for _ in range(500)}
        assert 1 not in draws

    def test_distribution_chi_square(self):
        weights = [1.0, 2.0, 3.0, 4.0]
        alias = WalkerAlias(weights)
        rng = random.Random(3)
        n = 40000
        counts = Counter(alias.sample(rng) for _ in range(n))
        total_w = sum(weights)
        stat = sum(
            (counts[i] - n * w / total_w) ** 2 / (n * w / total_w)
            for i, w in enumerate(weights)
        )
        assert stat < chi_square_threshold(len(weights) - 1)


class TestVitterSkips:
    def test_requires_t_at_least_m(self):
        sampler = VitterSkipSampler(5, random.Random(0))
        with pytest.raises(ValueError):
            sampler.skip(4)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            VitterSkipSampler(0, random.Random(0))

    def test_skips_non_negative(self):
        sampler = VitterSkipSampler(3, random.Random(1))
        t = 3
        for _ in range(200):
            s = sampler.skip(t)
            assert s >= 0
            t += s + 1

    @pytest.mark.parametrize("m,t", [(2, 10), (5, 40), (3, 200)])
    def test_matches_naive_distribution(self, m, t):
        """Chi-square: Vitter skips vs the exact P(S = s)."""
        rng = random.Random(42)
        sampler = VitterSkipSampler(m, rng)
        n = 12000
        draws = Counter(sampler.skip(t) for _ in range(n))
        # exact pmf: P(S >= s) = prod_{i=1..s} (t+i-m)/(t+i)
        cutoff = max(draws) + 1
        surv = [1.0]
        for s in range(1, cutoff + 1):
            surv.append(surv[-1] * (t + s - m) / (t + s))
        stat = 0.0
        buckets = 0
        tail_expected = n
        tail_observed = n
        for s in range(cutoff):
            expected = n * (surv[s] - surv[s + 1])
            if expected < 8:
                break
            stat += (draws.get(s, 0) - expected) ** 2 / expected
            tail_expected -= expected
            tail_observed -= draws.get(s, 0)
            buckets += 1
        if tail_expected > 8:
            stat += (tail_observed - tail_expected) ** 2 / tail_expected
            buckets += 1
        assert stat < chi_square_threshold(max(buckets - 1, 1))

    def test_algorithm_z_region_agrees_with_naive_mean(self):
        """Deep in the Z region, the mean skip is ~ (t - m + 1)/(m - 1)."""
        m, t = 4, 1000
        rng = random.Random(9)
        sampler = VitterSkipSampler(m, rng)
        n = 8000
        mean = sum(sampler.skip(t) for _ in range(n)) / n
        expected = (t + 1 - m) / (m - 1)
        assert abs(mean - expected) / expected < 0.1

    def test_naive_reference_behaves(self):
        rng = random.Random(5)
        draws = [naive_reservoir_skip(2, 10, rng) for _ in range(2000)]
        assert min(draws) >= 0
        # P(S = 0) = m/(t+1) = 2/11
        frac0 = sum(1 for d in draws if d == 0) / len(draws)
        assert abs(frac0 - 2 / 11) < 0.03


class TestMultiReservoirSkips:
    def test_all_slots_select_first_record(self):
        skips = MultiReservoirSkips(4, random.Random(0))
        assert skips.skip_from(0) == 0
        slots = skips.pop_slots_at(0)
        assert sorted(slots) == [0, 1, 2, 3]

    def test_positions_move_forward(self):
        rng = random.Random(1)
        skips = MultiReservoirSkips(3, rng)
        skips.pop_slots_at(0)
        assert skips.skip_from(0) >= 1

    def test_rearm_all_redraws_at_new_total(self):
        """After a deletion shrinks J, every pending position must be a
        fresh draw at the new J: P(next selection == j) = 1/(j+1)."""
        trials = 6000
        hits = 0
        for trial in range(trials):
            skips = MultiReservoirSkips(1, random.Random(trial))
            skips.pop_slots_at(0)  # position now drawn for large-ish J
            skips.rearm_all(5)
            if skips.skip_from(0) == 5:
                hits += 1
        # P(select the very next record) = 1/6; 3-sigma ≈ 0.0144
        assert abs(hits / trials - 1 / 6) < 0.016

    def test_rearm_all_at_zero_selects_first_record(self):
        skips = MultiReservoirSkips(3, random.Random(4))
        skips.pop_slots_at(0)
        skips.rearm_all(0)
        assert skips.skip_from(0) == 0
        assert sorted(skips.pop_slots_at(0)) == [0, 1, 2]

    def test_single_slot_selection_distribution(self):
        """A 1-slot with-replacement synopsis over N records keeps each
        record with probability 1/N — check by simulation."""
        n_records = 12
        trials = 6000
        counts = Counter()
        for trial in range(trials):
            rng = random.Random(trial)
            skips = MultiReservoirSkips(1, rng)
            kept = None
            j = 0
            for record in range(n_records):
                if skips.skip_from(0) == j:
                    kept = record
                    skips.pop_slots_at(j)
                j += 1
            counts[kept] += 1
        stat = chi_square_uniform([counts[i] for i in range(n_records)])
        assert stat < chi_square_threshold(n_records - 1)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            MultiReservoirSkips(0, random.Random(0))


class TestGeometricSkips:
    def test_p_validation(self):
        with pytest.raises(ValueError):
            GeometricSkipSampler(0.0, random.Random(0))
        with pytest.raises(ValueError):
            GeometricSkipSampler(1.5, random.Random(0))

    def test_p_one_always_selects(self):
        sampler = GeometricSkipSampler(1.0, random.Random(0))
        assert all(sampler.skip() == 0 for _ in range(20))

    @pytest.mark.parametrize("p", [0.5, 0.1, 0.02])
    def test_alias_draw_matches_geometric(self, p):
        rng = random.Random(7)
        sampler = GeometricSkipSampler(p, rng)
        n = 20000
        draws = Counter(sampler.skip() for _ in range(n))
        stat = 0.0
        buckets = 0
        covered_obs = 0
        covered_exp = 0.0
        s = 0
        while True:
            expected = n * (1 - p) ** s * p
            if expected < 8:
                break
            stat += (draws.get(s, 0) - expected) ** 2 / expected
            covered_obs += draws.get(s, 0)
            covered_exp += expected
            buckets += 1
            s += 1
        tail_exp = n - covered_exp
        if tail_exp > 8:
            stat += ((n - covered_obs) - tail_exp) ** 2 / tail_exp
            buckets += 1
        assert stat < chi_square_threshold(max(buckets - 1, 1))
