"""The survey estimators of :mod:`repro.aqp.estimation` over plain
value lists: exactness, coverage and unbiasedness."""

import random

from repro.aqp.estimation import _count, _mean, _sum


class TestEstimators:
    def test_count_exact_on_full_sample(self):
        samples = list(range(100))
        est = _count(sum(x < 25 for x in samples), len(samples), 100)
        assert est.value == 25

    def test_count_empty_sample(self):
        est = _count(0, 0, 100)
        assert est.stderr == float("inf")

    def test_count_confidence_interval_covers(self):
        rng = random.Random(1)
        population = [rng.randrange(10) for _ in range(5000)]
        truth = sum(1 for x in population if x < 3)
        covered = 0
        trials = 200
        for t in range(trials):
            rng2 = random.Random(t)
            sample = rng2.sample(population, 400)
            est = _count(sum(x < 3 for x in sample), len(sample),
                         len(population))
            lo, hi = est.ci(0.95)
            if lo <= truth <= hi:
                covered += 1
        assert covered / trials > 0.9

    def test_sum_unbiased(self):
        rng = random.Random(2)
        population = [rng.randrange(100) for _ in range(2000)]
        truth = sum(population)
        estimates = []
        for t in range(100):
            sample = random.Random(t).sample(population, 200)
            estimates.append(_sum(sample, len(population)).value)
        mean = sum(estimates) / len(estimates)
        assert abs(mean - truth) / truth < 0.02

    def test_avg(self):
        est = _mean([1, 2, 3, 4])
        assert est.value == 2.5
        filtered = _mean([x for x in [1, 2, 3, 4] if x > 2])
        assert filtered.value == 3.5

    def test_avg_empty(self):
        est = _mean([])
        assert est.stderr == float("inf")

    def test_single_sample_zero_variance(self):
        est = _sum([5], 10)
        assert est.value == 50 and est.stderr == 0
