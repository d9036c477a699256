"""Analytics tests: aggregate estimators over a synopsis."""

import random

from repro.analytics.estimators import (
    estimate_avg,
    estimate_count,
    estimate_sum,
)


class TestEstimators:
    def test_count_exact_on_full_sample(self):
        samples = list(range(100))
        est = estimate_count(samples, 100, lambda x: x < 25)
        assert est.value == 25

    def test_count_empty_sample(self):
        est = estimate_count([], 100, lambda x: True)
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
            est = estimate_count(sample, len(population), lambda x: x < 3)
            lo, hi = est.interval()
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
            estimates.append(
                estimate_sum(sample, len(population), lambda x: x).value
            )
        mean = sum(estimates) / len(estimates)
        assert abs(mean - truth) / truth < 0.02

    def test_avg(self):
        est = estimate_avg([1, 2, 3, 4], lambda x: x)
        assert est.value == 2.5
        filtered = estimate_avg([1, 2, 3, 4], lambda x: x,
                                predicate=lambda x: x > 2)
        assert filtered.value == 3.5

    def test_avg_empty(self):
        est = estimate_avg([], lambda x: x)
        assert est.stderr == float("inf")

    def test_single_sample_zero_variance(self):
        est = estimate_sum([5], 10, lambda x: x)
        assert est.value == 50 and est.stderr == 0
