"""Synopsis framework tests (Algorithm 3 over materialised views)."""

import random
from collections import Counter

import pytest

from repro.core.symmetric_join import ListView
from repro.core.synopsis import (
    BernoulliSynopsis,
    FixedSizeWithReplacement,
    FixedSizeWithoutReplacement,
    SynopsisSpec,
)
from repro.errors import SynopsisError

from conftest import chi_square_threshold, chi_square_uniform


def make_results(n, node_width=2):
    """n distinct fake join results (tuples of tids)."""
    return [(i, i + 1000) for i in range(n)]


class TestSpec:
    def test_factories(self):
        assert SynopsisSpec.fixed_size(5).kind == "fixed"
        assert SynopsisSpec.with_replacement(5).kind == "fixed_replacement"
        assert SynopsisSpec.bernoulli(0.5).kind == "bernoulli"

    def test_validation(self):
        with pytest.raises(SynopsisError):
            SynopsisSpec.fixed_size(0)
        with pytest.raises(SynopsisError):
            SynopsisSpec.with_replacement(-1)
        with pytest.raises(SynopsisError):
            SynopsisSpec.bernoulli(0.0)
        with pytest.raises(SynopsisError):
            SynopsisSpec.bernoulli(2.0)

    def test_build(self):
        rng = random.Random(0)
        assert isinstance(SynopsisSpec.fixed_size(3).build(rng),
                          FixedSizeWithoutReplacement)
        assert isinstance(SynopsisSpec.with_replacement(3).build(rng),
                          FixedSizeWithReplacement)
        assert isinstance(SynopsisSpec.bernoulli(0.5).build(rng),
                          BernoulliSynopsis)

    def test_unknown_kind(self):
        with pytest.raises(SynopsisError):
            SynopsisSpec("nope").build(random.Random(0))


class TestFixedWithoutReplacement:
    def test_fills_then_stays_at_m(self):
        syn = FixedSizeWithoutReplacement(5, random.Random(1))
        syn.consume(ListView(make_results(3)))
        assert syn.valid_count == 3
        syn.consume(ListView([(100, 200), (101, 201)]))
        assert syn.valid_count == 5
        syn.consume(ListView([(i + 500, i) for i in range(50)]))
        assert syn.valid_count == 5
        assert syn.total_seen == 55

    def test_samples_are_distinct_subset(self):
        results = make_results(200)
        syn = FixedSizeWithoutReplacement(10, random.Random(2))
        # feed in chunks of varying sizes (views)
        pos = 0
        for chunk in (1, 5, 50, 144):
            syn.consume(ListView(results[pos:pos + chunk]))
            pos += chunk
        samples = syn.samples()
        assert len(samples) == 10
        assert len(set(samples)) == 10
        assert set(samples) <= set(results)

    def test_purge_and_reverse_index(self):
        syn = FixedSizeWithoutReplacement(5, random.Random(3))
        syn.consume(ListView(make_results(5)))
        target = syn.samples()[2]
        purged = syn.purge_tuple(0, target[0])
        assert purged == 1
        assert syn.valid_count == 4
        assert target not in syn.samples()
        assert syn.purge_tuple(0, target[0]) == 0

    def test_purge_multiple_samples_same_tuple(self):
        syn = FixedSizeWithoutReplacement(5, random.Random(3))
        # three results sharing the node-1 tuple 77
        view = [(1, 77), (2, 77), (3, 77), (4, 99)]
        syn.consume(ListView(view))
        assert syn.purge_tuple(1, 77) == 3
        assert syn.samples() == [(4, 99)]

    def test_add_redrawn_rejects_duplicates(self):
        syn = FixedSizeWithoutReplacement(3, random.Random(4))
        syn.consume(ListView(make_results(2)))
        assert not syn.add_redrawn(syn.samples()[0])
        assert syn.add_redrawn((500, 501))
        assert syn.valid_count == 3
        with pytest.raises(SynopsisError):
            syn.add_redrawn((600, 601))  # already full

    def test_rebuild_resets_state(self):
        syn = FixedSizeWithoutReplacement(3, random.Random(5))
        syn.consume(ListView(make_results(20)))
        syn.reset_for_rebuild()
        assert syn.valid_count == 0 and syn.total_seen == 0
        syn.consume(ListView(make_results(4)))
        assert syn.valid_count == 3 and syn.total_seen == 4

    def test_decrease_total_guard(self):
        syn = FixedSizeWithoutReplacement(3, random.Random(6))
        syn.consume(ListView(make_results(2)))
        with pytest.raises(SynopsisError):
            syn.decrease_total(5)

    def test_contains(self):
        syn = FixedSizeWithoutReplacement(3, random.Random(7))
        syn.consume(ListView(make_results(2)))
        # under capacity every consumed result is a member, once
        assert sorted(syn.samples()) == sorted(make_results(2))
        assert (123456, 0) not in syn.samples()


class TestFixedWithReplacement:
    def test_first_result_fills_all_slots(self):
        syn = FixedSizeWithReplacement(4, random.Random(1))
        syn.consume(ListView([(9, 9)]))
        assert syn.samples() == [(9, 9)] * 4

    def test_slot_count_constant(self):
        syn = FixedSizeWithReplacement(4, random.Random(2))
        for chunk in (make_results(3), make_results(50)):
            syn.consume(ListView(chunk))
        assert syn.valid_count == 4
        assert len(syn.slots()) == 4

    def test_purge_then_replenish_slot(self):
        syn = FixedSizeWithReplacement(3, random.Random(3))
        syn.consume(ListView([(7, 8)]))
        assert syn.purge_tuple(0, 7) == 3
        assert syn.valid_count == 0
        assert syn.empty_slots() == [0, 1, 2]
        syn.replenish_slot(0, (1, 2))
        assert syn.valid_count == 1
        with pytest.raises(SynopsisError):
            syn.replenish_slot(0, (3, 4))

    def test_duplicates_allowed(self):
        syn = FixedSizeWithReplacement(8, random.Random(4))
        syn.consume(ListView(make_results(3)))
        samples = syn.samples()
        assert len(samples) == 8
        assert len(set(samples)) <= 3


class TestBernoulli:
    def test_expected_size(self):
        rng = random.Random(5)
        syn = BernoulliSynopsis(0.2, rng)
        n = 5000
        syn.consume(ListView(make_results(n)))
        assert abs(syn.valid_count - n * 0.2) < 4 * (n * 0.2 * 0.8) ** 0.5
        assert syn.total_seen == n

    def test_p_one_keeps_everything(self):
        syn = BernoulliSynopsis(1.0, random.Random(6))
        syn.consume(ListView(make_results(20)))
        assert syn.valid_count == 20

    def test_each_result_selected_with_p(self):
        """Inclusion indicator of a FIXED position is Bernoulli(p) across
        independent runs."""
        p = 0.3
        hits = 0
        trials = 3000
        for t in range(trials):
            syn = BernoulliSynopsis(p, random.Random(t))
            syn.consume(ListView(make_results(10)))
            if (4, 1004) in syn.samples():
                hits += 1
        assert abs(hits / trials - p) < 0.04

    def test_purge(self):
        syn = BernoulliSynopsis(1.0, random.Random(7))
        syn.consume(ListView([(1, 5), (2, 5), (3, 6)]))
        assert syn.purge_tuple(1, 5) == 2
        assert syn.samples() == [(3, 6)]

    def test_skip_state_persists_across_views(self):
        """Selections must be identical whether results arrive as one view
        or split across many (the paper's persistent skip state)."""
        results = make_results(400)
        p = 0.13
        one = BernoulliSynopsis(p, random.Random(99))
        one.consume(ListView(results))
        many = BernoulliSynopsis(p, random.Random(99))
        pos = 0
        rng = random.Random(1)
        while pos < len(results):
            step = 1 + rng.randrange(17)
            many.consume(ListView(results[pos:pos + step]))
            pos += step
        assert one.samples() == many.samples()


class TestViewSplitInvariance:
    def test_without_replacement_split_invariant(self):
        """Same RNG seed => identical reservoir regardless of how the
        result stream is split into views (Algorithm 3's core claim)."""
        results = make_results(300)
        one = FixedSizeWithoutReplacement(7, random.Random(42))
        one.consume(ListView(results))
        many = FixedSizeWithoutReplacement(7, random.Random(42))
        rng = random.Random(2)
        pos = 0
        while pos < len(results):
            step = 1 + rng.randrange(23)
            many.consume(ListView(results[pos:pos + step]))
            pos += step
        assert one.samples() == many.samples()
        assert one.total_seen == many.total_seen

    def test_with_replacement_split_invariant(self):
        results = make_results(300)
        one = FixedSizeWithReplacement(5, random.Random(43))
        one.consume(ListView(results))
        many = FixedSizeWithReplacement(5, random.Random(43))
        rng = random.Random(3)
        pos = 0
        while pos < len(results):
            step = 1 + rng.randrange(23)
            many.consume(ListView(results[pos:pos + step]))
            pos += step
        assert list(one.slots()) == list(many.slots())


class TestUniformity:
    def test_without_replacement_uniform(self):
        """Every result equally likely to be sampled: chi-square over many
        independent runs."""
        n, m, trials = 25, 5, 4000
        counts = Counter()
        results = make_results(n)
        for t in range(trials):
            syn = FixedSizeWithoutReplacement(m, random.Random(t))
            syn.consume(ListView(results))
            for s in syn.samples():
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in results])
        assert stat < chi_square_threshold(n - 1)

    def test_with_replacement_uniform(self):
        n, m, trials = 20, 4, 3000
        counts = Counter()
        results = make_results(n)
        for t in range(trials):
            syn = FixedSizeWithReplacement(m, random.Random(t))
            syn.consume(ListView(results))
            for s in syn.samples():
                counts[s] += 1
        stat = chi_square_uniform([counts[r] for r in results])
        assert stat < chi_square_threshold(n - 1)
