"""Weighted + subset synopsis families: statistical validity against
exact weight-proportional targets, and the weight≡1 differential
identity with the uniform family.

The weighted families run the uniform skip machinery over the weighted
*unit* domain, so with every tuple weighing 1 their whole trajectory —
samples AND the RNG stream — must be bit-identical to the corresponding
uniform kind.  With real weights, membership must track the exact
targets: ``m * w_r / J_w`` per sampled unit for the weighted kinds, and
``1 - (1-p) ** w_r`` inclusion for the subset family.
"""

import random
from collections import Counter

import pytest

from repro import (
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SJoinEngine,
    SymmetricJoinEngine,
    SynopsisError,
    SynopsisSpec,
    SYNOPSIS_FAMILIES,
    family_of_kind,
    parse_query,
)
from repro.catalog.database import Database
from repro.query.predicates import MultiTableFilter
from repro.query.query import JoinQuery

from conftest import chi_square_threshold, make_tables

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"

#: r rows are (join key, counter, weight); s rows are (join key, counter)
R_ROWS = [(0, 0, 1), (0, 1, 3), (1, 2, 2), (1, 3, 1), (2, 4, 4),
          (2, 5, 1)]
S_ROWS = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 4)]


def build_engine(spec, seed):
    db = Database()
    make_tables(db, [("r", 3), ("s", 2)])
    query = parse_query(SQL, db)
    return SJoinEngine(db, query, spec, seed=seed)


def load_rows(engine):
    for row in R_ROWS:
        engine.insert("r", row)
    for row in S_ROWS:
        engine.insert("s", row)


def exact_weights(engine):
    """result -> weight over the engine's current plan results."""
    out = {}
    total = engine.total_results()
    seen = set()
    from repro.graph.join_number import map_join_number
    for number in range(total):
        result = map_join_number(engine.graph, 0, number)
        if result not in seen:
            seen.add(result)
            out[result] = engine.result_weight(result)
    assert sum(out.values()) == total
    return out


class TestWeightedFixedTargets:
    @pytest.mark.parametrize("seed_base", [0, 10_000, 20_000])
    def test_unit_counts_proportional_to_weight(self, seed_base):
        m, runs = 4, 500
        counts = Counter()
        targets = None
        for i in range(runs):
            engine = build_engine(
                SynopsisSpec.weighted_fixed_size(
                    m, weight_column="r.c2"),
                seed_base + i,
            )
            load_rows(engine)
            if targets is None:
                targets = exact_weights(engine)
            counts.update(engine.raw_samples())
        total_units = sum(targets.values())
        stat = 0.0
        for result, weight in targets.items():
            expected = runs * m * weight / total_units
            stat += (counts[result] - expected) ** 2 / expected
        # without-replacement unit sampling is *less* variable than the
        # multinomial this threshold assumes, so the bound is safe
        assert stat < chi_square_threshold(len(targets) - 1)


    def test_redraw_stops_when_every_result_is_held(self):
        """Two results, one spanning 20 units: J_w = 20 > 2m after the
        light one is deleted, yet only one distinct result is left to
        hold.  The rejection loop used to spin on it forever (found by
        the delete-run churn in ``tests/test_delete_run.py``)."""
        purged = 0
        for seed in range(12):
            engine = build_engine(SynopsisSpec.weighted_fixed_size(
                4, weight_column="r.c2"), seed=seed)
            engine.insert("s", (0, 0))
            engine.insert("r", (0, 0, 1))
            engine.insert("r", (0, 1, 20))
            purged += (0, 0) in engine.raw_samples()
            engine.delete("r", 0)
            assert engine.total_results() == 20
            assert set(engine.raw_samples()) == {(1, 0)}
        assert purged       # some seed held the light result


class TestWeightedReplacementTargets:
    @pytest.mark.parametrize("seed_base", [0, 10_000, 20_000])
    def test_iid_weight_proportional_after_deletions(self, seed_base):
        """Slots stay exactly i.i.d. weight-proportional even after
        deletions force replenishment (the §5.3 argument, carried over
        to the weighted unit domain)."""
        m, runs = 4, 500
        counts = Counter()
        targets = None
        for i in range(runs):
            engine = build_engine(
                SynopsisSpec.weighted_with_replacement(
                    m, weight_column="r.c2"),
                seed_base + i,
            )
            load_rows(engine)
            engine.delete("r", 4)   # drop the weight-4 hot tuple ...
            engine.delete("s", 0)
            engine.insert("r", (2, 6, 2))  # ... and add a fresh one
            if targets is None:
                targets = exact_weights(engine)
            counts.update(engine.raw_samples())
        total_units = sum(targets.values())
        stat = 0.0
        for result, weight in targets.items():
            expected = runs * m * weight / total_units
            stat += (counts[result] - expected) ** 2 / expected
        assert stat < chi_square_threshold(len(targets) - 1)


class TestSubsetTargets:
    @pytest.mark.parametrize("seed_base", [0, 10_000, 20_000])
    def test_inclusion_matches_exact_probability(self, seed_base):
        p, runs = 0.2, 500
        counts = Counter()
        targets = None
        for i in range(runs):
            engine = build_engine(
                SynopsisSpec.subset(p, weight_column="r.c2"),
                seed_base + i,
            )
            load_rows(engine)
            if targets is None:
                targets = exact_weights(engine)
            counts.update(set(engine.raw_samples()))
        stat = 0.0
        for result, weight in targets.items():
            pi = 1.0 - (1.0 - p) ** weight
            expected = runs * pi
            # binomial cells: variance runs * pi * (1 - pi)
            stat += ((counts[result] - expected) ** 2
                     / (runs * pi * (1.0 - pi)))
        assert stat < chi_square_threshold(len(targets))

    def test_no_duplicate_members(self):
        engine = build_engine(
            SynopsisSpec.subset(0.9, weight_column="r.c2"), seed=1)
        load_rows(engine)
        samples = engine.raw_samples()
        assert len(samples) == len(set(samples))

    def test_purge_only_deletion(self):
        engine = build_engine(
            SynopsisSpec.subset(0.9, weight_column="r.c2"), seed=3)
        load_rows(engine)
        engine.delete("r", 1)
        live = set(exact_weights(engine))
        assert set(engine.raw_samples()) <= live


WEIGHT1_PAIRS = [
    (SynopsisSpec.weighted_fixed_size(5), SynopsisSpec.fixed_size(5)),
    (SynopsisSpec.weighted_with_replacement(5),
     SynopsisSpec.with_replacement(5)),
    (SynopsisSpec.subset(0.3), SynopsisSpec.bernoulli(0.3)),
]


def drive(engine, batch_size):
    """A fixed insert/delete trajectory applied in ``batch_size``-op
    insert runs (deletes applied singly, at the same points)."""
    rng = random.Random(99)
    script = []
    for i in range(40):
        alias = "r" if rng.random() < 0.5 else "s"
        row = (rng.randrange(3), i, 1) if alias == "r" \
            else (rng.randrange(3), i)
        script.append((alias, row))
    for start in range(0, len(script), batch_size):
        engine.insert_run(script[start:start + batch_size])
    engine.delete("r", 0)
    engine.delete("s", 1)
    engine.insert_run([("r", (0, 99, 1)), ("s", (0, 99))])


class TestWeightOneIdentity:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize(
        "weighted_spec,uniform_spec", WEIGHT1_PAIRS,
        ids=["fixed", "replacement", "subset"])
    def test_bit_identical_to_uniform(self, weighted_spec, uniform_spec,
                                      batch_size):
        """No weight column: every tuple weighs 1, and the weighted
        engine must replay the uniform engine's entire trajectory —
        samples, totals, and the future RNG stream."""
        weighted = build_engine(weighted_spec, seed=7)
        uniform = build_engine(uniform_spec, seed=7)
        drive(weighted, batch_size)
        drive(uniform, batch_size)
        assert weighted.raw_samples() == uniform.raw_samples()
        assert weighted.synopsis_results() == uniform.synopsis_results()
        assert weighted.total_results() == uniform.total_results()
        assert weighted.rng.getstate() == uniform.rng.getstate()

    @pytest.mark.parametrize("batch_size", [1, 3, 40])
    def test_all_ones_weight_column_identical(self, batch_size):
        """An explicit weight column whose values are all 1 must be
        indistinguishable from no weight column at all."""
        spec = SynopsisSpec.weighted_fixed_size(5, weight_column="r.c2")
        weighted = build_engine(spec, seed=7)
        uniform = build_engine(SynopsisSpec.fixed_size(5), seed=7)
        drive(weighted, batch_size)  # every r.c2 in the script is 1
        drive(uniform, batch_size)
        assert weighted.raw_samples() == uniform.raw_samples()
        assert weighted.rng.getstate() == uniform.rng.getstate()


class TestEngineMetadata:
    def test_entries_carry_exact_weights(self):
        engine = build_engine(
            SynopsisSpec.weighted_fixed_size(6, weight_column="r.c2"),
            seed=2)
        load_rows(engine)
        entries = engine.synopsis_entries()
        assert entries
        # r tids are assigned in R_ROWS insert order, so each sampled
        # result's weight must equal its r tuple's weight column
        r_weight = [row[2] for row in R_ROWS]
        for result, meta in entries:
            assert meta["weight"] == r_weight[result[0]]
            assert "inclusion_probability" not in meta
        raw = engine.raw_samples()
        for plan_result in raw:
            assert engine.result_weight(plan_result) >= 1

    def test_subset_entries_carry_inclusion_probability(self):
        p = 0.25
        engine = build_engine(
            SynopsisSpec.subset(p, weight_column="r.c2"), seed=2)
        load_rows(engine)
        entries = engine.synopsis_entries()
        assert entries
        for result, meta in entries:
            w = meta["weight"]
            assert meta["inclusion_probability"] == \
                pytest.approx(1.0 - (1.0 - p) ** w)

    def test_family_attribute(self):
        assert build_engine(
            SynopsisSpec.fixed_size(3), 0).family == "uniform"
        assert build_engine(
            SynopsisSpec.weighted_fixed_size(3), 0).family == "weighted"
        assert build_engine(
            SynopsisSpec.subset(0.5), 0).family == "subset"


class TestSpecValidation:
    def test_registry_contents(self):
        assert SYNOPSIS_FAMILIES["fixed"] == "uniform"
        assert SYNOPSIS_FAMILIES["fixed_replacement"] == "uniform"
        assert SYNOPSIS_FAMILIES["bernoulli"] == "uniform"
        assert SYNOPSIS_FAMILIES["weighted_fixed"] == "weighted"
        assert SYNOPSIS_FAMILIES["weighted_replacement"] == "weighted"
        assert SYNOPSIS_FAMILIES["subset"] == "subset"

    def test_unknown_kind_has_no_family(self):
        with pytest.raises(SynopsisError):
            family_of_kind("nope")

    def test_uniform_kind_rejects_weight_column(self):
        with pytest.raises(SynopsisError):
            SynopsisSpec("fixed", size=5, weight_column="r.c2")

    def test_malformed_weight_column_rejected(self):
        with pytest.raises(SynopsisError):
            SynopsisSpec.weighted_fixed_size(5, weight_column="noalias")

    def test_unknown_weight_alias_rejected_at_engine(self):
        with pytest.raises(SynopsisError):
            build_engine(
                SynopsisSpec.weighted_fixed_size(5, weight_column="z.c0"),
                seed=0)

    def test_nonpositive_weight_value_rejected(self):
        engine = build_engine(
            SynopsisSpec.weighted_fixed_size(5, weight_column="r.c2"),
            seed=0)
        with pytest.raises(SynopsisError):
            engine.insert("r", (0, 0, 0))
        with pytest.raises(SynopsisError):
            engine.insert("r", (0, 0, -2))

    def test_sj_baseline_rejects_non_uniform(self):
        db = Database()
        make_tables(db, [("r", 3), ("s", 2)])
        query = parse_query(SQL, db)
        for spec in (SynopsisSpec.weighted_fixed_size(5),
                     SynopsisSpec.subset(0.5)):
            with pytest.raises(SynopsisError):
                SymmetricJoinEngine(db, query, spec, seed=0)


class TestEffectiveSpec:
    def test_enlargement_preserves_family_and_weight_column(self):
        db = Database()
        make_tables(db, [("r", 3), ("s", 2)])
        parsed = parse_query(SQL, db)
        query = JoinQuery(
            parsed.range_tables, parsed.join_predicates,
            multi_filters=[MultiTableFilter(
                inputs=(("r", "c1"), ("s", "c1")),
                predicate=lambda x, y: x < y,
                selectivity_hint=0.25,
            )],
        )
        m = JoinSynopsisMaintainer(
            db, query,
            MaintainerConfig(
                spec=SynopsisSpec.weighted_fixed_size(
                    10, weight_column="r.c2"),
                seed=0,
            ),
        )
        assert m.engine.spec.size == 40
        assert m.engine.spec.kind == "weighted_fixed"
        assert m.engine.spec.weight_column == "r.c2"
        assert m.family == "weighted"

    def test_rate_based_kind_not_resized(self):
        db = Database()
        make_tables(db, [("r", 3), ("s", 2)])
        parsed = parse_query(SQL, db)
        query = JoinQuery(
            parsed.range_tables, parsed.join_predicates,
            multi_filters=[MultiTableFilter(
                inputs=(("r", "c1"), ("s", "c1")),
                predicate=lambda x, y: x < y,
                selectivity_hint=0.25,
            )],
        )
        m = JoinSynopsisMaintainer(
            db, query,
            MaintainerConfig(
                spec=SynopsisSpec.subset(0.5, weight_column="r.c2"),
                seed=0,
            ),
        )
        assert m.engine.spec.rate == 0.5
        assert m.engine.spec.weight_column == "r.c2"
