"""Data generator tests: structural invariants the workloads rely on,
and the generated bytes pinned."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from repro.core.stats_api import BatchResult, DeleteOp, InsertOp
from repro.datagen.draw import randbelow
from repro.datagen.linear_road import (
    LinearRoadConfig,
    LinearRoadGenerator,
    qb_sql,
    setup_qb,
)
from repro.datagen.tpcds import TpcdsGenerator, TpcdsScale, setup_query
from repro.datagen.workload import (
    DeleteOldest,
    Insert,
    StreamPlayer,
    count_operations,
    interleave_deletions,
)
from repro.errors import ReproError


class TestTpcdsGenerator:
    def test_row_counts_match_scale(self):
        scale = TpcdsScale.tiny()
        data = TpcdsGenerator(scale, seed=1).generate()
        assert len(data.date_dim) == scale.dates
        assert len(data.household_demographics) == scale.demographics
        assert len(data.item) == scale.items
        assert len(data.customer) == scale.customers
        assert len(data.store_sales) == scale.store_sales
        assert len(data.catalog_sales) == scale.catalog_sales

    def test_primary_keys_unique(self):
        data = TpcdsGenerator(TpcdsScale.tiny(), seed=2).generate()
        tickets = [(r[0], r[1]) for r in data.store_sales]
        assert len(set(tickets)) == len(tickets)
        assert len({r[0] for r in data.customer}) == len(data.customer)

    def test_returns_reference_existing_sales(self):
        data = TpcdsGenerator(TpcdsScale.tiny(), seed=3).generate()
        sale_keys = {(r[0], r[1]) for r in data.store_sales}
        for ret in data.store_returns:
            assert (ret[0], ret[1]) in sale_keys

    def test_foreign_keys_in_domain(self):
        scale = TpcdsScale.tiny()
        data = TpcdsGenerator(scale, seed=4).generate()
        for row in data.customer:
            assert 0 <= row[1] < scale.demographics
        for row in data.store_sales:
            assert 0 <= row[0] < scale.items
            assert 0 <= row[2] < scale.customers
            assert 0 <= row[3] < scale.dates

    def test_customer_skew_present(self):
        data = TpcdsGenerator(TpcdsScale.small(), seed=5).generate()
        counts = Counter(r[2] for r in data.store_sales)
        popular = counts.most_common(1)[0][1]
        assert popular > 3 * len(data.store_sales) / len(counts)

    def test_deterministic_given_seed(self):
        a = TpcdsGenerator(TpcdsScale.tiny(), seed=9).generate()
        b = TpcdsGenerator(TpcdsScale.tiny(), seed=9).generate()
        assert a.store_sales == b.store_sales


class TestQuerySetups:
    @pytest.mark.parametrize("name,n_aliases", [
        ("QX", 5), ("QY", 5), ("QZ", 7), ("qx", 5),
    ])
    def test_setup_builds(self, name, n_aliases):
        setup = setup_query(name, TpcdsScale.tiny(), seed=0)
        from repro.query.parser import parse_query
        q = parse_query(setup.sql, setup.db)
        assert q.num_tables == n_aliases

    def test_unknown_query_rejected(self):
        with pytest.raises(ReproError):
            setup_query("QQ")

    def test_fk_safety_of_streams(self):
        """Replaying preload+stream through a plain FK-checking consumer
        must never reference a missing parent."""
        for name in ("QX", "QY", "QZ"):
            setup = setup_query(name, TpcdsScale.tiny(), seed=1)
            seen = {}
            for event in setup.preload + setup.stream:
                seen.setdefault(event.alias, set())
            for event in setup.preload + setup.stream:
                row = event.row
                if event.alias == "ss" and name in ("QY", "QZ"):
                    assert row[2] in seen["c1"], "sale before its customer"
                if event.alias == "sr":
                    assert (row[0], row[1]) in seen["ss"], \
                        "return before its sale"
                if event.alias == "ss":
                    seen["ss"].add((row[0], row[1]))
                elif event.alias == "c1":
                    seen["c1"].add(row[0])
                else:
                    seen[event.alias].add(row[0])

    def test_streamed_aliases_declared(self):
        setup = setup_query("QY", TpcdsScale.tiny(), seed=0)
        stream_aliases = {e.alias for e in setup.stream}
        assert stream_aliases == set(setup.streamed_aliases)


class TestLinearRoad:
    def test_event_structure(self):
        cfg = LinearRoadConfig.tiny()
        events = LinearRoadGenerator(cfg, seed=0).events()
        inserts = [e for e in events if isinstance(e, Insert)]
        deletes = [e for e in events if isinstance(e, DeleteOldest)]
        assert len(inserts) == cfg.lanes * cfg.cars_per_lane * cfg.ticks
        assert len(deletes) == cfg.lanes * (cfg.ticks - cfg.window)

    def test_sliding_window_size(self):
        """After the full stream, each lane holds window*cars reports."""
        cfg = LinearRoadConfig.tiny()
        setup = setup_qb(5, cfg, seed=0)

        class CountingEngine:
            def __init__(self, db):
                self.db = db

            def apply_batch(self, ops):
                tids = []
                for op in ops:
                    table = f"lane{op.target[-1]}"
                    if isinstance(op, InsertOp):
                        tids.append(self.db.insert(table, op.row))
                    else:
                        self.db.delete(table, op.tid)
                        tids.append(None)
                return BatchResult(ops, tids)

        engine = CountingEngine(setup.db)
        StreamPlayer(engine).run(setup.events)
        for lane in range(cfg.lanes):
            assert len(setup.db.table(f"lane{lane + 1}")) == \
                cfg.window * cfg.cars_per_lane

    def test_positions_in_range(self):
        cfg = LinearRoadConfig.tiny()
        for event in LinearRoadGenerator(cfg, seed=1).events():
            if isinstance(event, Insert):
                assert 0 <= event.row[1] < cfg.road_length

    def test_qb_sql_width(self):
        sql = qb_sql(123)
        assert "<= 123" in sql
        assert sql.count("|") == 4


class TestWorkloadTools:
    def test_count_operations(self):
        events = [Insert("a", (1,)), DeleteOldest("a", 3), Insert("a", (2,))]
        assert count_operations(events) == 5

    def test_interleave_deletions(self):
        inserts = [Insert("a", (i,)) for i in range(10)]
        events = interleave_deletions(
            inserts, delete_every={"a": 3}, delete_count={"a": 2}
        )
        deletes = [e for e in events if isinstance(e, DeleteOldest)]
        assert len(deletes) == 3
        # first delete comes right after the 3rd insert
        assert isinstance(events[3], DeleteOldest)

    def test_player_fifo_semantics(self):
        class Recorder:
            def __init__(self):
                self.batches = []
                self.next = 0

            def apply_batch(self, ops):
                self.batches.append(ops)
                tids = []
                for op in ops:
                    if isinstance(op, InsertOp):
                        tids.append(self.next)
                        self.next += 1
                    else:
                        tids.append(None)
                return BatchResult(ops, tids)

        rec = Recorder()
        player = StreamPlayer(rec)
        player.run([Insert("a", (i,)) for i in range(4)])
        player.apply(DeleteOldest("a", 2))
        assert rec.batches[-1] == [DeleteOp("a", 0), DeleteOp("a", 1)]
        assert [len(b) for b in rec.batches] == [1, 1, 1, 1, 2]
        # two of the four are left: a larger DeleteOldest takes those
        assert player.apply(DeleteOldest("a", 5)) == 2

    def test_player_hands_an_engine_the_oldest_as_one_delete_run(self):
        """``DeleteOldest(n)`` is one batch of n deletes — one engine
        delete run, one ``engine.delete_ns`` observation — and the
        synopsis, ``J`` and RNG are those of n lone deletes, on every
        engine."""
        from repro import JoinSynopsisMaintainer, MaintainerConfig, \
            MetricsRegistry, SynopsisSpec

        cfg = LinearRoadConfig.tiny()

        def play(algorithm, per_op):
            setup = setup_qb(30, cfg, seed=2)
            maintainer = JoinSynopsisMaintainer(
                setup.db, setup.sql, MaintainerConfig(
                    spec=SynopsisSpec.fixed_size(10), engine=algorithm,
                    seed=3, obs=MetricsRegistry()))
            target = maintainer
            if per_op:
                class PerOp:        # one apply_batch per op
                    def apply_batch(self, ops):
                        for op in ops:
                            result = maintainer.apply_batch([op])
                        return result
                target = PerOp()
            assert StreamPlayer(target).run(setup.events) == \
                count_operations(setup.events)
            runs = maintainer.engine.metrics_snapshot()[
                "engine.delete_ns"]["count"]
            return maintainer.engine, runs

        events = setup_qb(30, cfg, seed=2).events
        deletes = [e for e in events if isinstance(e, DeleteOldest)]
        deleted = count_operations(deletes)
        for algorithm in ("sjoin-opt", "sjoin", "sj"):
            batched, runs = play(algorithm, per_op=False)
            assert runs == len(deletes)
            serial, serial_runs = play(algorithm, per_op=True)
            assert serial_runs == deleted > len(deletes)
            assert batched.raw_samples() == serial.raw_samples()
            assert batched.total_results() == serial.total_results() > 0
            assert batched.rng.getstate() == serial.rng.getstate()
            if algorithm != "sj":
                assert batched.graph.stats.vertices_visited < \
                    serial.graph.stats.vertices_visited

    def test_player_skips_filtered_inserts(self):
        class Rejecting:
            def apply_batch(self, ops):
                if not all(isinstance(op, InsertOp) for op in ops):
                    raise AssertionError("nothing to delete")
                return BatchResult(ops, [-1] * len(ops))

        player = StreamPlayer(Rejecting())
        player.apply(Insert("a", (1,)))
        assert player.apply(DeleteOldest("a", 1)) == 0



def digest(*streams):
    """SHA-256 over event streams: per event its kind, alias, and row or
    delete count."""
    plain = [[(type(e).__name__, e.alias,
               e.row if isinstance(e, Insert) else e.count)
              for e in events] for events in streams]
    return hashlib.sha256(repr(plain).encode()).hexdigest()


#: ``setup_query(name, TpcdsScale.small(), seed)``: preload, then stream
QUERY_DIGESTS = {
    ("QX", 0): "bb859ae0d9171c339cf75f7a578640e5"
               "dda5d3b730ab62efa12cf84757063139",
    ("QX", 7): "3ef7e220cbc382dbb5ecac09d8a1f62f"
               "4f148905101f4e2ab9a7eb6be0d2e523",
    ("QY", 0): "c302bfcf4ca6ac133253a0f54e8d6686"
               "3bd3c539491f8b7532de5aafbf0ebd6a",
    ("QY", 7): "a0b7b321266daf448947bd0860957300"
               "6fe431c8d272b38779dcc9d524c75b44",
    ("QZ", 0): "0814435e3fed7f96d9de698fb4b7efcb"
               "5d6c12a63dbcb76f52f080b2a75361d1",
    ("QZ", 7): "6b2a9598308e89ed386028b5e2893c79"
               "c847d310fadcee6d3d4b66f721317dcd",
}
#: the QY stream of the same setups through ``interleave_deletions``
DELETION_DIGESTS = {
    0: "d579d3ede4e735848f7370449b14abd0"
       "e1885565e820be9eeba2df4f704d9177",
    7: "a053807a6ec07ca2ced99050dd7d197a"
       "5c46996865422212968c2b6e22447827",
}
#: ``setup_qb(50, LinearRoadConfig(), seed).events``
QB_DIGESTS = {
    0: "4efbe3bb0390c654ac7d4175210a0060"
       "387ba8a63b6aeab1469ebd877286abf6",
    7: "53d45ed9f077e2630f5eb5159e2ae84a"
       "7f138121b72d36095fa9f6359dd61aa3",
}
#: both generators' RNG states after a full run (small scale / default
#: Linear Road config)
RNG_DIGESTS = {
    0: "e1cfd4286dc31f5a6e27796b34767755"
       "db521234f0b4d3e44cde036f9b6cb955",
    7: "3186cb31a0641c1a17010a23128b7141"
       "aed40bcece7570915d774b367e8d863c",
}


class TestPinnedOutput:
    """Every seed yields these rows, in this order, from this RNG state
    (the digests were taken when the generators drew through
    ``random.Random.randrange``; see ``repro.datagen.draw``)."""

    @pytest.mark.parametrize("name, seed", sorted(QUERY_DIGESTS))
    def test_query_setup(self, name, seed):
        setup = setup_query(name, TpcdsScale.small(), seed)
        assert digest(setup.preload, setup.stream) == \
            QUERY_DIGESTS[name, seed]

    @pytest.mark.parametrize("seed", sorted(DELETION_DIGESTS))
    def test_interleaved_deletions(self, seed):
        stream = setup_query("QY", TpcdsScale.small(), seed).stream
        events = interleave_deletions(
            stream, delete_every={"ss": 100, "c2": 20},
            delete_count={"ss": 80, "c2": 16})
        assert any(isinstance(e, DeleteOldest) for e in events)
        assert digest(events) == DELETION_DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(QB_DIGESTS))
    def test_linear_road(self, seed):
        assert digest(setup_qb(50, LinearRoadConfig(), seed).events) == \
            QB_DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(RNG_DIGESTS))
    def test_generator_end_states(self, seed):
        tpcds = TpcdsGenerator(TpcdsScale.small(), seed)
        tpcds.generate()
        road = LinearRoadGenerator(LinearRoadConfig(), seed)
        road.events()
        states = (tpcds.rng.getstate(), road.rng.getstate())
        assert hashlib.sha256(repr(states).encode()).hexdigest() == \
            RNG_DIGESTS[seed]


class TestDrawPrimitive:
    def test_randbelow_draws_what_randrange_draws(self):
        domains = list(range(1, 300)) + [2 ** k + d for k in range(9, 40)
                                         for d in (-1, 0, 1)]
        for seed in range(4):
            ours, theirs = random.Random(seed), random.Random(seed)
            draw = ours.getrandbits
            for n in domains:
                assert randbelow(draw, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_an_empty_domain_raises(self, n):
        with pytest.raises(ValueError):
            randbelow(random.Random(0).getrandbits, n)

    @pytest.mark.parametrize("field", [
        "income_bands", "categories", "demographics", "items", "dates"])
    def test_a_zero_sized_tpcds_domain_raises(self, field):
        scale = dataclasses.replace(TpcdsScale.tiny(), **{field: 0})
        with pytest.raises(ValueError):
            TpcdsGenerator(scale, seed=1).generate()

    @pytest.mark.parametrize("field", ["road_length", "max_speed"])
    def test_a_zero_sized_linear_road_domain_raises(self, field):
        config = dataclasses.replace(LinearRoadConfig.tiny(), **{field: 0})
        with pytest.raises(ValueError):
            LinearRoadGenerator(config, seed=1).events()

    def test_no_customers_is_customer_zero(self):
        """An empty Zipf domain draws no customer index: every sale
        names customer 0, as the bisection always did."""
        scale = dataclasses.replace(TpcdsScale.tiny(), customers=0)
        data = TpcdsGenerator(scale, seed=1).generate()
        assert data.customer == []
        assert {row[2] for row in data.store_sales} == {0}
        assert {row[0] for row in data.catalog_sales} == {0}
