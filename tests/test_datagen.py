"""Data generator tests: structural invariants the workloads rely on."""

from collections import Counter

import pytest

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

            def insert(self, alias, row):
                return self.db.insert(f"lane{alias[-1]}", row)

            def delete(self, alias, tid):
                self.db.delete(f"lane{alias[-1]}", tid)

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
                self.deleted = []
                self.next = 0

            def insert(self, alias, row):
                tid = self.next
                self.next += 1
                return tid

            def delete(self, alias, tid):
                self.deleted.append(tid)

        rec = Recorder()
        player = StreamPlayer(rec)
        player.run([Insert("a", (i,)) for i in range(4)])
        player.apply(DeleteOldest("a", 2))
        assert rec.deleted == [0, 1]
        assert player.live_count("a") == 2

    def test_player_hands_an_engine_the_oldest_as_one_delete_run(self):
        """``DeleteOldest(n)`` is one ``delete_batch`` where the engine
        has one, and the synopsis is that of n lone deletes."""
        from repro import JoinSynopsisMaintainer, MaintainerConfig, \
            SynopsisSpec

        cfg = LinearRoadConfig.tiny()

        def play(per_tid):
            setup = setup_qb(30, cfg, seed=2)
            engine = JoinSynopsisMaintainer(
                setup.db, setup.sql, MaintainerConfig(
                    spec=SynopsisSpec.fixed_size(10), engine="sjoin",
                    seed=3)).engine
            runs = []
            if per_tid:
                class PerTid:       # what a player sees without the method
                    insert, delete = engine.insert, engine.delete
                driven = PerTid()
            else:
                delete_batch = engine.delete_batch
                engine.delete_batch = lambda alias, tids: (
                    runs.append(len(tids)), delete_batch(alias, tids))
                driven = engine
            assert StreamPlayer(driven).run(setup.events) == \
                count_operations(setup.events)
            return engine, runs

        batched, runs = play(per_tid=False)
        serial, _ = play(per_tid=True)
        assert runs and set(runs) == {cfg.cars_per_lane}
        assert batched.raw_samples() == serial.raw_samples()
        assert batched.total_results() == serial.total_results() > 0
        assert batched.rng.getstate() == serial.rng.getstate()
        assert batched.graph.stats.vertices_visited < \
            serial.graph.stats.vertices_visited

    def test_player_skips_filtered_inserts(self):
        class Rejecting:
            def insert(self, alias, row):
                return -1

            def delete(self, alias, tid):  # pragma: no cover
                raise AssertionError("nothing to delete")

        player = StreamPlayer(Rejecting())
        player.apply(Insert("a", (1,)))
        assert player.apply(DeleteOldest("a", 1)) == 0
