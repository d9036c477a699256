"""Sliding-window maintainer tests."""

import random

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinExecutor,
    SynopsisError,
    SynopsisSpec,
    TableSchema,
    parse_query,
)
from repro.core.window import SlidingWindowMaintainer


def make_db():
    db = Database()
    for name in ("a", "b"):
        db.create_table(TableSchema(
            name, [Column("pos"), Column("ts")]
        ))
    return db


SQL = "SELECT * FROM a, b WHERE |a.pos - b.pos| <= 2"


def make_window(window=5, db=None):
    db = db or make_db()
    return db, SlidingWindowMaintainer(
        db, SQL, window=window, ts_columns={"a": "ts", "b": "ts"},
        config=MaintainerConfig(
            spec=SynopsisSpec.fixed_size(10), engine="sjoin", seed=0))


class TestExpiry:
    def test_tuples_expire_after_window(self):
        db, w = make_window(window=5)
        w.insert("a", (1, 0))
        w.insert("b", (2, 0))
        assert w.total_results() == 1
        w.insert("a", (50, 6))  # ts=6 expires everything with ts <= 1
        assert w.live_count("a") == 1
        assert w.live_count("b") == 0
        assert w.total_results() == 0

    def test_window_boundary_is_exclusive(self):
        db, w = make_window(window=5)
        w.insert("a", (1, 0))
        w.insert("b", (1, 4))  # watermark 4, horizon -1: both live
        assert w.total_results() == 1
        w.insert("b", (1, 5))  # horizon 0: ts=0 expires (ts <= horizon)
        assert w.live_count("a") == 0

    def test_explicit_advance(self):
        db, w = make_window(window=3)
        w.insert("a", (1, 0))
        w.insert("b", (1, 1))
        expired = w.advance_to(10)
        assert expired == 2
        assert w.total_results() == 0
        assert w.synopsis() == []

    def test_watermark_monotone(self):
        db, w = make_window()
        w.insert("a", (1, 10))
        with pytest.raises(SynopsisError):
            w.advance_to(5)

    def test_out_of_order_timestamps_rejected(self):
        db, w = make_window()
        w.insert("a", (1, 10))
        with pytest.raises(SynopsisError):
            w.insert("a", (2, 9))

    def test_dimension_tables_never_expire(self):
        db = Database()
        db.create_table(TableSchema("dim", [Column("k")]))
        db.create_table(TableSchema(
            "ev", [Column("k"), Column("ts")]
        ))
        w = SlidingWindowMaintainer(
            db, "SELECT * FROM dim, ev WHERE dim.k = ev.k",
            window=2, ts_columns={"ev": "ts"},
            config=MaintainerConfig(
                spec=SynopsisSpec.fixed_size(5), engine="sjoin", seed=0))
        w.insert("dim", (7,))
        w.insert("ev", (7, 0))
        w.insert("ev", (7, 10))  # first event expires; dim stays
        assert w.total_results() == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(SynopsisError):
            make_window(window=0)


class TestConsistency:
    def test_matches_exact_over_stream(self):
        rng = random.Random(5)
        db, w = make_window(window=3)
        for ts in range(12):
            for _ in range(4):
                alias = rng.choice(["a", "b"])
                w.insert(alias, (rng.randrange(10), ts))
            exact = JoinExecutor(db, w.maintainer.query).count()
            assert w.total_results() == exact
            synopsis = set(w.synopsis())
            full = set(JoinExecutor(db, w.maintainer.query).results())
            assert synopsis <= full
            assert len(synopsis) == min(10, len(full))

    def test_synopsis_never_references_expired(self):
        rng = random.Random(6)
        db, w = make_window(window=2)
        for ts in range(10):
            w.insert("a", (rng.randrange(5), ts))
            w.insert("b", (rng.randrange(5), ts))
            for result in w.synopsis():
                for alias, tid in zip(("a", "b"), result):
                    assert db.table(alias).is_live(tid)


class TestExpiryIsOneRunPerAlias:
    """§7.1's policy reaches the engine as delete runs: one batch of
    deletes per alias per watermark advance, not one call per TID."""

    def stream(self):
        rng = random.Random(9)
        return [(alias, (rng.randrange(12), ts))
                for ts in range(10) for alias in "ab" for _ in range(5)]

    def per_tid_reference(self, window):
        """The same policy spelled one ``delete`` per expired TID on a
        plain maintainer (what ``advance_to`` used to do)."""
        _, twin = make_window(window)
        plain = twin.maintainer
        pending = {"a": [], "b": []}
        watermark = None
        for alias, row in self.stream():
            pending[alias].append((row[1], plain.insert(alias, row)))
            if watermark is None or row[1] > watermark:
                watermark = row[1]
                for name, fifo in pending.items():
                    while fifo and fifo[0][0] <= watermark - window:
                        plain.delete(name, fifo.pop(0)[1])
        return plain

    def test_same_synopsis_as_the_per_tid_loop_with_fewer_visits(self):
        _, w = make_window(window=3)
        calls = []
        apply_batch = w.maintainer.apply_batch
        w.maintainer.apply_batch = lambda ops: (
            calls.append(list(ops)), apply_batch(ops))[1]
        for alias, row in self.stream():
            w.insert(alias, row)
        reference = self.per_tid_reference(window=3)

        assert w.synopsis() == reference.synopsis()
        assert w.total_results() == reference.total_results()
        assert w.maintainer.engine.rng.getstate() == \
            reference.engine.rng.getstate()

        expiries = [ops for ops in calls if len(ops) > 1]
        assert expiries and all(
            len({op.target for op in ops}) == 1 for ops in expiries)
        assert sum(map(len, expiries)) == 5 * 2 * 7   # ts 0..6 expired
        ours = w.maintainer.engine.graph.stats
        theirs = reference.engine.graph.stats
        assert ours.vertices_visited < theirs.vertices_visited
        assert ours.vertex_removals == theirs.vertex_removals
