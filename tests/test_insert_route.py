"""The compiled insert path: what it must refuse, and the two laws it
leans on.

* order of an entry's checks — unknown alias, schema, pre-filter, store:
  a hostile row on a filtered alias is a ``SchemaError`` before the
  filter reads it, an unknown alias a ``QueryError`` on every entry
  point, and neither leaves anything behind;
* a tuple weight is evaluated once per inserted tuple;
* the *concatenation law*: Algorithm 3 over the blocks of a run of
  insertions does not depend on how the blocks are cut into views — one
  view per block, adjacent blocks coalesced, any grouping, or the one
  concatenated view a segment now hands over — for all six synopsis
  kinds, and a view whose ``get`` is off by one block is caught;
* the per-row path stays short: Python calls per op of one engine pass
  over a fixed QY stream, a number no box speed moves.
"""

import cProfile
import dataclasses
import pstats
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    DeleteOp,
    InsertOp,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    QueryError,
    SchemaError,
    SynopsisSpec,
    TableSchema,
)
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, interleave_deletions
from repro.graph import views
from repro.graph.views import DeltaJoinView

from test_batch_differential import state_of

ENGINES = ("sjoin-opt", "sjoin", "sj")
FILTERED_SQL = "SELECT * FROM r, s WHERE r.a = s.a AND r.x <= 10"


def filtered_maintainer(engine, spec=None):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    maintainer = JoinSynopsisMaintainer(db, FILTERED_SQL, MaintainerConfig(
        spec=spec or SynopsisSpec.fixed_size(20), engine=engine, seed=5))
    maintainer.apply_batch([InsertOp("s", (1, 1)), InsertOp("r", (1, 2)),
                            InsertOp("r", (1, 50))])
    return maintainer


# ----------------------------------------------------------------------
# validate -> filter -> store, and one typed place for an unknown alias
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("row", [(1,), (1, "x"), (1, None), (1, 2, 3)],
                         ids=["short", "str-for-int", "null", "long"])
def test_a_hostile_row_meets_the_schema_before_the_filter(engine, row):
    # at the parent the filter ran first: IndexError / TypeError
    maintainer = filtered_maintainer(engine)
    results = maintainer.total_results()
    with pytest.raises(SchemaError):
        maintainer.insert("r", row)
    with pytest.raises(SchemaError):
        maintainer.apply_batch([InsertOp("r", (1, 3)), InsertOp("r", row)])
    # the good row before it went in, as per-op application would have it
    assert maintainer.db.table("r").high_water_mark == 2
    assert maintainer.total_results() == results + 1


@pytest.mark.parametrize("engine", ENGINES)
def test_an_unknown_alias_is_a_query_error_on_every_entry_point(engine):
    maintainer = filtered_maintainer(engine)
    engine_ = maintainer.engine
    before = state_of(maintainer)
    for call in (lambda: engine_.insert("zzz", (1, 2)),
                 lambda: engine_.notify_insert("zzz", 0, (1, 2)),  # KeyError
                 lambda: engine_.delete("zzz", 0),
                 lambda: engine_.notify_delete("zzz", 0, (1, 2)),
                 lambda: engine_.insert_run([("r", (1, 4)),
                                             ("zzz", (1, 2))])):
        with pytest.raises(QueryError, match="unknown alias zzz"):
            call()
    # the run stopped where per-op stops: ("r", (1, 4)) is in
    assert maintainer.total_results() == before[0] + 1


# ----------------------------------------------------------------------
# a tuple weight is evaluated once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ("sjoin-opt", "sjoin"))
@pytest.mark.parametrize("batch", [1, 7])
def test_k_inserts_make_k_tuple_weight_calls(engine, batch):
    maintainer = filtered_maintainer(
        engine, SynopsisSpec.weighted_fixed_size(20, "r.x"))
    graph = maintainer.engine.graph
    weigh, calls = graph.tuple_weight, []

    def counting(node_idx, row):
        calls.append(row)
        return weigh(node_idx, row)

    graph.tuple_weight = counting
    ops = [InsertOp("r", (1, 1 + i % 9)) for i in range(14)] \
        + [InsertOp("s", (1, 4))] * 7
    for i in range(0, len(ops), batch):
        maintainer.apply_batch(ops[i:i + batch])
    assert len(calls) == len(ops)           # twice that at the parent
    graph.check_invariants()


# ----------------------------------------------------------------------
# the concatenation law
# ----------------------------------------------------------------------
SPECS = {
    "fixed": SynopsisSpec.fixed_size(4),
    "fixed_replacement": SynopsisSpec.with_replacement(4),
    "bernoulli": SynopsisSpec.bernoulli(0.3),
    "weighted_fixed": SynopsisSpec.weighted_fixed_size(4),
    "weighted_replacement": SynopsisSpec.weighted_with_replacement(4),
    "subset": SynopsisSpec.subset(0.3),
}


@pytest.fixture
def numbers_as_results(monkeypatch):
    """A view's results are its join numbers, two units to a result (so
    the subset kind meets repeated units of one result): the law is
    about positions, not about Algorithm 2."""
    monkeypatch.setattr(views, "map_join_number",
                        lambda graph, root, number: (number // 2,))


class OffByOneBlock(DeltaJoinView):
    """Deliberately wrong: maps a position through the previous block."""

    def get(self, index):
        k = max(views.bisect_right(self._ends, index) - 1, 0)
        return (self._shifts[k] + index) // 2,


def blocks_of(lengths, adjacent):
    """``(view_start, new_results)`` per entry: a block follows its
    predecessor directly (same vertex) or after a gap (another one)."""
    blocks, start = [], 0
    for count, touching in zip(lengths, adjacent):
        start += 0 if touching else 100
        blocks.append((start, count))
        start += count
    return blocks


def coalesced(blocks):
    merged = []
    for start, count in blocks:
        if count and merged and sum(merged[-1]) == start:
            merged[-1] = (merged[-1][0], merged[-1][1] + count)
        elif count:
            merged.append((start, count))
    return merged


def consume(kind, groups, view_class=DeltaJoinView, seed=7):
    rng = random.Random(seed)
    synopsis = SPECS[kind].build(rng)
    for group in groups:
        view = view_class(None, 0, group)
        if view.length():
            synopsis.consume(view)
    return synopsis.state_dict(), synopsis.samples(), rng.getstate()


def cuts_of(blocks, cut_points):
    edges = [0] + sorted(cut_points) + [len(blocks)]
    return [blocks[a:b] for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("kind", sorted(SPECS))
@settings(max_examples=60, deadline=None,    # the fixture holds no state
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_consuming_does_not_depend_on_the_cut(numbers_as_results, kind,
                                              data):
    lengths = data.draw(st.lists(st.integers(0, 12), min_size=1,
                                 max_size=12))
    adjacent = data.draw(st.lists(st.booleans(), min_size=len(lengths),
                                  max_size=len(lengths)))
    blocks = blocks_of(lengths, adjacent)
    cut = data.draw(st.sets(st.integers(0, len(blocks)), max_size=5))
    # state_dict: samples, total_seen, results_accessed, skips_drawn,
    # the pending skip (or the replacement heap), accepts / replaces
    one_each = consume(kind, [[block] for block in blocks])
    assert consume(kind, [[block] for block in coalesced(blocks)]) \
        == one_each
    assert consume(kind, cuts_of(blocks, cut)) == one_each
    assert consume(kind, [blocks]) == one_each


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_the_law_catches_a_get_that_is_off_by_one_block(numbers_as_results,
                                                        kind):
    blocks = blocks_of([3, 5, 2, 6, 4], [False] * 5)
    one_each = consume(kind, [[block] for block in blocks])
    assert consume(kind, [blocks]) == one_each
    assert consume(kind, [blocks], OffByOneBlock) != one_each


def test_a_delta_view_is_its_blocks_in_op_order(numbers_as_results):
    view = DeltaJoinView(None, 0, [(10, 2), (0, 0), (4, 3)])
    assert view.length() == len(view) == 5
    assert list(view) == [(5,), (5,), (2,), (2,), (3,)]
    with pytest.raises(IndexError):
        view.get(5)
    with pytest.raises(IndexError):
        view.get(-1)
    assert DeltaJoinView(None, 0, []).length() == 0


# ----------------------------------------------------------------------
# calls per op, box-independent
# ----------------------------------------------------------------------
def qy_stream(churn):
    scale = dataclasses.replace(TpcdsScale.tiny(), customers=300,
                                store_sales=3000)
    setup = setup_query("QY", scale, seed=101)
    events = setup.stream
    if churn:
        events = interleave_deletions(
            events, delete_every={"ss": 100, "c2": 20},
            delete_count={"ss": 80, "c2": 16})
    maintainer = JoinSynopsisMaintainer(setup.db, setup.sql, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(50), engine="sjoin-opt", seed=17))
    maintainer.apply_batch([InsertOp(e.alias, e.row) for e in setup.preload])
    next_tid = {alias: len(maintainer.db.table(
        maintainer.query.range_table(alias).table_name))
        for alias in maintainer.query.aliases}
    live = {alias: list(range(n)) for alias, n in next_tid.items()}
    ops = []
    for event in events:
        if isinstance(event, Insert):
            ops.append(InsertOp(event.alias, event.row))
            live[event.alias].append(next_tid[event.alias])
            next_tid[event.alias] += 1
        else:
            doomed = live[event.alias][:event.count]
            del live[event.alias][:event.count]
            ops.extend(DeleteOp(event.alias, tid) for tid in doomed)
    return maintainer, ops


#: measured on this stream: 35.7 / 64.2 with results held as columns
#: (36.7 / 65.2 with one OpOutcome per op, 65.9 / 91.4 before the insert
#: path was compiled per route), plus 5 % head-room
CALLS_PER_OP = {"ingest": 37.5, "churn": 67.4}


@pytest.mark.parametrize("shape", sorted(CALLS_PER_OP))
def test_python_calls_per_op_of_an_engine_pass(shape):
    maintainer, ops = qy_stream(churn=shape == "churn")
    assert len(ops) > 3000
    profile = cProfile.Profile()    # sys.setprofile, in C
    profile.enable()
    for i in range(0, len(ops), 64):
        maintainer.apply_batch(ops[i:i + 64])
    profile.disable()
    calls = pstats.Stats(profile).total_calls / len(ops)
    assert calls <= CALLS_PER_OP[shape], calls
    maintainer.engine.graph.check_invariants()
