"""Insert runs: one run whatever the tables, failure parity with per-op.

``apply_batch`` hands consecutive inserts — whatever their tables — to
every engine as one run: each entry's own bookkeeping (heap row,
pre-filter, member hash, anchor assembly, weight check) happens at once
and in op order, the graph work is deferred while consecutive entries
land on one plan node.  Checked here:

* a run that fails at entry k — bad arity, unknown table, FK miss on an
  anchor route, duplicate key on a member route, non-positive tuple
  weight — leaves heap, graph, member hashes, combined heap, samples,
  ``J``, RNG and engine counters where per-op application leaves them
  and raises the same error, on maintainer, on a one- and a
  two-registration manager (only the second refuses: the first keeps
  row k, neither sees k+1) and after WAL recovery;
* serial == batched for every engine and synopsis kind on mixed-table
  streams over member / anchor / direct routes, a self-join (one table
  under two aliases) and a pre-filtered member — samples, ``J`` **and**
  RNG state for batch sizes 1, 7, 64 and the whole stream.
"""

import dataclasses

import pytest

from repro import (
    CatalogError,
    DeleteOp,
    InsertOp,
    IntegrityError,
    MaintainerConfig,
    QueryError,
    SchemaError,
    SynopsisError,
    SynopsisManager,
)
from repro.persist import PersistentManager

from conftest import graph_state
from test_batch_differential import chunk, state_of
from test_delete_run import (
    ENGINES,
    FK_SQL,
    SPECS,
    Script,
    apply_catching,
    fk_db,
    heap_of,
    make_maintainer,
    warm_ops,
)


def engine_state(maintainer):
    """Everything an insert touches inside one engine."""
    engine = maintainer.engine
    state = [state_of(maintainer), dataclasses.asdict(engine.stats)]
    if engine.name != "sj":
        state.append(graph_state(engine.graph))
        # member hashes + refcounts, combined heap, assembly counters
        state.append({idx: runtime.state_dict()
                      for idx, runtime in engine._combined.items()})
    return state


# ----------------------------------------------------------------------
# failure parity: a run stops where per-op application stops
# ----------------------------------------------------------------------
def failing_runs():
    """``name -> (ops, spec, error on the maintainer, error on the
    manager, refused by the engine?, engines that refuse)``: a
    mixed-table insert run whose entry 5 cannot apply, good rows of
    three tables on either side of it.  A row the heap or the catalog
    refuses never gets a TID; one an *engine* refuses is already stored
    (per op as well), and the manager wraps the refusal, naming the
    query."""
    script = warm_ops()
    dims = sorted(row[0] for row in script.live["dim"].values())
    fresh = script.next_dim

    def around(bad):
        return [InsertOp("dim", (fresh, 1)),
                InsertOp("other", (1, 2)),
                InsertOp("fact", (fresh, 1)),
                InsertOp("fact", (dims[0], 3)),
                InsertOp("other", (2, 1)),
                bad,
                InsertOp("fact", (dims[1], 2)),
                InsertOp("other", (0, 3)),
                InsertOp("dim", (fresh + 1, 2))]

    both = ("sjoin", "sjoin-opt")
    return {
        "arity": (around(InsertOp("other", ("bad", 1, 2, 3))),
                  "fixed", SchemaError, SchemaError, False, both),
        "unknown-table": (around(InsertOp("nope", (1, 1))),
                          "fixed", QueryError, CatalogError, False, both),
        # only the FK-collapsed plan routes through the member hash;
        # plain sjoin knows nothing of the key and lets the row in
        "fk-miss": (around(InsertOp("fact", (999, 1))),
                    "fixed", IntegrityError, SynopsisError, True,
                    ("sjoin-opt",)),
        "duplicate-key": (around(InsertOp("dim", (dims[2], 0))),
                          "fixed", IntegrityError, SynopsisError, True,
                          ("sjoin-opt",)),
        "zero-weight": (around(InsertOp("other", (1, 0))),
                        "weighted", SynopsisError, SynopsisError, True,
                        both),
    }


CASES = sorted(failing_runs())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_failed_run_on_the_maintainer_stops_where_per_op_stops(engine, case):
    ops, spec, error, _, by_engine, refusing = failing_runs()[case]
    states, errors = [], []
    for size in (1, len(ops)):
        maintainer = make_maintainer(SPECS[spec], engine)
        maintainer.apply_batch(warm_ops().ops)
        errors.append(apply_catching(maintainer.apply_batch,
                                     chunk(ops, size)))
        maintainer.engine.graph.check_invariants()
        states.append((engine_state(maintainer), heap_of(maintainer.db)))
    per_op, batched = errors
    if engine in refusing:
        assert type(per_op) is error
        assert type(batched) is error and str(batched) == str(per_op)
    else:
        assert per_op is None and batched is None
    assert states[1] == states[0]
    # nothing after the refused row went in
    rows = sum(len(live) for live in heap_of(maintainer.db).values())
    warm = len(warm_ops().ops)
    assert rows == warm + (5 + by_engine if engine in refusing
                           else len(ops))


def make_manager(engine, spec, registrations):
    """One registration (the engine under test), or two over one
    database: a plain ``sjoin`` first, which refuses none of the rows
    the second one does."""
    manager = SynopsisManager(fk_db(), MaintainerConfig(seed=2))
    if registrations == 2:
        manager.register("plain", FK_SQL, MaintainerConfig(
            spec=SPECS["with-replacement"], engine="sjoin", seed=7))
    manager.register("q", FK_SQL, MaintainerConfig(
        spec=SPECS[spec], engine=engine, seed=8))
    return manager


def manager_state(manager):
    return ({name: engine_state(manager.maintainer(name))
             for name in manager.names()}, heap_of(manager.db))


@pytest.mark.parametrize("registrations", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_failed_run_on_the_manager_and_after_recovery(
        engine, case, registrations, tmp_path):
    ops, spec, cause, error, by_engine, refusing = failing_runs()[case]
    warm = warm_ops().ops
    states, errors = [], []
    for size in (1, len(ops)):
        manager = make_manager(engine, spec, registrations)
        manager.apply_batch(warm)
        errors.append(apply_catching(manager.apply_batch, chunk(ops, size)))
        states.append(manager_state(manager))
    per_op, batched = errors
    if engine in refusing:
        assert type(per_op) is error
        if by_engine:
            # an engine's refusal arrives wrapped, naming the query
            assert isinstance(per_op.__cause__, cause)
            assert isinstance(batched.__cause__, cause)
            assert "query 'q'" in str(per_op)
        assert batched.ops_applied == 5
    else:
        assert per_op is None
    assert type(batched) is type(per_op) and str(batched) == str(per_op)
    assert states[1] == states[0]
    if registrations == 2 and engine in refusing and by_engine:
        # the first registration took row 5 before the second refused
        # it, and neither was told about row 6
        plain = manager.maintainer("plain").engine.stats
        assert plain.inserts == len(warm) + 6
        assert manager.maintainer("q").engine.stats.inserts == \
            len(warm) + 6

    # log-then-apply: the failing batch is in the WAL; replaying it must
    # fail at the same entry and leave the recovered manager right here
    durable = PersistentManager(
        make_manager(engine, spec, registrations), str(tmp_path))
    durable.apply_batch(warm)
    raised = apply_catching(durable.apply_batch, [ops])
    assert str(raised) == str(batched)
    assert manager_state(durable.manager) == states[1]
    durable.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert recovered.replay_failures == (0 if raised is None else 1)
    assert recovered.replayed_ops == len(warm) + \
        (len(ops) if raised is None else 0)
    assert manager_state(recovered.manager) == states[1]
    # and it keeps going from there like the manager that never crashed
    more = [InsertOp("other", (1, 1)), InsertOp("fact", (0, 2)),
            DeleteOp("other", 0)]
    recovered.apply_batch(more)
    manager.apply_batch(more)
    assert manager_state(recovered.manager) == manager_state(manager)
    recovered.close()


def test_the_issue_example_keeps_every_good_row():
    """Both good ``r`` rows used to sit in the heap and in no engine
    (J = 0) when the fourth op of the batch was refused."""
    from repro import Column, Database, TableSchema

    def build():
        db = Database()
        db.create_table(TableSchema("r", [Column("a"), Column("x")]))
        db.create_table(TableSchema("s", [Column("a"), Column("y")]))
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("q", "SELECT * FROM r, s WHERE r.a = s.a")
        return manager

    ops = [InsertOp("s", (1, 1)), InsertOp("r", (1, 1)),
           InsertOp("r", (2, 1)), InsertOp("r", ("bad", 1, 2, 3))]
    batched = build()
    with pytest.raises(SchemaError) as refused:
        batched.apply_batch(ops)
    assert refused.value.ops_applied == 3
    per_op = build()
    for op in ops[:3]:
        per_op.apply_batch([op])
    assert batched.total_results("q") == per_op.total_results("q") == 1
    assert batched.synopsis("q") == per_op.synopsis("q") == [(0, 0)]
    assert len(batched.db.table("r")) == 2


# ----------------------------------------------------------------------
# mixed-table runs: serial == batched, every engine x synopsis kind
# ----------------------------------------------------------------------
SELF_SQL = ("SELECT * FROM fact, dim, other AS o1, other AS o2 "
            "WHERE fact.f_dim = dim.d_id AND |dim.band - o1.band| <= 1 "
            "AND o1.w = o2.w")
FILTERED_SQL = FK_SQL + " AND dim.band < 2"


def mixed_script(seed, steps=200):
    """Inserts that change table almost every op — the shape that used
    to cut a run at every change — with a few deletes to end runs."""
    script = Script(seed)
    rng = script.rng
    script.insert_some("dim", 3)
    for step in range(steps):
        table = rng.choice(("dim", "fact", "fact", "other", "other"))
        script.insert_some(table, 1 if rng.random() < 0.8 else 4)
        if step % 17 == 16:
            script.delete_run(rng.choice(("fact", "other")),
                              rng.randrange(1, 4))
    return script.ops


def mixed_manager(engine, spec):
    """Three queries hear every run: the FK query (member / anchor /
    direct routes under ``sjoin-opt``), one that names ``other`` twice,
    and one whose member is pre-filtered (anchors of a filtered parent
    are dropped at assembly)."""
    manager = SynopsisManager(fk_db(), MaintainerConfig(seed=3))
    manager.register("q", FK_SQL, MaintainerConfig(
        spec=spec, engine=engine, seed=11))
    manager.register("self", SELF_SQL, MaintainerConfig(
        spec=SPECS["fixed"], engine=engine, seed=12))
    manager.register("filtered", FILTERED_SQL, MaintainerConfig(
        spec=spec, engine=engine, seed=13))
    return manager


@pytest.mark.parametrize("engine", ENGINES + ("sj",))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_mixed_table_runs_equal_serial_including_rng_state(engine,
                                                           spec_name):
    spec = SPECS[spec_name]
    if engine == "sj" and spec.family != "uniform":
        pytest.skip("the SJ baseline maintains the uniform family only")
    # SJ enumerates the full join on a delete: a shorter script
    steps = 70 if engine == "sj" else 200
    ops = mixed_script(21, steps)
    inserts = sum(isinstance(op, InsertOp) for op in ops)
    changes = sum(a.target != b.target for a, b in zip(ops, ops[1:]))
    assert inserts > steps and changes > len(ops) // 3

    serial = mixed_manager(engine, spec)
    for op in ops:
        serial.apply_batch([op])
    expected = manager_state(serial)
    if engine == "sjoin-opt":
        filtered = serial.maintainer("filtered").engine
        assert sum(r.assembly_drops for r in filtered._combined.values())
    assert serial.total_results("q") and serial.total_results("self")

    for size in (7, 64, len(ops)):
        batched = mixed_manager(engine, spec)
        for piece in chunk(ops, size):
            batched.apply_batch(piece)
        assert manager_state(batched) == expected, \
            f"batch size {size} diverged from serial replay"
        if engine != "sj":
            for name in batched.names():
                batched.maintainer(name).engine.graph.check_invariants()


@pytest.mark.parametrize("engine", ENGINES + ("sj",))
def test_mixed_table_runs_on_the_bare_maintainer(engine):
    """The engine rung of the same contract (ops addressed by alias)."""
    ops = mixed_script(22)
    serial = make_maintainer(SPECS["fixed"], engine)
    for op in ops:
        serial.apply_batch([op])
    for size in (7, 64, len(ops)):
        batched = make_maintainer(SPECS["fixed"], engine)
        for piece in chunk(ops, size):
            batched.apply_batch(piece)
        assert engine_state(batched) == engine_state(serial)


def test_a_mixed_run_reaches_the_graph_as_few_batches():
    """What the run is for: members never end a stretch, so an anchor
    stream interleaved with its members' arrivals propagates once."""
    script = Script(5)
    script.insert_some("dim", 4)
    script.insert_some("other", 6)
    warm = list(script.ops)
    for _ in range(12):
        script.insert_some("fact", 2)
        script.insert_some("dim", 1)
    run = script.ops[len(warm):]
    visited = []
    for size in (1, len(run)):
        maintainer = make_maintainer(SPECS["fixed"], "sjoin-opt")
        maintainer.apply_batch(warm)
        before = maintainer.engine.graph.stats.weight_recomputes
        for piece in chunk(run, size):
            maintainer.apply_batch(piece)
        visited.append(
            maintainer.engine.graph.stats.weight_recomputes - before)
    assert visited[1] * 2 < visited[0]
