"""Delete runs (§5.3): the root rule against a brute-force oracle.

A run of consecutive deletes on plan node X updates X's own vertices at
once and pushes the weight deltas to the other tables only when it ends;
until then the join graph is exact *as seen from X* and from nowhere
else, which is why every re-draw (and the ``2m >= J`` rebuild) after a
delete at X goes through the query tree rooted at X.  Checked here:

* inside a run, after every entry, Algorithm 2 rooted at X enumerates
  exactly the brute-force join (``JoinExecutor``) over random 2-4 table
  equi/band/inequality queries, uniform and weighted graphs; after the
  flush the graph equals per-tuple ``delete_tuple`` and every root is
  exact again;
* serial == batched for every engine and synopsis kind — samples,
  ``J`` **and** RNG state for batch sizes 1, 7, 64 and the whole
  stream — on streams biased toward long runs, shrink-to-empty then
  refill, delete-then-insert of one key, ``J <= 2m`` and ``J = 0``;
* a run that fails at entry k stops where per-op application stops,
  with the same typed error, on maintainer, manager and after WAL
  recovery;
* inclusion stays uniform after delete runs on a non-root node.
"""

import random
from collections import Counter

import pytest

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    IntegrityError,
    JoinExecutor,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisError,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
    TupleNotFoundError,
    parse_query,
)
from repro.errors import ReproError
from repro.graph.join_graph import WeightedJoinGraph
from repro.graph.join_number import map_join_number
from repro.persist import PersistentManager
from repro.query.planner import plan_query

from conftest import (
    chi_square_threshold,
    chi_square_uniform,
    graph_state,
    random_query,
    random_row,
)
from test_batch_differential import chunk, state_of


# ----------------------------------------------------------------------
# graph level: the root-X view inside a run, against the executor
# ----------------------------------------------------------------------
def unit_weight(node_idx, row):
    """A tuple weight that depends on the row: 1..3 units."""
    return 1 + (row[0] + node_idx) % 3


def brute_force(db, query, tuple_weight=None):
    """The join as a multiset: result -> units it spans."""
    tables = [db.table(query.range_table(alias).table_name)
              for alias in query.aliases]
    out = Counter()
    for result in JoinExecutor(db, query).results():
        units = 1
        if tuple_weight is not None:
            for node_idx, tid in enumerate(result):
                units *= tuple_weight(node_idx, tables[node_idx].get(tid))
        out[result] = units
    return out


def mapped(graph, root_idx):
    """Algorithm 2 over the whole domain of ``root_idx``, as a multiset."""
    return Counter(map_join_number(graph, root_idx, number)
                   for number in range(graph.total_results(root_idx)))


class Twin:
    """One database, two graphs fed the same inserts: ``graph`` deletes
    in runs, ``serial`` per tuple — the reference the flush must meet."""

    def __init__(self, seed, num_tables, tuple_weight=None):
        rng = random.Random(seed)
        self.db, self.query = random_query(rng, num_tables)
        self.tuple_weight = tuple_weight
        plan = plan_query(self.query, self.db)
        self.graph = WeightedJoinGraph(plan, tuple_weight=tuple_weight)
        self.serial = WeightedJoinGraph(plan, tuple_weight=tuple_weight)
        self.tables = [
            self.db.table(self.query.range_table(alias).table_name)
            for alias in self.query.aliases]
        self.live = [[] for _ in self.tables]

    def insert(self, node_idx, row):
        tid = self.tables[node_idx].insert(row)
        self.graph.insert_tuple(node_idx, tid, row)
        self.serial.insert_tuple(node_idx, tid, row)
        self.live[node_idx].append(tid)

    def fill(self, rng, per_table, domain=3):
        for node_idx, table in enumerate(self.tables):
            for _ in range(per_table):
                self.insert(node_idx, random_row(
                    rng, len(table.schema.columns), domain))

    def delete_run(self, node_idx, tids):
        """Delete ``tids`` of one node as a run, checking the root view
        against the executor after every entry."""
        table = self.tables[node_idx]
        run = self.graph.delete_run(node_idx)
        for tid in tids:
            row = table.get(tid)
            removed = run.delete(tid, row)
            assert removed == self.serial.delete_tuple(node_idx, tid, row)
            table.delete(tid)
            self.live[node_idx].remove(tid)
            assert mapped(self.graph, node_idx) == brute_force(
                self.db, self.query, self.tuple_weight)
        run.flush()
        self.graph.check_invariants()
        assert graph_state(self.graph) == graph_state(self.serial)

    def check_every_root(self):
        exact = brute_force(self.db, self.query, self.tuple_weight)
        for root_idx in range(len(self.tables)):
            assert mapped(self.graph, root_idx) == exact


@pytest.mark.parametrize("tuple_weight", [None, unit_weight],
                         ids=["uniform", "weighted"])
@pytest.mark.parametrize("seed", range(12))
def test_root_view_is_the_brute_force_join_inside_a_run(seed, tuple_weight):
    rng = random.Random(1000 + seed)
    num_tables = 2 + seed % 3
    twin = Twin(seed, num_tables, tuple_weight)
    twin.fill(rng, per_table=5)
    twin.check_every_root()
    for _ in range(4):
        node_idx = rng.randrange(num_tables)
        live = twin.live[node_idx]
        # long runs: most of the table, and every other time all of it
        count = len(live) if rng.random() < 0.5 else max(1, len(live) - 2)
        twin.delete_run(node_idx, rng.sample(live, min(count, len(live))))
        twin.check_every_root()
        # refill, re-using the join keys just deleted
        for _ in range(rng.randrange(2, 6)):
            twin.insert(node_idx, random_row(
                rng, len(twin.tables[node_idx].schema.columns), 3))
    twin.check_every_root()


def test_shrink_to_empty_then_refill_same_keys():
    """Every table emptied in one run each, then refilled with the very
    rows that were deleted: J passes through 0 inside a run."""
    twin = Twin(seed=3, num_tables=3)
    rng = random.Random(8)
    twin.fill(rng, per_table=6, domain=2)
    rows = [[table.get(tid) for tid in live]
            for table, live in zip(twin.tables, twin.live)]
    for node_idx in (1, 0, 2):
        twin.delete_run(node_idx, list(twin.live[node_idx]))
        assert twin.graph.total_results(node_idx) == 0
    twin.check_every_root()
    for node_idx, node_rows in enumerate(rows):
        for row in node_rows:
            twin.insert(node_idx, row)
    twin.check_every_root()
    assert graph_state(twin.graph) == graph_state(twin.serial)


def test_only_the_runs_root_is_exact_before_the_flush():
    """Why the rule names X: a delete at X leaves weights that point
    away from X stale until the flush, so any other root over-counts."""
    db = Database()
    db.create_table(TableSchema("r", [Column("a")]))
    db.create_table(TableSchema("s", [Column("a")]))
    query = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
    graph = WeightedJoinGraph(plan_query(query, db))
    for _ in range(2):
        graph.insert_tuple(0, db.insert("r", (1,)), (1,))
        graph.insert_tuple(1, db.insert("s", (1,)), (1,))
    visited = graph.stats.vertices_visited
    run = graph.delete_run(1)
    assert run.delete(0, (1,)) == 2
    assert graph.total_results(1) == 2      # exact: 2 r-tuples x 1 s-tuple
    assert graph.total_results(0) == 4      # stale: r has not heard yet
    assert graph.stats.vertices_visited == visited
    assert run.delete(1, (1,)) == 2
    assert graph.total_results(1) == 0
    run.flush()
    assert graph.total_results(0) == 0
    # one neighbour vertex heard once about two deletes
    assert graph.stats.vertices_visited == visited + 1
    run.flush()                              # nothing left to push
    assert graph.stats.vertices_visited == visited + 1
    graph.check_invariants()


# ----------------------------------------------------------------------
# engine level: serial == batched, every engine x every synopsis kind
# ----------------------------------------------------------------------
FK_SQL = ("SELECT * FROM fact, dim, other "
          "WHERE fact.f_dim = dim.d_id AND |dim.band - other.band| <= 1")

M = 6
SPECS = {
    "fixed": SynopsisSpec.fixed_size(M),
    "with-replacement": SynopsisSpec.with_replacement(M),
    "bernoulli": SynopsisSpec.bernoulli(0.3),
    "weighted": SynopsisSpec.weighted_fixed_size(M, "other.w"),
    "weighted-with-replacement":
        SynopsisSpec.weighted_with_replacement(M, "fact.w"),
    "subset": SynopsisSpec.subset(0.3, "fact.w"),
}
ENGINES = ("sjoin", "sjoin-opt")
TABLES = ("dim", "fact", "other")


def fk_db():
    """fact -> dim is a foreign key (collapsed by sjoin-opt: ``fact`` is
    the anchor route, ``dim`` a member route), ``other`` joins by band."""
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("w")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band"), Column("w")]))
    return db


def make_maintainer(spec, engine, seed=5):
    return JoinSynopsisMaintainer(
        fk_db(), FK_SQL,
        MaintainerConfig(spec=spec, engine=engine, seed=seed))


class Script:
    """A reproducible op script over the FK schema, keeping the model it
    needs to stay legal (TIDs are sequential per table; a ``dim`` row is
    only deleted while no live ``fact`` row references it)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ops = []
        self.next_tid = dict.fromkeys(TABLES, 0)
        self.live = {table: {} for table in TABLES}   # tid -> row
        self.next_dim = 0

    def insert(self, table, row):
        self.ops.append(InsertOp(table, row))
        self.live[table][self.next_tid[table]] = row
        self.next_tid[table] += 1

    def insert_some(self, table, count):
        rng = self.rng
        for _ in range(count):
            if table == "dim":
                self.insert("dim", (self.next_dim, rng.randrange(4)))
                self.next_dim += 1
            elif table == "fact":
                if not self.live["dim"]:
                    return
                d_id = rng.choice(sorted(
                    row[0] for row in self.live["dim"].values()))
                self.insert("fact", (d_id, rng.randrange(1, 4)))
            else:
                self.insert("other", (rng.randrange(4), rng.randrange(1, 4)))

    def deletable(self, table):
        live = self.live[table]
        if table != "dim":
            return sorted(live)
        referenced = {row[0] for row in self.live["fact"].values()}
        return sorted(tid for tid, row in live.items()
                      if row[0] not in referenced)

    def delete_run(self, table, count):
        """``count`` oldest deletable rows of ``table``, back to back."""
        tids = self.deletable(table)[:count]
        for tid in tids:
            self.ops.append(DeleteOp(table, tid))
            del self.live[table][tid]
        return tids


def churn_script(seed):
    """Long delete runs on every route, shrink-to-empty-then-refill,
    delete-then-insert of the same key, J <= 2m and J = 0 on the way."""
    script = Script(seed)
    rng = script.rng
    script.insert_some("dim", 6)
    script.insert_some("other", 8)
    script.insert_some("fact", 14)
    for round_ in range(6):
        for table in rng.sample(("fact", "other"), 2):
            live = len(script.live[table])
            # most of the table; every third round all of it (J = 0)
            count = live if round_ % 3 == 2 else max(1, live - rng.randrange(4))
            deleted = script.delete_run(table, count)
            if table == "other" and deleted and rng.random() < 0.5:
                # the same key straight back: a fresh vertex, not the old
                script.insert("other", (rng.randrange(4), 2))
            if rng.random() < 0.5:
                script.delete_run("dim", rng.randrange(1, 4))
                script.insert_some("dim", 2)
            script.insert_some(table, rng.randrange(3, 12))
        if round_ % 2:
            # a delete run cut by a single insert on another table
            script.delete_run("fact", 3)
            script.insert_some("other", 1)
            script.delete_run("fact", 3)
            script.insert_some("fact", 8)
    return script.ops


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serial_equals_batched_including_rng_state(engine, spec_name, seed):
    spec = SPECS[spec_name]
    ops = churn_script(seed)
    assert sum(isinstance(op, DeleteOp) for op in ops) > len(ops) // 3

    serial = make_maintainer(spec, engine)
    low_j = empty_j = 0
    for op in ops:
        serial.apply_batch([op])
        low_j += 0 < serial.total_results() <= 2 * M
        empty_j += serial.total_results() == 0
    assert low_j and empty_j    # the rebuild branch and J = 0 were met
    if spec.kind == "fixed":
        assert serial.engine.stats.rebuilds and serial.engine.stats.redraws

    # what the samples must be drawn from
    exact = {tuple(result) for result in
             JoinExecutor(serial.db, serial.query).results()}
    assert set(serial.synopsis()) <= exact

    for size in (7, 64, len(ops)):
        batched = make_maintainer(spec, engine)
        for piece in chunk(ops, size):
            batched.apply_batch(piece)
        batched.engine.graph.check_invariants()
        assert state_of(batched) == state_of(serial), \
            f"batch size {size} diverged from serial replay"
        assert graph_state(batched.engine.graph) == \
            graph_state(serial.engine.graph)


@pytest.mark.parametrize("engine", ENGINES + ("sj",))
def test_total_results_is_exact_after_every_batch(engine):
    ops = churn_script(4)
    maintainer = make_maintainer(SPECS["fixed"], engine)
    for piece in chunk(ops, 7):
        maintainer.apply_batch(piece)
        exact = JoinExecutor(maintainer.db, maintainer.query).results()
        assert maintainer.total_results() == len(exact)
        assert set(maintainer.synopsis()) <= set(map(tuple, exact))
        assert len(maintainer.synopsis()) == min(M, len(exact))


# ----------------------------------------------------------------------
# failure parity: a run stops where per-op application stops
# ----------------------------------------------------------------------
def warm_ops():
    script = Script(9)
    script.insert_some("dim", 5)
    script.insert_some("other", 6)
    script.insert_some("fact", 12)
    return script


def failing_runs():
    """``(name, ops, error)``: a delete run whose entry 3 cannot apply."""
    script = warm_ops()
    facts = sorted(script.live["fact"])
    others = sorted(script.live["other"])
    referenced = {row[0] for row in script.live["fact"].values()}
    parents = sorted(script.live["dim"].items())
    free = [tid for tid, row in parents if row[0] not in referenced]
    held = [tid for tid, row in parents if row[0] in referenced]

    def deletes(table, tids):
        return [DeleteOp(table, tid) for tid in tids]

    return script.ops, {
        "unknown-tid": (
            deletes("other", others[:3] + [999] + others[3:5]),
            TupleNotFoundError),
        "same-tid-twice": (
            deletes("fact", facts[:3] + [facts[1]] + facts[3:6]),
            TupleNotFoundError),
        "dead-tid": (
            deletes("fact", [facts[0]])
            + [InsertOp("other", (1, 1))]
            + deletes("fact", facts[1:4] + [facts[0]] + facts[4:6]),
            TupleNotFoundError),
        # on sjoin-opt ``dim`` is a member route and refuses; on sjoin
        # nothing knows about the key and the delete goes through
        "referenced-fk-parent": (
            deletes("dim", free[:1] + held[:1] + free[1:]),
            IntegrityError),
    }


def heap_of(db):
    return {name: [db.table(name).is_live(tid)
                   for tid in range(db.table(name).high_water_mark)]
            for name in TABLES}


def full_state(maintainer):
    engine = maintainer.engine
    return (state_of(maintainer), heap_of(maintainer.db),
            graph_state(engine.graph), engine.stats.deletes)


def apply_catching(apply, batches):
    """Apply batches until one raises; returns the exception (or None)."""
    for batch in batches:
        try:
            apply(batch)
        except ReproError as exc:
            return exc
    return None


CASES = sorted(failing_runs()[1])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_failed_run_on_the_maintainer_stops_where_per_op_stops(engine, case):
    warm, cases = failing_runs()
    ops, error = cases[case]
    states, errors = [], []
    for size in (1, len(ops)):
        maintainer = make_maintainer(SPECS["fixed"], engine)
        maintainer.apply_batch(warm)
        errors.append(apply_catching(maintainer.apply_batch,
                                     chunk(ops, size)))
        maintainer.engine.graph.check_invariants()
        states.append(full_state(maintainer))
    per_op, batched = errors
    if case == "referenced-fk-parent" and engine == "sjoin":
        assert per_op is None and batched is None
    else:
        assert type(per_op) is error
        assert type(batched) is error and str(batched) == str(per_op)
    assert states[1] == states[0]


def make_manager(engine):
    """Two registrations over one database; the second one collapses the
    FK, so on ``referenced-fk-parent`` it refuses a row the first has
    already let go of."""
    manager = SynopsisManager(fk_db(), MaintainerConfig(seed=2))
    manager.register("plain", FK_SQL, MaintainerConfig(
        spec=SPECS["with-replacement"], engine="sjoin", seed=7))
    manager.register("q", FK_SQL, MaintainerConfig(
        spec=SPECS["fixed"], engine=engine, seed=8))
    return manager


def manager_state(manager):
    return ({name: full_state(manager.maintainer(name))
             for name in manager.names()}, heap_of(manager.db))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_failed_run_on_the_manager_and_after_recovery(engine, case,
                                                      tmp_path):
    warm, cases = failing_runs()
    ops, error = cases[case]
    states, errors = [], []
    for size in (1, len(ops)):
        manager = make_manager(engine)
        manager.apply_batch(warm)
        errors.append(apply_catching(manager.apply_batch, chunk(ops, size)))
        states.append(manager_state(manager))
    per_op, batched = errors
    if case == "referenced-fk-parent":
        if engine == "sjoin":
            assert per_op is None and batched is None
        else:
            # the engine's refusal arrives wrapped, naming query and tid
            assert type(per_op) is SynopsisError
            assert isinstance(per_op.__cause__, error)
            assert isinstance(batched.__cause__, error)
    else:
        assert type(per_op) is error
    assert type(batched) is type(per_op) and str(batched) == str(per_op)
    assert states[1] == states[0]

    # log-then-apply: the failing batch is in the WAL; replaying it must
    # fail at the same entry and leave the recovered manager right here
    durable = PersistentManager(make_manager(engine), str(tmp_path))
    durable.apply_batch(warm)
    raised = apply_catching(durable.apply_batch, [ops])
    assert str(raised) == str(batched)
    assert manager_state(durable.manager) == states[1]
    durable.abandon()
    recovered = PersistentManager.recover(str(tmp_path))
    assert recovered.replay_failures == (0 if raised is None else 1)
    assert manager_state(recovered.manager) == states[1]
    recovered.close()


# ----------------------------------------------------------------------
# statistics: inclusion after delete runs at a non-root node
# ----------------------------------------------------------------------
CHAIN_SQL = "SELECT * FROM r, s, t WHERE r.a = s.a AND |s.b - t.b| <= 1"


def chain_script():
    """r - s - t; the delete runs are on ``s`` (middle) and ``t`` (a
    leaf), never on node 0, and each purges samples that are re-drawn
    through the tree rooted at the deleted node."""
    rng = random.Random(77)
    ops = [InsertOp("r", (rng.randrange(2),)) for _ in range(5)]
    ops += [InsertOp("s", (rng.randrange(2), rng.randrange(4)))
            for _ in range(10)]
    ops += [InsertOp("t", (rng.randrange(4),)) for _ in range(8)]
    ops += [DeleteOp("s", tid) for tid in range(0, 6)]
    ops += [InsertOp("s", (rng.randrange(2), rng.randrange(4)))
            for _ in range(3)]
    ops += [DeleteOp("t", tid) for tid in range(0, 4)]
    ops += [DeleteOp("s", tid) for tid in (6, 7, 10)]
    return ops


def chain_maintainer(spec, seed):
    db = Database()
    db.create_table(TableSchema("r", [Column("a")]))
    db.create_table(TableSchema("s", [Column("a"), Column("b")]))
    db.create_table(TableSchema("t", [Column("b")]))
    return JoinSynopsisMaintainer(db, CHAIN_SQL, MaintainerConfig(
        spec=spec, engine="sjoin", seed=seed))


@pytest.mark.parametrize("spec", [SynopsisSpec.fixed_size(4),
                                  SynopsisSpec.with_replacement(4)],
                         ids=["fixed", "with-replacement"])
def test_inclusion_is_uniform_after_delete_runs_off_the_root(spec):
    ops = chain_script()
    counts = Counter()
    redraws = 0
    trials = 500
    for seed in range(trials):
        maintainer = chain_maintainer(spec, seed)
        maintainer.apply_batch(ops)
        redraws += maintainer.engine.stats.redraws
        for sample in maintainer.engine.raw_samples():
            counts[sample] += 1
    exact = sorted(map(tuple, JoinExecutor(
        maintainer.db, maintainer.query).results()))
    assert len(exact) > 4 * 2 and redraws > trials
    assert set(counts) <= set(exact)
    stat = chi_square_uniform([counts[result] for result in exact])
    assert stat < chi_square_threshold(len(exact) - 1)
