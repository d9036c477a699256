"""The SQL front door (repro.aqp) and the hardened estimators.

Covers the registry over a bare manager and over a service, the
family-dispatched estimation (uniform / weighted / subset), the typed
parse/plan errors, spec provisioning from plans, and the degenerate
estimator semantics pinned by docs/sql.md.
"""

import math
import operator
import random

import pytest

from repro import (
    Column,
    Database,
    DataType,
    InsertOp,
    JoinExecutor,
    MaintainerConfig,
    QueryRegistry,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.aqp import Snapshot, estimate_from_snapshot
from repro.aqp.estimation import (
    Estimate,
    _count,
    _hansen_hurwitz,
    _horvitz_thompson,
    _mean,
    _ratio,
    _sum,
    _zscore,
)
from repro.aqp.registry import spec_for_plan
from repro.errors import (
    InvalidArgumentError,
    PlanError,
    QueryParseError,
    SynopsisError,
)
from repro.persist import PersistentManager
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.replicate import FollowerService, WalShipper

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def make_db():
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    return db


def loaded_manager(spec=None, n=6):
    """A manager with ``q`` registered and ``n`` matching pairs."""
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    manager = SynopsisManager(db, MaintainerConfig(seed=7))
    manager.register("q", SQL, MaintainerConfig(
        spec=spec or SynopsisSpec.fixed_size(50)))
    manager.apply_batch(
        [InsertOp("r", (a, a * 10)) for a in range(n)]
        + [InsertOp("s", (a, a % 2)) for a in range(n)])
    return db, manager


# ---------------------------------------------------------------------------
# satellite: degenerate estimator semantics
# ---------------------------------------------------------------------------
class TestDegenerateEstimators:
    def test_count_empty_population_is_exact_zero(self):
        est = _count(0, 0, 0)
        assert est == Estimate(0.0, 0.0)
        assert est.ci() == (0.0, 0.0)

    def test_count_empty_sample_nonempty_population(self):
        est = _count(0, 0, 100)
        assert est.value == 0.0
        assert math.isinf(est.stderr)
        assert est.ci() is None

    def test_sum_degenerates_like_count(self):
        assert _sum([], 0) == Estimate(0.0, 0.0)
        est = _sum([], 9)
        assert est.ci() is None

    def test_single_sample_zero_variance(self):
        est = _sum([4], 10)
        assert est.value == 40.0
        assert est.stderr == 0.0
        lo, hi = est.ci(0.99)
        assert lo == hi == 40.0

    def test_avg_of_nothing_is_undefined(self):
        est = _mean([])
        assert math.isnan(est.value)
        assert est.ci() is None

    def test_avg_fully_filtered_out(self):
        est = _mean([s for s in [1, 2, 3] if s > 99])
        assert math.isnan(est.value)
        assert est.ci() is None

    def test_hansen_hurwitz_degenerates(self):
        # a weight is checked once, when its entry is made
        # (tests/test_view_publication.py), not per draw here
        assert _hansen_hurwitz([], [], 0, 0) == Estimate(0.0, 0.0)
        est = _hansen_hurwitz([], [], 25, 0)
        assert est.value == 0.0 and est.ci() is None
        # none of three draws kept: an exact zero, not an empty sample
        assert _hansen_hurwitz([], [], 25, 3) == Estimate(0.0, 0.0)
        assert _hansen_hurwitz(None, [], 25, 3) == Estimate(0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            _hansen_hurwitz([1.0], [1.0], 25, 0)
        with pytest.raises(InvalidArgumentError):
            _hansen_hurwitz(None, [1, 2], 25, 1)

    def test_hansen_hurwitz_exact_on_weight_itself(self):
        # each draw contributes W * w_i / w_i == W: zero variance
        est = _hansen_hurwitz([2, 5], [2, 5], 7.0, 2)
        assert est == Estimate(7.0, 0.0)
        # a COUNT (no values) reads W / w_i per draw
        assert _hansen_hurwitz(None, [2, 5], 10, 2) == \
            _hansen_hurwitz([1.0, 1.0], [2.0, 5.0], 10, 2)

    def test_horvitz_thompson_degenerates(self):
        # an inclusion probability is checked once, when its entry is
        # made (tests/test_view_publication.py), not per draw here
        est = _horvitz_thompson([], [], 0)
        assert est.value == 0.0 and est.ci() is None
        assert _horvitz_thompson([], [], 4) == Estimate(0.0, 0.0)
        assert _horvitz_thompson(None, [], 4) == Estimate(0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            _horvitz_thompson([1.0, 2.0], [0.5, 0.5], 1)
        with pytest.raises(InvalidArgumentError):
            _horvitz_thompson(None, [0.5, 0.5], 1)

    def test_horvitz_thompson_certain_inclusion_is_exact(self):
        est = _horvitz_thompson([3, 4], [1.0, 1.0], 2)
        assert est == Estimate(7.0, 0.0)
        # a COUNT (no values) reads 1 / pi_i per draw
        assert _horvitz_thompson(None, [0.5, 0.25], 2) == \
            _horvitz_thompson([1.0, 1.0], [0.5, 0.25], 2)

    @staticmethod
    def unread_residual(r):
        raise AssertionError("a degenerate ratio has no residual to read")

    def test_ratio_estimate_zero_denominator(self):
        est = _ratio(Estimate(5.0, 1.0), Estimate(0.0, 0.0),
                     self.unread_residual)
        assert math.isnan(est.value)
        assert est.ci() is None

    def test_ratio_estimate_infinite_inputs_keep_point(self):
        est = _ratio(Estimate(6.0, float("inf")), Estimate(2.0, 0.0),
                     self.unread_residual)
        assert est.value == 3.0
        assert est.ci() is None

    def test_zscore_validation(self):
        assert abs(_zscore(0.95) - 1.96) < 0.005
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidArgumentError):
                _zscore(bad)


# ---------------------------------------------------------------------------
# spec provisioning from plans
# ---------------------------------------------------------------------------
class TestSpecForPlan:
    def plan(self):
        db = make_db()
        return plan_query(parse_query(SQL, db), db)

    def test_default_is_fixed_uniform(self):
        spec = spec_for_plan(self.plan(), size=77)
        assert spec.size == 77
        assert spec == SynopsisSpec.fixed_size(77)

    def test_weight_column_switches_family(self):
        spec = spec_for_plan(self.plan(), size=10, weight_column="r.x")
        assert spec == SynopsisSpec.weighted_with_replacement(10, "r.x")

    def test_bad_weight_column_shapes(self):
        plan = self.plan()
        with pytest.raises(PlanError, match="alias.attr"):
            spec_for_plan(plan, weight_column="x")
        with pytest.raises(PlanError, match="unknown alias"):
            spec_for_plan(plan, weight_column="t.x")
        with pytest.raises(PlanError, match="no column"):
            spec_for_plan(plan, weight_column="r.nope")


# ---------------------------------------------------------------------------
# the registry over a bare manager
# ---------------------------------------------------------------------------
class TestRegistryOnManager:
    def test_register_and_estimate_count(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        q = registry.get("q")
        payload = q.estimate("count")
        # sample covers the whole join: the count is exact
        assert payload["value"] == 6
        assert payload["stderr"] == 0.0
        assert payload["ci"] == [6.0, 6.0]
        assert payload["family"] == "uniform"
        assert payload["total_results"] == 6
        assert payload["name"] == "q"
        assert "epoch" not in payload

    def test_register_by_sql_provisions_synopsis(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        registry = QueryRegistry(manager)
        q = registry.register(SQL, "orders", size=5)
        assert q.name == "orders"
        assert manager.names() == ["orders"]
        assert manager.maintainer("orders").requested_spec.size == 5
        assert "orders" in registry
        assert registry.names() == ["orders"]

    def test_auto_names_skip_taken(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=1))
        manager.register("q1", SQL)
        registry = QueryRegistry(manager)
        q = registry.register(SQL)
        assert q.name == "q2"

    def test_duplicate_name_rejected(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        with pytest.raises(SynopsisError, match="already registered"):
            registry.register(SQL, "q")

    def test_unknown_query_lists_known(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        with pytest.raises(SynopsisError, match="known: \\['q'\\]"):
            registry.get("nope")
        assert "nope" not in registry

    def test_parse_error_carries_position(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        with pytest.raises(QueryParseError) as err:
            registry.register("SELECT * FROM r, s WHERE ???")
        assert err.value.position == 25
        assert err.value.sql.startswith("SELECT")

    def test_where_filter(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        payload = registry.get("q").estimate("count", where=[
            {"column": "s.y", "op": "=", "value": 0}])
        assert payload["value"] == 3  # a in {0, 2, 4}

    def test_sum_and_avg(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        q = registry.get("q")
        total = q.estimate("sum", column="r.x")
        assert total["value"] == sum(a * 10 for a in range(6))
        avg = q.estimate("avg", column="r.x")
        assert avg["value"] == pytest.approx(25.0)

    def test_sum_requires_column(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        with pytest.raises(InvalidArgumentError, match="column"):
            registry.get("q").estimate("sum")

    def test_unknown_aggregate_rejected(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        with pytest.raises(InvalidArgumentError, match="median"):
            registry.get("q").estimate("median")

    def test_group_by(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        payload = registry.get("q").estimate("count", group_by="s.y")
        assert payload["group_by"] == "s.y"
        groups = {g["key"]: g["value"] for g in payload["groups"]}
        assert groups == {0: 3, 1: 3}
        for g in payload["groups"]:
            assert g["ci"] is not None

    def test_describe_and_explain(self):
        db, manager = loaded_manager()
        registry = QueryRegistry(manager)
        q = registry.get("q")
        desc = q.describe()
        assert desc["name"] == "q" and desc["sql"] == SQL
        assert desc["family"] == "uniform"
        assert desc["total_results"] == 6
        assert q.explain() == q.explain()  # deterministic
        assert registry.describe_all() == [desc]


# ---------------------------------------------------------------------------
# request errors: typed, and the same on an empty and a full synopsis
# ---------------------------------------------------------------------------
TYPED_SQL = "SELECT * FROM t, u WHERE t.k = u.k"


def typed_registry(rows):
    """``t(k INT, name STR, qty INT NULL, ok BOOL, price FLOAT)``
    joined with ``u(k)``; ``rows`` matching pairs, every third ``qty``
    NULL."""
    db = Database()
    db.create_table(TableSchema("t", [
        Column("k"), Column("name", DataType.STR),
        Column("qty", nullable=True), Column("ok", DataType.BOOL),
        Column("price", DataType.FLOAT)]))
    db.create_table(TableSchema("u", [Column("k")]))
    manager = SynopsisManager(db, MaintainerConfig(seed=4))
    manager.register("q", TYPED_SQL, MaintainerConfig(
        spec=SynopsisSpec.fixed_size(50)))
    manager.apply_batch(
        [InsertOp("t", (k, f"n{k}", None if k % 3 == 0 else k,
                        k % 2 == 0, k / 2))
         for k in range(rows)]
        + [InsertOp("u", (k,)) for k in range(rows)])
    return QueryRegistry(manager).get("q")


@pytest.mark.parametrize("rows", [0, 12], ids=["empty", "full"])
class TestRequestErrors:
    @pytest.mark.parametrize("ref, value", [
        ("t.qty", "ten"), ("t.k", "3"), ("t.k", None), ("t.k", True),
        ("t.price", "cheap"), ("t.name", 7), ("t.ok", 1), ("t.k", [1]),
    ])
    @pytest.mark.parametrize("op", ["<=", "="])
    def test_where_value_must_fit_the_column(self, rows, ref, value, op):
        with pytest.raises(InvalidArgumentError) as err:
            typed_registry(rows).estimate("count", where=[
                {"column": ref, "op": op, "value": value}])
        assert ref in str(err.value) and repr(value) in str(err.value)

    @pytest.mark.parametrize("agg", ["sum", "avg"])
    @pytest.mark.parametrize("ref", ["t.name", "t.ok"])
    def test_sum_and_avg_need_a_numeric_column(self, rows, agg, ref):
        with pytest.raises(InvalidArgumentError, match=ref):
            typed_registry(rows).estimate(agg, column=ref)
        with pytest.raises(InvalidArgumentError, match=ref):
            typed_registry(rows).estimate(agg, column=ref,
                                          group_by="t.k")

    @pytest.mark.parametrize("confidence", ["high", "0.9", None, [0.9]])
    def test_confidence_must_be_a_number(self, rows, confidence):
        with pytest.raises(InvalidArgumentError, match="confidence"):
            typed_registry(rows).estimate("count", confidence=confidence)

    @pytest.mark.parametrize("where", [
        7, "t.k <= 3", {"column": "t.k", "op": "<=", "value": 3}])
    def test_where_must_be_a_list(self, rows, where):
        with pytest.raises(InvalidArgumentError, match="where"):
            typed_registry(rows).estimate("count", where=where)

    @pytest.mark.parametrize("ref", [7, ["t.k"], "k"])
    def test_column_references_must_be_alias_dot_attr(self, rows, ref):
        q = typed_registry(rows)
        with pytest.raises(InvalidArgumentError, match="alias.attr"):
            q.estimate("count", group_by=ref)
        with pytest.raises(InvalidArgumentError, match="alias.attr"):
            q.estimate("count", where=[
                {"column": ref, "op": "=", "value": 1}])

    @pytest.mark.parametrize("ref", ["t.qty", "t.k", "t.price"])
    @pytest.mark.parametrize("op", ["<=", "!=", "="])
    def test_nan_literal_is_refused(self, rows, ref, op):
        # every comparison with NaN is False (!= is True): answering
        # would claim 0 or J exactly, with a zero-width interval
        with pytest.raises(InvalidArgumentError, match="NaN") as err:
            typed_registry(rows).estimate("count", where=[
                {"column": ref, "op": op, "value": float("nan")}])
        assert ref in str(err.value)

    def test_infinite_literals_answer(self, rows):
        q = typed_registry(rows)
        inf = float("inf")
        for ref, op, value in (("t.price", "<=", inf), ("t.k", ">", -inf),
                               ("t.k", "<", -inf)):
            payload = q.estimate("count", where=[
                {"column": ref, "op": op, "value": value}])
            assert payload["sample_size"] == rows
            assert payload["value"] == (0 if op == "<" else rows)

    def test_well_typed_requests_answer(self, rows):
        q = typed_registry(rows)
        for where in ([{"column": "t.price", "op": "<", "value": 3}],
                      [{"column": "t.k", "op": ">=", "value": 2.5}],
                      [{"column": "t.name", "op": "=", "value": "n1"}],
                      [{"column": "t.ok", "op": "!=", "value": False}],
                      ()):
            payload = q.estimate("count", where=where)
            assert payload["sample_size"] == rows
        assert q.estimate("sum", column="t.price")["value"] == \
            sum(k / 2 for k in range(rows))
        assert q.estimate("count", column="t.name")["column"] == "t.name"


class TestNulls:
    """NULLs follow SQL: a NULL satisfies no condition and is left out
    of SUM/AVG (k = 0, 3, 6, 9 hold a NULL ``qty``)."""

    def test_a_null_satisfies_no_condition(self):
        q = typed_registry(12)
        count = {op: q.estimate("count", where=[
            {"column": "t.qty", "op": op, "value": 4}])["value"]
            for op in ("<", "=", "!=", ">=")}
        assert count == {"<": 2, "=": 1, "!=": 7, ">=": 6}

    @pytest.mark.parametrize("op", ["=", "==", "!=", "<>", "<", "<=",
                                    ">", ">="])
    def test_every_operator_over_a_nullable_column(self, op):
        compare = {"=": operator.eq, "==": operator.eq, "!=": operator.ne,
                   "<>": operator.ne, "<": operator.lt, "<=": operator.le,
                   ">": operator.gt, ">=": operator.ge}[op]
        # the synopsis holds all 12 results, so COUNT is exact
        payload = typed_registry(12).estimate("count", where=[
            {"column": "t.qty", "op": op, "value": 5}])
        assert payload["value"] == sum(
            compare(k, 5) for k in range(12) if k % 3)

    def test_nulls_are_left_out_of_sum_and_avg(self):
        q = typed_registry(12)
        kept = [k for k in range(12) if k % 3]
        assert q.estimate("sum", column="t.qty")["value"] == sum(kept)
        assert q.estimate("avg", column="t.qty")["value"] == \
            pytest.approx(sum(kept) / len(kept))
        groups = q.estimate("sum", column="t.qty", group_by="t.ok")
        assert {g["key"]: g["value"] for g in groups["groups"]} == {
            True: 2 + 4 + 8 + 10, False: 1 + 5 + 7 + 11}

    def test_null_is_a_group_key_of_its_own(self):
        payload = typed_registry(12).estimate("count", group_by="t.qty")
        groups = {g["key"]: g["value"] for g in payload["groups"]}
        assert groups[None] == 4 and len(groups) == 9

    def test_every_nan_is_one_group_on_leader_recovery_and_follower(
            self, tmp_path):
        # the WAL decode makes one NaN object per logged row: grouped by
        # object, a recovered manager or a follower would answer with a
        # group per NaN row where the leader, holding one object, has one
        db = Database()
        db.create_table(TableSchema("r", [
            Column("a"), Column("x", DataType.FLOAT)]))
        db.create_table(TableSchema("s", [Column("a")]))
        leader_dir, ship_dir = str(tmp_path / "leader"), str(tmp_path / "ship")
        leader = PersistentManager(
            SynopsisManager(db, MaintainerConfig(seed=3)), leader_dir,
            sync="never")
        leader.register("q", SQL, MaintainerConfig(
            spec=SynopsisSpec.fixed_size(50)))
        nan = float("nan")
        leader.apply_batch([InsertOp("r", (1, nan)), InsertOp("r", (1, nan)),
                            InsertOp("r", (1, 1.0)), InsertOp("s", (1,))])

        def grouped(target):
            payload = QueryRegistry(target).get("q").estimate(
                "count", group_by="r.x")
            payload.pop("epoch", None)
            return payload

        answer = grouped(leader)
        keys = [g["key"] for g in answer["groups"]]
        assert len(keys) == 2 and math.isnan(keys[0]) and keys[1] == 1.0
        assert [g["value"] for g in answer["groups"]] == [2.0, 1.0]
        WalShipper(leader_dir, ship_dir).ship_once()
        follower = FollowerService(ship_dir)
        try:
            assert grouped(follower) == answer
        finally:
            follower.close()
        leader.abandon()
        recovered = PersistentManager.recover(leader_dir, sync="never")
        try:
            assert grouped(recovered) == answer
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# family-dispatched estimation
# ---------------------------------------------------------------------------
class TestFamilies:
    def test_weighted_registration_and_sum_is_exact_on_weight(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=11))
        registry = QueryRegistry(manager)
        q = registry.register(SQL, "w", size=4, weight_column="r.x")
        manager.apply_batch(
            [InsertOp("r", (a, a + 1)) for a in range(8)]
            + [InsertOp("s", (a, a % 2)) for a in range(8)])
        desc = q.describe()
        assert desc["family"] == "weighted"
        # the weighted graph's total is W = sum of weights; summing the
        # weight column itself has zero variance under Hansen-Hurwitz
        W = sum(a + 1 for a in range(8))
        assert desc["total_results"] == W
        payload = q.estimate("sum", column="r.x")
        assert payload["value"] == pytest.approx(W)
        assert payload["stderr"] == pytest.approx(0.0)

    def test_subset_registration_and_count_covers(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=5))
        manager.register("p", SQL, MaintainerConfig(
            spec=SynopsisSpec.subset(0.5, weight_column="r.x")))
        manager.apply_batch(
            [InsertOp("r", (a, 1 + a % 3)) for a in range(40)]
            + [InsertOp("s", (a, a % 2)) for a in range(40)])
        registry = QueryRegistry(manager)
        payload = registry.get("p").estimate("count", confidence=0.99)
        assert payload["family"] == "subset"
        lo, hi = payload["ci"]
        assert lo <= 40 <= hi

    def test_empty_join_is_exact_zero_for_every_family(self):
        for spec in (SynopsisSpec.fixed_size(5),
                     SynopsisSpec.weighted_with_replacement(5, "r.x"),
                     SynopsisSpec.subset(0.5, weight_column="r.x")):
            db = make_db()
            manager = SynopsisManager(db, MaintainerConfig(seed=2))
            manager.register("e", SQL, MaintainerConfig(spec=spec))
            registry = QueryRegistry(manager)
            payload = registry.get("e").estimate("count")
            assert payload["value"] == 0.0
            assert payload["ci"] == [0.0, 0.0], spec


class TestRatioCoverage:
    """AVG on the weighted and subset families is a ratio of two totals
    that share every kept draw; its linearised standard error carries
    their covariance.  Over a seeded population (N = 2 000 results,
    weights from {1, 1, 2, 3, 5, 8}, about half of them filtered in),
    the nominal 95 % interval covers the true filtered AVG inside a
    binomial band around 0.95.  Dropping the covariance widened it to
    cover in every run."""

    N, REPS = 2000, 1000
    WHERE = [{"column": "r.x", "op": "<=", "value": 49}]

    @pytest.fixture(scope="class")
    def population(self):
        rng = random.Random(50)
        weights = [rng.choice((1, 1, 2, 3, 5, 8)) for _ in range(self.N)]
        rows = [((i, rng.randrange(100)), (i, 50 + rng.randrange(100)))
                for i in range(self.N)]
        kept = [s_row[1] for r_row, s_row in rows if r_row[1] <= 49]
        return weights, rows, sum(kept) / len(kept)

    def coverage(self, population, family, draw):
        weights, rows, truth = population
        db = make_db()
        query = parse_query(SQL, db)
        covered = 0
        for rep in range(self.REPS):
            picked, scales = draw(random.Random(rep), weights)
            snapshot = Snapshot(
                family, sum(weights) if family == "weighted" else self.N,
                tuple((i, i) for i in picked),
                tuple(weights[i] for i in picked), tuple(scales),
                tuple(rows[i] for i in picked), len(picked), SQL, "sjoin")
            lo, hi = estimate_from_snapshot(
                query, db, snapshot, "avg", column="s.y",
                where=self.WHERE)["ci"]
            covered += lo <= truth <= hi
        rate = covered / self.REPS
        band = 3.5 * math.sqrt(0.95 * 0.05 / self.REPS)
        assert abs(rate - 0.95) <= band, rate

    def test_hansen_hurwitz_avg_covers_at_its_nominal_rate(
            self, population):
        def draw(rng, weights):
            picked = rng.choices(range(self.N), weights=weights, k=200)
            return picked, [weights[i] for i in picked]

        self.coverage(population, "weighted", draw)

    def test_horvitz_thompson_avg_covers_at_its_nominal_rate(
            self, population):
        def draw(rng, weights):
            pis = [1 - 0.9 ** w for w in weights]
            picked = [i for i, pi in enumerate(pis) if rng.random() < pi]
            return picked, [pis[i] for i in picked]

        self.coverage(population, "subset", draw)


class TestResidualCoverage:
    """§5.1: on a triangle whose cycle-closing edge is a residual
    filter, every kind's 95 % CI covers the ``JoinExecutor`` truth at
    its nominal rate, for COUNT, a filtered COUNT, SUM and AVG.  The
    synopsis samples the tree join; an estimate reads the passing
    samples with n = the plan-level sample count.  Dividing by the
    passing samples instead (before 21.0) read COUNT and SUM about ×2
    high on every kind but subset, covering them in no run."""

    SQL = ("SELECT * FROM r, s, t WHERE r.a = s.a AND s.b = t.b "
           "AND t.c <= r.x")
    RUNS = 300
    REQUESTS = {
        "count": dict(agg="count"),
        "filtered count": dict(agg="count", where=[
            {"column": "r.x", "op": ">=", "value": 5}]),
        "sum": dict(agg="sum", column="r.w"),
        "avg": dict(agg="avg", column="t.c"),
    }

    @pytest.fixture(scope="class")
    def loaded(self):
        """One database (about 1 500 tree results, 55 % passing) and
        each request's truth."""
        db = Database()
        db.create_table(TableSchema(
            "r", [Column("a"), Column("x"), Column("w")]))
        db.create_table(TableSchema("s", [Column("a"), Column("b")]))
        db.create_table(TableSchema("t", [Column("b"), Column("c")]))
        rng = random.Random(1)
        manager = SynopsisManager(db, MaintainerConfig(seed=0))
        manager.apply_batch(
            [InsertOp("r", (rng.randrange(3), rng.randrange(10),
                            rng.randrange(1, 4))) for _ in range(24)]
            + [InsertOp("s", (rng.randrange(3), rng.randrange(3)))
               for _ in range(24)]
            + [InsertOp("t", (rng.randrange(3), rng.randrange(10)))
               for _ in range(24)])
        tables = [db.table(name) for name in ("r", "s", "t")]
        rows = [tuple(table.peek(tid) for table, tid in zip(tables, result))
                for result in JoinExecutor(
                    db, parse_query(self.SQL, db)).results()]
        truth = {
            "count": len(rows),
            "filtered count": sum(r[1] >= 5 for r, _, _ in rows),
            "sum": sum(r[2] for r, _, _ in rows),
            "avg": sum(t[1] for _, _, t in rows) / len(rows),
        }
        return manager, truth

    @pytest.mark.parametrize("spec", [
        SynopsisSpec.fixed_size(100),
        SynopsisSpec.with_replacement(100),
        SynopsisSpec.bernoulli(0.1),
        SynopsisSpec.weighted_with_replacement(100, "r.w"),
        SynopsisSpec.subset(0.1, "r.w"),
    ], ids=lambda spec: spec.kind)
    def test_every_kind_covers_a_residual_query(self, loaded, spec):
        manager, truth = loaded
        registry = QueryRegistry(manager)
        covered = dict.fromkeys(self.REQUESTS, 0)
        for seed in range(self.RUNS):
            manager.register("q", self.SQL,
                             MaintainerConfig(spec=spec, seed=seed))
            query = registry.get("q")
            assert query.has_residuals
            for label, request in self.REQUESTS.items():
                ci = query.estimate(**request)["ci"]
                covered[label] += ci is not None and \
                    ci[0] <= truth[label] <= ci[1]
            manager.unregister("q")
        band = 3.5 * math.sqrt(0.95 * 0.05 / self.RUNS)
        rates = {label: hits / self.RUNS for label, hits in covered.items()}
        assert all(abs(rate - 0.95) <= band for rate in rates.values()), \
            rates


# ---------------------------------------------------------------------------
# the registry over a service (epoch-consistent views)
# ---------------------------------------------------------------------------
class TestRegistryOnService:
    def test_estimates_from_published_views(self):
        db = make_db()
        manager = SynopsisManager(db, MaintainerConfig(seed=9))
        with SynopsisService(manager) as service:
            registry = QueryRegistry(service)
            q = registry.register(SQL, "live", size=50)
            service.apply_batch(
                [InsertOp("r", (a, a)) for a in range(5)]
                + [InsertOp("s", (a, a)) for a in range(5)])
            payload = q.estimate("count")
            assert payload["value"] == 5
            assert payload["epoch"] == service.epoch
            assert registry.describe_all()[0]["name"] == "live"
