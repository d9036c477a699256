"""End-to-end AQP over HTTP: register by SQL, ingest, estimate.

The ISSUE's acceptance demo: ``POST /query`` with a 3-table FK-join
query provisions a synopsis; after >= 10k streamed ops the estimates
return COUNT and GROUP BY answers whose 95% CIs cover the ground truth
— counted from the schema, and checked against a brute-force
enumeration at a small size — on the leader and on a WAL-shipped
follower replica.
Also pins the HTTP error mapping (parse errors are 400s with position
info, unknown queries are 404s, follower writes are 403s).
"""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro import (
    Column,
    Database,
    DeleteOp,
    ForeignKey,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisService,
    TableSchema,
)
from repro.persist import PersistentManager
from repro.replicate import FollowerService, WalShipper
from repro.service import ServiceHTTPServer
from repro.query.executor import JoinExecutor
from repro.query.parser import parse_query

FK_SQL = ("SELECT * FROM fact, dim, other "
          "WHERE fact.f_dim = dim.d_id AND dim.band = other.band")

N_OPS = 10_500
N_TRIALS = 3
SAMPLE_SIZE = 400


def fk_db():
    db = Database()
    db.create_table(TableSchema(
        "dim", [Column("d_id"), Column("band")], primary_key=("d_id",)))
    db.create_table(TableSchema(
        "fact", [Column("f_dim"), Column("val")],
        foreign_keys=(ForeignKey(("f_dim",), "dim", ("d_id",)),)))
    db.create_table(TableSchema("other", [Column("band"), Column("z")]))
    return db


def get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def http_error(callable_):
    with pytest.raises(urllib.error.HTTPError) as err:
        callable_()
    payload = json.loads(err.value.read())
    return err.value, payload


def stream_ops(service, rng, n=N_OPS):
    """Mixed inserts/deletes: dims first, then facts/others with
    occasional fact deletions."""
    dim_rows = [(d, d % 5) for d in range(80)]
    ops = [InsertOp("dim", row) for row in dim_rows]
    live_facts = []
    next_fact_tid = 0
    while len(ops) < n:
        roll = rng.random()
        if roll < 0.05 and live_facts:
            tid = live_facts.pop(rng.randrange(len(live_facts)))
            ops.append(DeleteOp("fact", tid))
        elif roll < 0.60:
            ops.append(InsertOp(
                "fact", (rng.randrange(80), rng.randrange(10))))
            live_facts.append(next_fact_tid)
            next_fact_tid += 1
        else:
            ops.append(InsertOp(
                "other", (rng.randrange(5), rng.randrange(10))))
    total = 0
    for start in range(0, len(ops), 500):
        result = service.apply_batch(ops[start:start + 500])
        total += result.inserted + result.deleted
    return len(ops)


def ground_truth(db):
    """Per-band counts of results with fact.val <= 4, counted from the
    schema: a fact joins exactly its dim (an FK) and every other of
    that dim's band, so band b holds facts(val <= 4, band b) x others(b)
    results."""
    band_of = {d_id: band for _, (d_id, band) in db.table("dim").scan()}
    facts, others = {}, {}
    for _, (f_dim, val) in db.table("fact").scan():
        if val <= 4:
            band = band_of[f_dim]
            facts[band] = facts.get(band, 0) + 1
    for _, (band, _z) in db.table("other").scan():
        others[band] = others.get(band, 0) + 1
    per_band = {band: count * others[band]
                for band, count in facts.items() if band in others}
    return sum(per_band.values()), per_band


def enumerated_truth(db):
    """:func:`ground_truth` by brute force: every join result visited."""
    query = parse_query(FK_SQL, db)
    fact, dim = db.table("fact"), db.table("dim")
    per_band = {}
    total = 0
    for f_tid, d_tid, _ in JoinExecutor(db, query).results():
        if fact.peek(f_tid)[1] <= 4:
            total += 1
            band = dim.peek(d_tid)[1]
            per_band[band] = per_band.get(band, 0) + 1
    return total, per_band


def test_counted_truth_is_the_enumerated_truth():
    db = fk_db()
    stream_ops(SynopsisManager(db, MaintainerConfig(seed=7)),
               random.Random(7), n=600)
    total, per_band = ground_truth(db)
    assert total > 1000 and len(per_band) == 5
    assert (total, per_band) == enumerated_truth(db)


WHERE = [{"column": "fact.val", "op": "<=", "value": 4}]


def coverage_checks(base, truth_total, truth_bands):
    """Yield (covered, label) for every CI the demo checks at ``base``."""
    for trial in range(N_TRIALS):
        name = f"stars{trial}"
        status, count = post(base + f"/query/{name}/estimate",
                             {"agg": "count", "where": WHERE})
        assert status == 200
        assert count["ci"] is not None
        lo, hi = count["ci"]
        yield lo <= truth_total <= hi, f"{name} count"
        status, grouped = post(
            base + f"/query/{name}/estimate",
            {"agg": "count", "where": WHERE, "group_by": "dim.band"})
        assert status == 200
        assert grouped["group_by"] == "dim.band"
        for g in grouped["groups"]:
            assert g["ci"] is not None
            lo, hi = g["ci"]
            truth = truth_bands.get(g["key"], 0)
            yield lo <= truth <= hi, f"{name} band={g['key']}"


@pytest.fixture(scope="module")
def leader(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("aqp-e2e")
    db = fk_db()
    pm = PersistentManager(
        SynopsisManager(db, MaintainerConfig(seed=99)),
        str(tmp_path / "leader"))
    service = SynopsisService(pm)
    server = ServiceHTTPServer(service, port=0).start()
    host, port = server.address
    base = f"http://{host}:{port}"
    # register the demo queries over HTTP, then stream the workload
    for trial in range(N_TRIALS):
        status, body = post(base + "/query", {
            "sql": FK_SQL, "name": f"stars{trial}",
            "size": SAMPLE_SIZE, "seed": 1000 + trial})
        assert status == 200
        assert body["name"] == f"stars{trial}"
        assert body["family"] == "uniform"
    streamed = stream_ops(service, random.Random(42))
    assert streamed >= 10_000
    yield db, pm, service, base, str(tmp_path)
    server.stop()
    service.close()
    pm.close()


@pytest.fixture(scope="module")
def truth(leader):
    """The streamed database's truth, once: nothing writes after the
    stream."""
    return ground_truth(leader[0])


class TestLeaderE2E:
    def test_register_provisions_synopsis(self, leader):
        db, pm, service, base, _ = leader
        status, body = get(base + "/queries")
        names = [q["name"] for q in body["queries"]]
        assert names == [f"stars{t}" for t in range(N_TRIALS)]
        for q in body["queries"]:
            assert q["sql"] == FK_SQL
            assert 0 < q["sample_size"] <= SAMPLE_SIZE
            assert q["total_results"] > 0

    def test_count_and_groupby_cis_cover_truth(self, leader, truth):
        db, pm, service, base, _ = leader
        truth_total, truth_bands = truth
        assert truth_total > 0 and len(truth_bands) == 5
        checks = list(coverage_checks(base, truth_total, truth_bands))
        covered = sum(1 for ok, _ in checks if ok)
        missed = [label for ok, label in checks if not ok]
        assert covered >= 0.9 * len(checks), \
            f"CIs missed truth: {missed} ({covered}/{len(checks)})"

    def test_estimates_are_epoch_stamped(self, leader):
        db, pm, service, base, _ = leader
        status, body = post(base + "/query/stars0/estimate", {})
        assert status == 200
        assert body["epoch"] == service.epoch
        assert body["agg"] == "count"
        assert body["family"] == "uniform"


class TestFollowerE2E:
    @pytest.fixture(scope="class")
    def follower(self, leader):
        db, pm, service, base, tmp = leader
        pm.checkpoint()
        shipper = WalShipper(tmp + "/leader", tmp + "/ship")
        shipper.ship_once()
        replica = FollowerService(tmp + "/ship", leader_url=base)
        assert replica.bootstrapped
        server = ServiceHTTPServer(replica, port=0).start()
        host, port = server.address
        yield replica, f"http://{host}:{port}"
        server.stop()
        replica.close()

    def test_leader_registrations_replay_onto_replica(self, leader,
                                                      follower):
        replica, fbase = follower
        status, body = get(fbase + "/queries")
        names = [q["name"] for q in body["queries"]]
        assert names == [f"stars{t}" for t in range(N_TRIALS)]

    def test_follower_estimates_match_leader(self, leader, follower):
        db, pm, service, base, _ = leader
        replica, fbase = follower
        for payload in ({"agg": "count", "where": WHERE},
                        {"agg": "count", "group_by": "dim.band"},
                        {"agg": "sum", "column": "fact.val"}):
            _, on_leader = post(base + "/query/stars0/estimate", payload)
            _, on_replica = post(fbase + "/query/stars0/estimate",
                                 payload)
            # same sample replayed from the WAL: identical answers
            on_leader.pop("epoch"), on_replica.pop("epoch")
            assert on_leader == on_replica

    def test_follower_cis_cover_truth(self, leader, follower, truth):
        db, pm, service, base, _ = leader
        replica, fbase = follower
        truth_total, truth_bands = truth
        checks = list(coverage_checks(fbase, truth_total, truth_bands))
        covered = sum(1 for ok, _ in checks if ok)
        assert covered >= 0.9 * len(checks)

    def test_follower_register_403_with_leader_location(self, leader,
                                                        follower):
        db, pm, service, base, _ = leader
        replica, fbase = follower
        err, payload = http_error(lambda: post(fbase + "/query", {
            "sql": FK_SQL, "name": "nope"}))
        assert err.code == 403
        assert payload["leader_url"] == base
        assert err.headers["Location"] == base


class TestErrorMapping:
    def test_parse_error_is_400_with_position(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(lambda: post(base + "/query", {
            "sql": "SELECT * FROM fact, dim WHERE ???"}))
        assert err.code == 400
        assert payload["position"] == 30
        assert payload["token"] == "?"
        assert "position 30" in payload["error"]

    def test_unknown_table_is_400(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(lambda: post(base + "/query", {
            "sql": "SELECT * FROM nope, dim WHERE nope.a = dim.d_id"}))
        assert err.code == 400
        assert "nope" in payload["error"]

    def test_bad_weight_column_is_400(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(lambda: post(base + "/query", {
            "sql": FK_SQL, "weight_column": "fact.nope"}))
        assert err.code == 400
        assert "fact.nope" in payload["error"]

    def test_unknown_query_is_404(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(
            lambda: post(base + "/query/ghost/estimate", {}))
        assert err.code == 404
        assert "ghost" in payload["error"]

    def test_duplicate_name_is_409(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(lambda: post(base + "/query", {
            "sql": FK_SQL, "name": "stars0"}))
        assert err.code == 409
        assert "already registered" in payload["error"]

    def test_bad_aggregate_is_400(self, leader):
        db, pm, service, base, _ = leader
        err, payload = http_error(
            lambda: post(base + "/query/stars0/estimate",
                         {"agg": "median"}))
        assert err.code == 400

    def test_mistyped_request_is_400_naming_the_offence(self, leader):
        db, pm, service, base, _ = leader
        for body, named in (
            ({"agg": "count", "where": [{"column": "fact.val", "op": "<=",
                                         "value": "ten"}]},
             "fact.val (int) with 'ten'"),
            ({"agg": "count", "where": "fact.val <= 4"}, "where"),
            ({"agg": "count", "confidence": "high"}, "high"),
        ):
            err, payload = http_error(
                lambda: post(base + "/query/stars0/estimate", body))
            assert err.code == 400
            assert named in payload["error"]

    @pytest.mark.parametrize("op", ["<=", "!="])
    def test_nan_literal_is_400(self, leader, op):
        """``json.loads`` takes a bare ``NaN`` token; the estimate must
        refuse it, not answer 0 or J with a zero-width interval."""
        db, pm, service, base, _ = leader
        body = ('{"agg": "count", "where": [{"column": "fact.val", '
                f'"op": "{op}", "value": NaN}}]}}').encode("utf-8")
        req = urllib.request.Request(
            base + "/query/stars0/estimate", data=body,
            headers={"Content-Type": "application/json"})
        err, payload = http_error(
            lambda: urllib.request.urlopen(req, timeout=30))
        assert err.code == 400
        assert "NaN" in payload["error"]


class TestCLI:
    def test_query_subcommand_round_trip(self, leader, capsys):
        from repro.cli import main

        db, pm, service, base, _ = leader
        main(["query", "list", "--url", base])
        listed = json.loads(capsys.readouterr().out)
        assert [q["name"] for q in listed["queries"]][:1] == ["stars0"]
        main(["query", "estimate", "stars0", "--url", base,
              "--agg", "count", "--where", json.dumps(WHERE)])
        answer = json.loads(capsys.readouterr().out)
        assert answer["agg"] == "count"
        assert answer["ci"] is not None

    def test_query_register_and_parse_error_exit(self, leader, capsys):
        from repro.cli import main

        db, pm, service, base, _ = leader
        main(["query", "register", "--url", base,
              "--sql", FK_SQL, "--name", "cli-q", "--size", "64"])
        body = json.loads(capsys.readouterr().out)
        assert body["name"] == "cli-q"
        with pytest.raises(SystemExit):
            main(["query", "register", "--url", base, "--sql", "???"])
