"""One read record per query: a served registry answers from one view.

A serving role — the leader's ``SynopsisService`` or a follower replica
— publishes one immutable ``ReadView`` per micro-batch, holding one
``Snapshot`` per registered query.  Every read the AQP registry makes
on a served target (names, membership, adoption, engine, schemas,
snapshots) goes through that view and never through the manager behind
it, so:

* a registration the role has applied but not yet published does not
  exist for readers — ``/queries`` still lists the previous set and
  ``/query/<new>/estimate`` is a 404, on the leader and on a follower
  replaying the ``register`` record;
* a registry over a role whose ``target`` cannot be read at all still
  answers everything;
* an unbootstrapped follower answers as it always has.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import (
    Column,
    Database,
    InsertOp,
    MaintainerConfig,
    SynopsisManager,
    SynopsisService,
    SynopsisSpec,
    TableSchema,
)
from repro.errors import ServiceError
from repro.persist import PersistentManager
from repro.replicate import FollowerService, WalShipper
from repro.service import LocalServiceClient, ServiceHTTPServer
from repro.service import runtime

SQL = "SELECT * FROM r, s WHERE r.k = s.k"
CONFIG = MaintainerConfig(spec=SynopsisSpec.fixed_size(10), seed=2)
ROWS = [InsertOp("r", (k % 3, k)) for k in range(12)] + \
    [InsertOp("s", (k,)) for k in range(3)]


def make_manager():
    db = Database()
    db.create_table(TableSchema("r", [Column("k"), Column("v")]))
    db.create_table(TableSchema("s", [Column("k")]))
    manager = SynopsisManager(db, MaintainerConfig(seed=1))
    manager.register("old", SQL, CONFIG)
    manager.apply_batch(ROWS)
    return manager


def make_follower(tmp_path):
    """A durable leader holding ``old`` and its shipper, and a follower
    bootstrapped from them."""
    leader = PersistentManager(make_manager(), str(tmp_path / "leader"),
                               sync="never")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    return leader, shipper, FollowerService(str(tmp_path / "ship"))


class Gate:
    """Stands in for ``call``: records that a caller arrived, then holds
    it until released."""

    def __init__(self, call):
        self.call = call
        self.entered = threading.Event()
        self.released = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.released.wait(30)
        return self.call(*args, **kwargs)


def estimate_status(base, name):
    req = urllib.request.Request(
        f"{base}/query/{name}/estimate", data=json.dumps({}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


def assert_reads_agree_with_the_published_view(role, gate, apply):
    """Run ``apply`` (which registers ``new`` and publishes through
    ``gate``) on a second thread; while it is held between apply and
    publish, every read still sees the previous view."""
    client = LocalServiceClient(role)
    before = client.queries()
    assert [q["name"] for q in before["queries"]] == ["old"]
    server = ServiceHTTPServer(role, port=0).start()
    host, port = server.address
    worker = threading.Thread(target=apply)
    worker.start()
    try:
        assert gate.entered.wait(30)
        assert "new" in role.target.names()     # applied ...
        assert client.queries() == before       # ... but not published
        assert "new" not in client.registry
        assert estimate_status(f"http://{host}:{port}", "new") == 404
    finally:
        gate.released.set()
        worker.join(30)
        server.stop()
    assert [q["name"] for q in client.queries()["queries"]] == \
        ["new", "old"]
    assert "new" in client.registry


def test_a_leader_registration_is_read_only_once_published(monkeypatch):
    with SynopsisService(make_manager()) as service:
        gate = Gate(runtime.build_view)
        monkeypatch.setattr(runtime, "build_view", gate)
        assert_reads_agree_with_the_published_view(
            service, gate, lambda: service.register("new", SQL, CONFIG))


def test_a_replayed_registration_is_read_only_once_published(
        tmp_path, monkeypatch):
    leader, shipper, follower = make_follower(tmp_path)
    try:
        leader.register("new", SQL, CONFIG)
        shipper.ship_once()
        gate = Gate(follower._publish_view)
        monkeypatch.setattr(follower, "_publish_view", gate)
        assert_reads_agree_with_the_published_view(
            follower, gate, follower.catch_up)
        assert follower.replayed_records == 1
    finally:
        follower.close()
        leader.close()


class Unreadable:
    """A stand-in target that fails on any attribute read."""

    def __getattribute__(self, attr):
        raise AssertionError(f"the registry read target.{attr}")


@pytest.mark.parametrize("role_name", ["leader", "follower"])
def test_a_served_registry_never_reads_the_live_target(tmp_path,
                                                       role_name):
    if role_name == "leader":
        leader, role = None, SynopsisService(make_manager())
    else:
        leader, _, role = make_follower(tmp_path)
    live = role.target
    role.target = Unreadable()
    try:
        client = LocalServiceClient(role)
        registry = client.registry
        view = role.view()
        assert registry.names() == ["old"]
        assert "old" in registry and "nope" not in registry
        assert registry.database() is view.db is live.db
        assert registry.fk_optimized("old")
        # the record the view holds, not one assembled for the call
        assert registry.snapshot_of("old") is view.queries["old"]
        handle = registry.get("old")        # adopted from record.sql
        assert handle.sql == SQL
        count = handle.estimate("count")
        assert count["total_results"] == view.queries["old"].total == 12
        assert count["epoch"] == view.epoch
        assert handle.estimate("sum", column="r.v", where=[
            {"column": "s.k", "op": "=", "value": 1}])["sample_size"] == 10
        assert handle.describe()["sql"] == SQL
        assert "r" in handle.explain()
        assert client.queries() == {"queries": [handle.describe()]}
        assert client.estimate("old")["value"] == count["value"]
    finally:
        role.target = live
        role.close()
        if leader is not None:
            leader.close()


def test_an_unbootstrapped_follower_answers_as_before(tmp_path):
    follower = FollowerService(str(tmp_path / "nothing-shipped"))
    try:
        client = LocalServiceClient(follower)
        with pytest.raises(ServiceError, match="not bootstrapped"):
            client.queries()
        with pytest.raises(ServiceError, match="not bootstrapped"):
            client.estimate("old")
        assert "old" not in client.registry
    finally:
        follower.close()
