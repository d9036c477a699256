"""Leader/follower differential identity.

The replication design claim (mirroring the paper's determinism
argument): logical replay from a shipped snapshot reproduces the
leader's state *bit-identically* — not just the same sample
distribution, the very same synopsis rows AND the very same RNG stream.
So at every matched epoch (follower ``applied_lsn`` == leader WAL
position) the two sides must agree exactly.

The suite drives >= 10_000 operations through a persistent leader,
ships continuously, and checks identity at every matched epoch; plus a
staleness-bound property under paused shipping (injectable clocks) and
a multi-follower fan-out test.
"""

import random

from repro import Database, SynopsisSpec
from repro.core.config import MaintainerConfig
from repro.core.manager import SynopsisManager
from repro.persist import PersistentManager
from repro.replicate import FollowerService, WalShipper

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s, t WHERE r.c0 = s.c0 AND s.c1 = t.c0"


def make_db():
    db = Database()
    make_tables(db, [("r", 2), ("s", 2), ("t", 2)])
    return db


def make_leader(directory, seed=7, segment_max_bytes=4096):
    manager, _ = single_query(
        make_db(), SQL,
        MaintainerConfig(spec=SynopsisSpec.fixed_size(64), seed=seed))
    return PersistentManager(manager, str(directory),
                             segment_max_bytes=segment_max_bytes)


def leader_fingerprint(pm):
    """Everything that must be bit-identical on a follower at this LSN."""
    return {
        "lsn": pm.wal.next_lsn,
        "synopsis": [tuple(r) for r in pm.synopsis(QUERY)],
        "total": pm.total_results(QUERY),
        "rng": pm.maintainer(QUERY).engine.rng.getstate(),
    }


def follower_fingerprint(f):
    return {
        "lsn": f.applied_lsn,
        "synopsis": f.synopsis(),
        "total": f.total_results(),
        "rng": f.target.maintainer(QUERY).engine.rng.getstate(),
    }


def drive(pm, rng, n, live, domain=8):
    for _ in range(n):
        alias = rng.choice(["r", "s", "t"])
        if live[alias] and rng.random() < 0.35:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            pm.delete(alias, tid)
        else:
            tid = pm.insert(
                alias, (rng.randrange(domain), rng.randrange(domain)))
            if tid >= 0:
                live[alias].append(tid)


def test_differential_identity_over_10k_ops(tmp_path):
    """>= 10k ops; at EVERY matched epoch the follower is bit-identical
    to the leader: same synopsis rows, same totals, same RNG stream."""
    pm = make_leader(tmp_path / "leader")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    follower = FollowerService(str(tmp_path / "ship"))

    rng = random.Random(1234)
    live = {"r": [], "s": [], "t": []}
    total_ops = 0
    matched_epochs = 0
    rng_states_seen = []
    for round_no in range(100):
        drive(pm, rng, 100, live)
        total_ops += 100
        # exercise checkpoints (leader snapshot + WAL truncation) at
        # irregular points so follower re-bootstrap paths run too
        if round_no in (17, 54, 81):
            pm.checkpoint()
        shipper.ship_once()
        want = leader_fingerprint(pm)
        follower.catch_up()
        got = follower_fingerprint(follower)
        # the leader is quiescent between drive() calls, so this IS a
        # matched epoch: applied_lsn must equal the leader WAL position
        assert got["lsn"] == want["lsn"]
        assert got["synopsis"] == want["synopsis"], \
            f"synopsis diverged at epoch {want['lsn']}"
        assert got["total"] == want["total"]
        assert got["rng"] == want["rng"], \
            f"RNG stream diverged at epoch {want['lsn']}"
        matched_epochs += 1
        rng_states_seen.append(got["rng"])
    assert total_ops >= 10_000
    assert matched_epochs == 100
    # the RNG stream really advanced (the identity is not vacuous)
    assert len({state[1] for state in rng_states_seen}) > 1
    # a leader checkpoint pruned segments past the follower at least
    # once, forcing the re-bootstrap path — make sure it actually ran
    assert follower.bootstraps >= 2
    follower.stop()
    pm.close()


def test_identity_survives_follower_restart_mid_stream(tmp_path):
    """A replacement follower (fresh bootstrap) reaches the same
    bit-identical state as one that tailed the whole stream."""
    pm = make_leader(tmp_path / "leader")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    rng = random.Random(99)
    live = {"r": [], "s": [], "t": []}
    drive(pm, rng, 300, live)
    shipper.ship_once()
    veteran = FollowerService(str(tmp_path / "ship"))
    drive(pm, rng, 300, live)
    shipper.ship_once()
    veteran.catch_up()
    # a "restarted" follower: no state carried over, fresh bootstrap
    replacement = FollowerService(str(tmp_path / "ship"))
    assert follower_fingerprint(replacement) == \
        follower_fingerprint(veteran)
    assert follower_fingerprint(replacement) == leader_fingerprint(pm)
    pm.close()


def test_multi_follower_fan_out_converges(tmp_path):
    """N followers over one shipped directory all converge to the same
    bit-identical state, joining at different points in the stream."""
    pm = make_leader(tmp_path / "leader")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    rng = random.Random(7)
    live = {"r": [], "s": [], "t": []}
    followers = []
    for round_no in range(4):
        drive(pm, rng, 150, live)
        if round_no == 2:
            pm.checkpoint()
        shipper.ship_once()
        # a new follower joins after every round: each bootstraps from a
        # different shipped snapshot/LSN position
        followers.append(FollowerService(str(tmp_path / "ship")))
        for f in followers:
            f.catch_up()
    want = leader_fingerprint(pm)
    for f in followers:
        assert follower_fingerprint(f) == want
    # and they serve identical views
    payloads = [f.synopsis_payload() for f in followers]
    assert all(p == payloads[0] for p in payloads)
    pm.close()


def test_manager_state_replicates(tmp_path):
    """Replication is kind-agnostic: a PersistentManager (multi-query)
    leader ships and replays just the same."""
    manager = SynopsisManager(make_db())
    pm = PersistentManager(manager, str(tmp_path / "leader"),
                           segment_max_bytes=4096)
    pm.register("q1", SQL)
    pm.register("q2", "SELECT * FROM r, s WHERE r.c1 = s.c1")
    rng = random.Random(3)
    for _ in range(200):
        table = rng.choice(["r", "s", "t"])
        pm.insert(table, (rng.randrange(8), rng.randrange(8)))
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    f = FollowerService(str(tmp_path / "ship"))
    assert f.applied_lsn == pm.wal.next_lsn
    for name in ("q1", "q2"):
        assert f.synopsis(name) == [tuple(r) for r in pm.synopsis(name)]
        assert f.total_results(name) == pm.total_results(name)
    # a follower serves the manager read surface too
    payload = f.synopsis_payload("q1")
    assert payload["total_results"] == pm.total_results("q1")
    pm.close()


def test_staleness_bound_under_paused_shipping(tmp_path):
    """Property: with shipping paused, a follower's reported staleness
    equals exactly (now - last ship time) and its epoch never moves —
    it serves a consistent (if stale) prefix, never a torn one."""
    now = [1_000.0]
    clock = lambda: now[0]  # noqa: E731
    pm = make_leader(tmp_path / "leader")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"),
                         clock=clock)
    rng = random.Random(5)
    live = {"r": [], "s": [], "t": []}
    drive(pm, rng, 100, live)
    shipper.ship_once()
    f = FollowerService(str(tmp_path / "ship"), clock=clock)
    frozen = follower_fingerprint(f)

    # shipping pauses while the leader keeps writing
    for step in range(1, 6):
        drive(pm, rng, 50, live)
        now[0] = 1_000.0 + step * 60.0
        f.catch_up()  # polls, finds the same old manifest
        body = f.healthz()
        assert body["staleness_seconds"] == step * 60.0
        assert body["applied_lsn"] == frozen["lsn"]
        assert follower_fingerprint(f) == frozen  # stale, not torn
    # epoch lag is invisible until a manifest advertises the new
    # records; staleness is the signal that covers this window
    assert f.healthz()["epoch_lag"] == 0

    # shipping resumes: staleness collapses, identity is restored
    now[0] = 2_000.0
    shipper.ship_once()
    f.catch_up()
    assert f.healthz()["staleness_seconds"] == 0.0
    assert follower_fingerprint(f) == leader_fingerprint(pm)
    pm.close()


def test_paused_follower_epoch_lag_grows_then_clears(tmp_path):
    """Complement of the staleness test: the SHIPPER is live but the
    follower stops polling; epoch_lag measures the acked-but-unapplied
    backlog and drains to zero on the next catch_up."""
    pm = make_leader(tmp_path / "leader")
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    rng = random.Random(11)
    live = {"r": [], "s": [], "t": []}
    drive(pm, rng, 60, live)
    shipper.ship_once()
    f = FollowerService(str(tmp_path / "ship"))
    base_lsn = f.applied_lsn
    drive(pm, rng, 40, live)
    shipper.ship_once()
    # follower paused: manually refresh just its manifest knowledge the
    # way a healthz-only poller would see the world
    f._manifest = f.transport.read_manifest()
    body = f.healthz()
    assert body["epoch_lag"] == 40
    assert body["applied_lsn"] == base_lsn
    applied = f.catch_up()
    assert applied == 40
    assert f.healthz()["epoch_lag"] == 0
    assert follower_fingerprint(f) == leader_fingerprint(pm)
    pm.close()


def test_follower_scrape_exposes_quality_and_lag_series(tmp_path):
    """One leader→follower hop, scraped over HTTP: the replica's
    /metrics exposition carries both the follower-side quality gauges
    and the per-role replication-lag histogram, alongside identity."""
    import urllib.request

    from repro.obs.metrics import MetricsRegistry
    from repro.service import ServiceHTTPServer

    pm = make_leader(tmp_path / "leader")
    rng = random.Random(17)
    live = {"r": [], "s": [], "t": []}
    drive(pm, rng, 200, live)
    shipper = WalShipper(str(tmp_path / "leader"), str(tmp_path / "ship"))
    shipper.ship_once()
    f = FollowerService(str(tmp_path / "ship"),
                        obs=MetricsRegistry(), quality=True)
    try:
        with ServiceHTTPServer(f, port=0) as server:
            host, port = server.address
            text = urllib.request.urlopen(
                f"http://{host}:{port}/metrics").read().decode()
        # per-role lag histogram, one sample per replayed record
        assert 'repro_replicate_lag_ms_bucket{role="follower",le=' in text
        assert (f'repro_replicate_lag_ms_count{{role="follower"}} '
                f'{f.lag_samples}') in text
        assert f.lag_samples == f.replayed_records > 0
        # the replica probes its own restored engine for uniformity
        assert "repro_quality_probe_rounds" in text
        assert "repro_quality_chi_square" in text
        assert "repro_quality_flagged 0" in text  # honest replica: quiet
        assert follower_fingerprint(f) == leader_fingerprint(pm)
    finally:
        f.stop()
        pm.close()
