"""Durability of the weighted + subset synopsis families.

The ISSUE-8 acceptance bar: a weighted synopsis must survive both a
snapshot round trip and a WAL-tail replay *bit-identically* — samples,
spec (family + weight column), and the RNG stream.  State dicts written
before the family seam belong to format version 1 and are refused.
"""

import random
import re

import pytest

from repro import Database, JoinSynopsisMaintainer, MaintainerConfig, \
    SynopsisSpec
from repro.errors import PersistError, ReplicationError
from repro.persist import (
    PersistentManager,
    SnapshotStore,
    capture_database,
    capture_maintainer,
    restore_database,
    restore_maintainer,
)
from repro.persist import runtime as persist_runtime
from repro.persist.state import spec_from_dict, spec_to_dict
from repro.persist.wal import dump_plain, load_plain
from repro.replicate import FollowerService, WalShipper
from repro.replicate import follower as replicate_follower

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"

SPECS = [
    SynopsisSpec.weighted_with_replacement(8, weight_column="r.c2"),
    SynopsisSpec.subset(0.3, weight_column="r.c2"),
]
IDS = ["weighted_replacement", "subset"]
#: kinds no durable state of this release may name: the weighted
#: without-replacement kind 19.x maintained, and one no release had
UNKNOWN_KINDS = ["weighted_fixed", "reservoir_v9"]


def make_db():
    db = Database()
    make_tables(db, [("r", 3), ("s", 2)])
    return db


def build(spec, seed=7):
    db = make_db()
    maintainer = JoinSynopsisMaintainer(
        db, SQL, MaintainerConfig(spec=spec, seed=seed))
    return db, maintainer


def build_durable(spec, seed, directory):
    """The same query behind the durable stack; returns the wrapper and
    the live maintainer it holds."""
    manager, maintainer = single_query(
        make_db(), SQL, MaintainerConfig(spec=spec, seed=seed))
    return PersistentManager(manager, directory), maintainer


def drive(target, rng, n, domain=4):
    """Random inserts/deletes; ``r.c2`` carries integer weights 1-4."""
    live = {"r": [], "s": []}
    for _ in range(n):
        alias = "r" if rng.random() < 0.5 else "s"
        if live[alias] and rng.random() < 0.3:
            tid = live[alias].pop(rng.randrange(len(live[alias])))
            target.delete(alias, tid)
        else:
            key = rng.randrange(domain)
            if alias == "r":
                row = (key, rng.randrange(100), rng.randrange(1, 5))
            else:
                row = (key, rng.randrange(100))
            tid = target.insert(alias, row)
            if tid >= 0:
                live[alias].append(tid)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_round_trip_is_bit_identical(self, spec):
        db, maintainer = build(spec)
        drive(maintainer, random.Random(1), 150)
        state = load_plain(dump_plain(capture_maintainer(maintainer)))
        restored = restore_maintainer(
            restore_database(capture_database(db)), state)
        assert restored.family == maintainer.family
        assert restored.engine.spec.kind == spec.kind
        assert restored.engine.spec.weight_column == "r.c2"
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.synopsis() == maintainer.synopsis()
        restored_entries = restored.synopsis_entries()
        entries = maintainer.synopsis_entries()
        assert restored_entries.weights == entries.weights
        assert restored_entries.scales == entries.scales
        assert list(restored_entries) == list(entries)
        assert restored.engine.rng.getstate() == \
            maintainer.engine.rng.getstate()
        # the worlds stay merged: identical future update stream
        drive(maintainer, random.Random(2), 100)
        drive(restored, random.Random(2), 100)
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.engine.rng.getstate() == \
            maintainer.engine.rng.getstate()


class TestWalRecovery:
    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_recover_replays_weighted_tail(self, tmp_path, spec):
        pm, maintainer = build_durable(spec, 3, str(tmp_path))
        rng = random.Random(4)
        drive(pm, rng, 100)
        pm.checkpoint()
        drive(pm, rng, 60)  # WAL-only tail beyond the checkpoint
        expected_samples = maintainer.engine.raw_samples()
        expected_rng = maintainer.engine.rng.getstate()
        expected_total = pm.total_results(QUERY)
        expected_entries = maintainer.synopsis_entries()
        pm.abandon()

        recovered = PersistentManager.recover(str(tmp_path))
        engine = recovered.maintainer(QUERY).engine
        assert recovered.replayed_ops > 0
        assert recovered.maintainer(QUERY).family == maintainer.family
        assert engine.spec.weight_column == "r.c2"
        assert recovered.total_results(QUERY) == expected_total
        assert engine.raw_samples() == expected_samples
        assert engine.rng.getstate() == expected_rng
        entries = engine.synopsis_entries()
        assert (entries.weights, entries.scales) == \
            (expected_entries.weights, expected_entries.scales)
        assert list(entries) == list(expected_entries)
        recovered.close()

    def test_checkpoint_pins_weighted_spec(self, tmp_path):
        pm, _ = build_durable(SPECS[0], 5, str(tmp_path))
        drive(pm, random.Random(6), 80)
        pm.checkpoint()
        pm.close()
        recovered = PersistentManager.recover(str(tmp_path))
        assert recovered.replayed_ops == 0
        spec = recovered.maintainer(QUERY).engine.spec
        assert spec.kind == "weighted_replacement"
        assert spec.weight_column == "r.c2"
        recovered.close()


class TestLegacyStateDecoding:
    def test_spec_dict_round_trip_keeps_weight_column(self):
        for spec in SPECS:
            decoded = spec_from_dict(spec_to_dict(spec))
            assert decoded.kind == spec.kind
            assert decoded.weight_column == spec.weight_column

    def test_version_1_maintainer_state_rejected(self):
        """Pre-family states are format version 1: refused by version,
        before any of their (differently shaped) spec dicts is read."""
        db, maintainer = build(SynopsisSpec.fixed_size(10))
        drive(maintainer, random.Random(8), 60)
        state = capture_maintainer(maintainer)
        state["version"] = 1
        with pytest.raises(PersistError, match="version 1"):
            restore_maintainer(
                restore_database(capture_database(db)), state)


def refusal(kind, where=""):
    """The format gate's message for a spec naming ``kind``."""
    return (re.escape(where) + r".*names synopsis kind "
            + re.escape(repr(kind)) + r"; this release maintains only "
            r"fixed, fixed_replacement, bernoulli, weighted_replacement, "
            r"subset")


def checkpointed_with_kind(directory, kind):
    """A state directory whose snapshot registers ``q`` with ``kind``,
    as a release that maintained it would have written it."""
    pm, _ = build_durable(SPECS[0], 5, str(directory))
    drive(pm, random.Random(6), 40)
    pm.checkpoint()
    pm.close()
    store = SnapshotStore(str(directory / "snapshots"))
    payload, header = store.load_latest()
    maintainer = payload["manager"]["queries"][0]["maintainer"]
    for field in ("requested_spec", "effective_spec", "synopsis"):
        maintainer[field]["kind"] = kind
    store.write(payload, wal_lsn=header["wal_lsn"])


def nothing_is_decoded(*args, **kwargs):
    raise AssertionError("the state was decoded past the format gate")


class TestUnknownKindIsRefused:
    """Durable state naming a kind this release does not maintain fails
    typed at the format gate — ``PersistError`` on recovery,
    ``ReplicationError`` on a follower — never as a ``SynopsisError``
    from deep inside a restore or as a silently skipped registration."""

    @pytest.mark.parametrize("kind", UNKNOWN_KINDS)
    def test_in_a_snapshot(self, tmp_path, monkeypatch, kind):
        checkpointed_with_kind(tmp_path, kind)
        monkeypatch.setattr(persist_runtime, "restore_database",
                            nothing_is_decoded)
        with pytest.raises(PersistError, match=refusal(
                kind, "(query 'q', requested_spec)")):
            PersistentManager.recover(str(tmp_path))

    @pytest.mark.parametrize("kind", UNKNOWN_KINDS)
    def test_in_a_wal_register_record(self, tmp_path, kind):
        pm, _ = build_durable(SPECS[0], 5, str(tmp_path))
        drive(pm, random.Random(6), 20)
        pm.wal.append(("register", "old", SQL, {
            "kind": kind, "size": 8, "rate": None,
            "weight_column": "r.c2"}, "sjoin-opt", 3))
        pm.abandon()
        with pytest.raises(PersistError, match=refusal(kind)):
            PersistentManager.recover(str(tmp_path))

    @pytest.mark.parametrize("kind", UNKNOWN_KINDS)
    def test_in_a_shipped_snapshot(self, tmp_path, monkeypatch, kind):
        checkpointed_with_kind(tmp_path / "leader", kind)
        WalShipper(str(tmp_path / "leader"),
                   str(tmp_path / "ship")).ship_once()
        monkeypatch.setattr(replicate_follower, "restore_database",
                            nothing_is_decoded)
        with pytest.raises(ReplicationError, match=refusal(
                kind, "(query 'q', requested_spec)")):
            FollowerService(str(tmp_path / "ship"))
