"""Durability of the weighted + subset synopsis families.

The ISSUE-8 acceptance bar: a weighted synopsis must survive both a
snapshot round trip and a WAL-tail replay *bit-identically* — samples,
spec (family + weight column), and the RNG stream.  State dicts written
before the family seam belong to format version 1 and are refused.
"""

import pickle
import random

import pytest

from repro import Database, JoinSynopsisMaintainer, MaintainerConfig, \
    SynopsisSpec
from repro.errors import PersistError
from repro.persist import (
    PersistentManager,
    capture_database,
    capture_maintainer,
    restore_database,
    restore_maintainer,
)
from repro.persist.state import spec_from_dict, spec_to_dict

from conftest import QUERY, make_tables, single_query

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"

SPECS = [
    SynopsisSpec.weighted_fixed_size(8, weight_column="r.c2"),
    SynopsisSpec.weighted_with_replacement(8, weight_column="r.c2"),
    SynopsisSpec.subset(0.3, weight_column="r.c2"),
]
IDS = ["weighted_fixed", "weighted_replacement", "subset"]


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
        state = pickle.loads(
            pickle.dumps(capture_maintainer(maintainer)))
        restored = restore_maintainer(
            restore_database(capture_database(db)), state)
        assert restored.family == maintainer.family
        assert restored.engine.spec.kind == spec.kind
        assert restored.engine.spec.weight_column == "r.c2"
        assert restored.engine.raw_samples() == \
            maintainer.engine.raw_samples()
        assert restored.synopsis() == maintainer.synopsis()
        assert restored.synopsis_meta() == maintainer.synopsis_meta()
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
        pm.abandon()

        recovered = PersistentManager.recover(str(tmp_path))
        engine = recovered.maintainer(QUERY).engine
        assert recovered.replayed_ops > 0
        assert recovered.family_of(QUERY) == maintainer.family
        assert engine.spec.weight_column == "r.c2"
        assert recovered.total_results(QUERY) == expected_total
        assert engine.raw_samples() == expected_samples
        assert engine.rng.getstate() == expected_rng
        recovered.close()

    def test_checkpoint_pins_weighted_spec(self, tmp_path):
        pm, _ = build_durable(SPECS[0], 5, str(tmp_path))
        drive(pm, random.Random(6), 80)
        pm.checkpoint()
        pm.close()
        recovered = PersistentManager.recover(str(tmp_path))
        assert recovered.replayed_ops == 0
        spec = recovered.maintainer(QUERY).engine.spec
        assert spec.kind == "weighted_fixed"
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
