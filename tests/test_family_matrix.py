"""CI synopsis-family matrix: one workload, three families.

CI runs this module once per family with ``REPRO_SYNOPSIS_FAMILY`` set
to ``uniform``, ``weighted`` or ``subset``; unset, it exercises the
uniform family, so the module is also a plain tier-1 citizen.  Every
family drives the same mixed single/batch insert + delete workload and
must uphold the family-independent invariants (samples are live
results, J is exact, caps hold) plus its own membership law.
"""

import os
import random

import pytest

from repro import (
    Database,
    InsertOp,
    JoinSynopsisMaintainer,
    MaintainerConfig,
    SynopsisService,
    SynopsisSpec,
    family_of_kind,
    parse_query,
)

from conftest import make_tables, single_query

FAMILY = os.environ.get("REPRO_SYNOPSIS_FAMILY", "uniform")

SQL = "SELECT * FROM r, s WHERE r.c0 = s.c0"

WEIGHT_COLUMN = "r.c2"

SPECS_BY_FAMILY = {
    "uniform": [
        ("fixed", SynopsisSpec.fixed_size(12)),
        ("replacement", SynopsisSpec.with_replacement(12)),
        ("bernoulli", SynopsisSpec.bernoulli(0.25)),
    ],
    "weighted": [
        ("weighted_replacement",
         SynopsisSpec.weighted_with_replacement(
             12, weight_column=WEIGHT_COLUMN)),
    ],
    "subset": [
        ("subset", SynopsisSpec.subset(0.25,
                                       weight_column=WEIGHT_COLUMN)),
    ],
}

if FAMILY not in SPECS_BY_FAMILY:
    raise RuntimeError(
        f"REPRO_SYNOPSIS_FAMILY={FAMILY!r} is not one of "
        f"{sorted(SPECS_BY_FAMILY)}")

SPECS = SPECS_BY_FAMILY[FAMILY]
SPEC_IDS = [name for name, _ in SPECS]
SPEC_VALUES = [spec for _, spec in SPECS]


def build(spec, seed):
    db = Database()
    make_tables(db, [("r", 3), ("s", 2)])
    maintainer = JoinSynopsisMaintainer(
        db, SQL, MaintainerConfig(spec=spec, seed=seed))
    return db, maintainer


def run_workload(target, rng, n, live):
    """Mixed batch/single inserts and deletes; returns nothing, the
    exact state lives in ``live[alias] = {tid: row}``."""
    tables = ["r", "s"]
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25 and any(live[a] for a in tables):
            alias = rng.choice([a for a in tables if live[a]])
            tid = rng.choice(sorted(live[alias]))
            del live[alias][tid]
            target.delete(alias, tid)
        elif roll < 0.55:
            ops = []
            for _ in range(rng.randrange(1, 5)):
                alias = rng.choice(tables)
                ops.append(InsertOp(alias, make_row(alias, rng)))
            result = target.apply_batch(ops)
            for op, tid in zip(ops, result.tids):
                if tid >= 0:
                    live[op.target][tid] = tuple(op.row)
        else:
            alias = rng.choice(tables)
            row = make_row(alias, rng)
            tid = target.insert(alias, row)
            if tid >= 0:
                live[alias][tid] = row
    return live


def make_row(alias, rng, domain=4):
    key = rng.randrange(domain)
    if alias == "r":
        return (key, rng.randrange(1000), rng.randrange(1, 5))
    return (key, rng.randrange(1000))


def exact_results(live):
    """tid-pair -> unit weight for the current live rows."""
    out = {}
    for r_tid, r_row in live["r"].items():
        for s_tid, s_row in live["s"].items():
            if r_row[0] == s_row[0]:
                weight = r_row[2] if FAMILY in ("weighted", "subset") \
                    else 1
                out[(r_tid, s_tid)] = weight
    return out


@pytest.mark.parametrize("spec", SPEC_VALUES, ids=SPEC_IDS)
class TestFamilyWorkload:
    def test_invariants_hold_throughout(self, spec):
        _, maintainer = build(spec, seed=11)
        live = {"r": {}, "s": {}}
        rng = random.Random(17)
        for _ in range(6):  # checkpoints between workload bursts
            run_workload(maintainer, rng, 40, live)
            expected = exact_results(live)
            assert maintainer.total_results() == \
                sum(expected.values())
            samples = maintainer.engine.raw_samples()
            for result in samples:
                assert tuple(result) in expected
            if spec.size is not None:
                assert len(samples) <= spec.size
            if spec.kind == "fixed":
                assert len(samples) == \
                    min(spec.size, sum(expected.values()))
            assert maintainer.family == family_of_kind(spec.kind)

    def test_meta_matches_family_contract(self, spec):
        _, maintainer = build(spec, seed=5)
        live = run_workload(
            maintainer, random.Random(23), 120, {"r": {}, "s": {}})
        expected = exact_results(live)
        for result, meta in maintainer.synopsis_entries():
            assert meta["weight"] == expected[tuple(result)]
            if FAMILY == "subset":
                pi = meta["inclusion_probability"]
                assert 0.0 < pi <= 1.0
                assert pi == pytest.approx(
                    1.0 - (1.0 - spec.rate) ** meta["weight"])
            else:
                assert "inclusion_probability" not in meta

    def test_service_reports_family_end_to_end(self, spec):
        db = Database()
        make_tables(db, [("r", 3), ("s", 2)])
        manager, _ = single_query(
            db, SQL, MaintainerConfig(spec=spec, seed=2))
        with SynopsisService(manager) as service:
            for i in range(8):
                service.insert("r", (i % 3, i, 1 + i % 4))
                service.insert("s", (i % 3, i))
            assert service.healthz()["synopsis_family"] == FAMILY
            payload = service.synopsis_payload()
            assert payload["family"] == FAMILY
            assert len(payload["meta"]) == len(payload["synopsis"])
            for meta in payload["meta"]:
                assert meta["weight"] >= 1
