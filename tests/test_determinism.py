"""Reproducibility guarantees: same seed + same stream => same synopsis.

The docs promise deterministic behaviour under a fixed seed; these tests
pin it for every engine and synopsis type (it is also what makes the
benchmark shape assertions meaningful).  The golden digests below pin the
sample stream *across* commits: they were computed at the parent of the
PR that removed the alternative index backends and must only ever change
together with a deliberate, announced change of the RNG/sample stream.

One such change so far: since delete runs (§5.3 root rule) the re-draws
after a delete on plan node X map their numbers through the query tree
rooted at X instead of at node 0 — another, equally uniform bijection.
``GOLDEN_STREAMS`` (deletes on non-root nodes) was regenerated then;
``GOLDEN_ENGINES`` (deletes on node 0 only) did not move.
"""

import hashlib

import pytest

from repro import MaintainerConfig
from repro import (
    Column,
    Database,
    JoinSynopsisMaintainer,
    SynopsisSpec,
    TableSchema,
)
from repro.core.stats_api import DeleteOp, InsertOp
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, interleave_deletions

SQL = "SELECT * FROM r, s WHERE r.a = s.a"


def build(algorithm, spec, seed):
    db = Database()
    db.create_table(TableSchema("r", [Column("a"), Column("x")]))
    db.create_table(TableSchema("s", [Column("a"), Column("y")]))
    m = JoinSynopsisMaintainer(db, SQL, MaintainerConfig(spec=spec, engine=algorithm, seed=seed))
    tids = []
    for i in range(120):
        tids.append(m.insert("r", (i % 5, i)))
        m.insert("s", (i % 5, i))
        if i % 7 == 6:
            m.delete("r", tids.pop(0))
    return m


def run(algorithm, spec, seed):
    return build(algorithm, spec, seed).engine.raw_samples()


SPECS = [
    SynopsisSpec.fixed_size(9),
    SynopsisSpec.with_replacement(9),
    SynopsisSpec.bernoulli(0.02),
]


def digest(maintainer):
    """What the golden digests pin: the raw sample stream and ``J``."""
    payload = repr((maintainer.engine.raw_samples(),
                    maintainer.total_results()))
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN_ENGINES = {
    ("sjoin", "fixed"):
        "555fc2c97e61eae34dc58bc0aa8887f3804a9e0d31a3085eb231cca8dc316bd4",
    ("sjoin", "fixed_replacement"):
        "274ec04f4d2b663d2444fd2d80b99c09af139c0f2b2e34ecb3e8c2487d8edb83",
    ("sjoin", "bernoulli"):
        "cb848fc26a049b3de9595b791333861d84c18415ee3a093a58e4cc228be2496f",
    ("sjoin-opt", "fixed"):
        "555fc2c97e61eae34dc58bc0aa8887f3804a9e0d31a3085eb231cca8dc316bd4",
    ("sjoin-opt", "fixed_replacement"):
        "274ec04f4d2b663d2444fd2d80b99c09af139c0f2b2e34ecb3e8c2487d8edb83",
    ("sjoin-opt", "bernoulli"):
        "cb848fc26a049b3de9595b791333861d84c18415ee3a093a58e4cc228be2496f",
    ("sj", "fixed"):
        "93ec032f1522b5ee0f9fc6af1ef081c043fc855f601e30d3f983cc1fa70b45f2",
    ("sj", "fixed_replacement"):
        "3f7a71e4a0f4f834e1a63bf76126c4704b3047bd94c109b928881806e6b2620f",
    ("sj", "bernoulli"):
        "cb848fc26a049b3de9595b791333861d84c18415ee3a093a58e4cc228be2496f",
}


@pytest.mark.parametrize("algorithm", ["sjoin", "sjoin-opt", "sj"])
@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_same_seed_same_synopsis(algorithm, spec):
    first = build(algorithm, spec, seed=42)
    assert first.engine.raw_samples() == run(algorithm, spec, seed=42)
    # ... and the same as at the commit the digests were taken at
    assert digest(first) == GOLDEN_ENGINES[algorithm, spec.kind]


@pytest.mark.parametrize("algorithm", ["sjoin", "sj"])
def test_different_seeds_differ(algorithm):
    spec = SynopsisSpec.fixed_size(9)
    a = run(algorithm, spec, seed=1)
    b = run(algorithm, spec, seed=2)
    assert set(a) != set(b)  # overwhelmingly likely over 100+ results


def test_sjoin_and_opt_agree_without_fk_edges():
    """With nothing to collapse, sjoin and sjoin-opt are the same
    algorithm and must produce identical samples under one seed."""
    spec = SynopsisSpec.fixed_size(9)
    assert run("sjoin", spec, 7) == run("sjoin-opt", spec, 7)


# ----------------------------------------------------------------------
# golden digests of batched streams (band join + FK-collapsed churn)
# ----------------------------------------------------------------------
def flatten(events):
    """Stream events as flat ops; ``DeleteOldest`` resolved to the TIDs
    the stream itself will have been given (sequential per table)."""
    ops, fifo, next_tid = [], {}, {}
    for event in events:
        if isinstance(event, Insert):
            tid = next_tid.get(event.alias, 0)
            next_tid[event.alias] = tid + 1
            fifo.setdefault(event.alias, []).append(tid)
            ops.append(InsertOp(event.alias, event.row))
        else:
            live = fifo.get(event.alias, [])
            ops.extend(DeleteOp(event.alias, tid)
                       for tid in live[:event.count])
            del live[:event.count]
    return ops


def band_join_with_deletes():
    """Linear Road QB(d=15): a band join under sliding-window expiry."""
    setup = setup_qb(15, LinearRoadConfig.tiny(), seed=0)
    config = MaintainerConfig(spec=SynopsisSpec.fixed_size(30),
                              engine="sjoin", seed=5)
    return setup.db, setup.sql, config, flatten(setup.events)


def fk_collapsed_qy_churn():
    """TPC-DS QY on the FK-collapsed engine with interleaved deletes."""
    setup = setup_query("QY", TpcdsScale.tiny(), seed=1)
    events = interleave_deletions(
        [e for e in setup.stream if isinstance(e, Insert)],
        delete_every={"ss": 30, "c2": 20}, delete_count={"ss": 6, "c2": 2},
    )
    config = MaintainerConfig(spec=SynopsisSpec.fixed_size(25),
                              engine="sjoin-opt", seed=3)
    return setup.db, setup.sql, config, flatten(setup.preload + events)


GOLDEN_STREAMS = {
    "band_join_with_deletes":
        "238abe700d9232c7bd418166791de76e6816c70de8a32dcdd10d8650584a0d52",
    "fk_collapsed_qy_churn":
        "0d1ba3e1911860276c53923a37154a3e340f931b35253eff6eb794c0f982606b",
}


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("stream", [band_join_with_deletes,
                                    fk_collapsed_qy_churn],
                         ids=lambda fn: fn.__name__)
def test_golden_digest_of_batched_streams(stream, batch):
    db, sql, config, ops = stream()
    assert any(isinstance(op, DeleteOp) for op in ops)
    maintainer = JoinSynopsisMaintainer(db, sql, config)
    for start in range(0, len(ops), batch):
        maintainer.apply_batch(ops[start:start + batch])
    assert digest(maintainer) == GOLDEN_STREAMS[stream.__name__]
