"""Integration tests: the paper's queries, tiny scale, all engines,
cross-checked against the exact executor at the end of the stream."""

import pytest

from repro import MaintainerConfig
from repro import (
    JoinExecutor,
    JoinSynopsisMaintainer,
    SynopsisSpec,
    parse_query,
)
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import DeleteOldest, StreamPlayer, Insert
from repro.datagen.workload import interleave_deletions

ALGOS = ("sjoin", "sjoin-opt", "sj")


@pytest.mark.parametrize("name", ["QX", "QY", "QZ"])
@pytest.mark.parametrize("algo", ALGOS)
def test_tpcds_query_insert_only(name, algo):
    setup = setup_query(name, TpcdsScale.tiny(), seed=0)
    maintainer = JoinSynopsisMaintainer(
        setup.db, setup.sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(40), engine=algo, seed=7))
    player = StreamPlayer(maintainer)
    player.run(setup.preload)
    player.run(setup.stream)
    exact = set(JoinExecutor(setup.db, maintainer.query).results())
    assert maintainer.total_results() == len(exact)
    synopsis = set(maintainer.synopsis())
    assert synopsis <= exact
    assert len(synopsis) == min(40, len(exact))


@pytest.mark.parametrize("algo", ["sjoin-opt", "sj"])
def test_qy_with_deletions(algo):
    setup = setup_query("QY", TpcdsScale.tiny(), seed=1)
    inserts = [e for e in setup.stream if isinstance(e, Insert)]
    events = interleave_deletions(
        inserts, delete_every={"ss": 30, "c2": 20},
        delete_count={"ss": 6, "c2": 2},
    )
    maintainer = JoinSynopsisMaintainer(
        setup.db, setup.sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(25), engine=algo, seed=3))
    player = StreamPlayer(maintainer)
    player.run(setup.preload)
    player.run(events)
    exact = set(JoinExecutor(setup.db, maintainer.query).results())
    assert maintainer.total_results() == len(exact)
    synopsis = set(maintainer.synopsis())
    assert synopsis <= exact
    assert len(synopsis) == min(25, len(exact))


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("d", [2, 15])
def test_qb_band_join_sliding_window(algo, d):
    setup = setup_qb(d, LinearRoadConfig.tiny(), seed=0)
    maintainer = JoinSynopsisMaintainer(
        setup.db, setup.sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(30), engine=algo, seed=5))
    StreamPlayer(maintainer).run(setup.events)
    exact = set(JoinExecutor(setup.db, maintainer.query).results())
    assert maintainer.total_results() == len(exact)
    synopsis = set(maintainer.synopsis())
    assert synopsis <= exact
    assert len(synopsis) == min(30, len(exact))


def test_all_algorithms_agree_on_j():
    """J is deterministic (independent of sampling seed/algorithm)."""
    totals = {}
    for algo in ALGOS:
        setup = setup_query("QX", TpcdsScale.tiny(), seed=2)
        m = JoinSynopsisMaintainer(
            setup.db, setup.sql, MaintainerConfig(spec=SynopsisSpec.fixed_size(10), engine=algo, seed=algo.__hash__() % 1000))
        p = StreamPlayer(m)
        p.run(setup.preload)
        p.run(setup.stream)
        totals[algo] = m.total_results()
    assert len(set(totals.values())) == 1


def test_synopsis_types_on_qy():
    setup = setup_query("QY", TpcdsScale.tiny(), seed=3)
    for spec in (SynopsisSpec.fixed_size(20),
                 SynopsisSpec.with_replacement(20),
                 SynopsisSpec.bernoulli(0.02)):
        setup = setup_query("QY", TpcdsScale.tiny(), seed=3)
        m = JoinSynopsisMaintainer(
            setup.db, setup.sql, MaintainerConfig(spec=spec, engine="sjoin-opt", seed=9))
        p = StreamPlayer(m)
        p.run(setup.preload)
        p.run(setup.stream)
        exact = set(JoinExecutor(setup.db, m.query).results())
        assert set(m.engine.synopsis_entries().rows) <= exact
