"""Soak test: the full matrix of engines x synopsis types on the paper's
QY workload with deletions, cross-checked against the exact oracle.

Slower than a unit test (a few seconds total) but the closest thing to
the paper's §7 setup that still permits exact verification.
"""

import pytest

from repro import MaintainerConfig
from repro import JoinExecutor, JoinSynopsisMaintainer, SynopsisSpec, \
    parse_query
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, StreamPlayer, \
    interleave_deletions

ENGINES = ("sjoin", "sjoin-opt", "sj")
SPECS = (
    ("fixed", SynopsisSpec.fixed_size(15)),
    ("fixed_wr", SynopsisSpec.with_replacement(15)),
    ("bernoulli", SynopsisSpec.bernoulli(0.01)),
)


@pytest.mark.parametrize("algo", ENGINES)
@pytest.mark.parametrize("kind,spec", SPECS, ids=[k for k, _ in SPECS])
def test_qy_matrix(algo, kind, spec):
    setup = setup_query("QY", TpcdsScale.tiny(), seed=4)
    maintainer = JoinSynopsisMaintainer(
        setup.db, setup.sql, MaintainerConfig(spec=spec, engine=algo, seed=13))
    player = StreamPlayer(maintainer)
    player.run(setup.preload)
    inserts = [e for e in setup.stream if isinstance(e, Insert)]
    events = interleave_deletions(
        inserts, delete_every={"ss": 40, "c2": 25},
        delete_count={"ss": 8, "c2": 3},
    )
    player.run(events)

    query = parse_query(setup.sql, setup.db)
    exact = set(JoinExecutor(setup.db, query).results())
    assert maintainer.total_results() == len(exact)
    results = set(maintainer.engine.synopsis_entries().rows)
    assert results <= exact
    if kind == "fixed":
        assert len(maintainer.engine.synopsis_entries().rows) == \
            min(15, len(exact))
    elif kind == "fixed_wr" and exact:
        assert len(maintainer.engine.raw_samples()) == 15
