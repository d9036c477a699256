"""Table 2: peak memory usage of SJoin-opt vs SJ.

Reproduces §7.6 on five workload rows: QX / QY / QZ insertion-only, QY
with insertions+deletions, and QB (large band width).  The paper reports
peak RSS of its C++ engine; here we measure the deep object-graph size of
the engine's structures (see :mod:`repro.bench.memory`) — the comparison
(SJoin-opt within roughly +/-25% of SJ, sometimes *smaller* thanks to
vertex consolidation) is what the table claims.  A combined tuple is
its anchor's base row (no combined heap), so on the FK-heavy rows
SJoin-opt is smaller than SJ here.
"""

import pytest

from conftest import as_benchmark_report, build_maintainer, results
from repro.bench.memory import engine_memory_bytes
from repro.bench.reporting import format_table, human_bytes
from repro.datagen.linear_road import LinearRoadConfig, setup_qb
from repro.datagen.tpcds import TpcdsScale, setup_query
from repro.datagen.workload import Insert, StreamPlayer, \
    interleave_deletions

SCALE = TpcdsScale(
    dates=120, demographics=240, income_bands=12, items=600,
    categories=24, customers=1200, store_sales=4000,
    returns_fraction=0.35, catalog_sales=2500,
)
QB_CONFIG = LinearRoadConfig(
    lanes=3, cars_per_lane=60, ticks=8, road_length=2000, max_speed=40,
)
ALGOS = ("sjoin-opt", "sj")

ROWS = (
    "QX (insertion only)",
    "QY (insertion only)",
    "QZ (insertion only)",
    "QY (insertion and deletion)",
    "QB (d = 300)",
)


def run_row(row: str, algo: str) -> int:
    if row.startswith("QB"):
        setup = setup_qb(300, QB_CONFIG, seed=0)
        maintainer = build_maintainer(setup, algo)
        StreamPlayer(maintainer).run(setup.events)
        return engine_memory_bytes(maintainer.engine)
    name = row[:2]
    setup = setup_query(name, SCALE, seed=0)
    maintainer = build_maintainer(setup, algo)
    player = StreamPlayer(maintainer)
    player.run(setup.preload)
    if "deletion" in row:
        inserts = [e for e in setup.stream if isinstance(e, Insert)]
        events = interleave_deletions(
            inserts, delete_every={"ss": 300, "c2": 50},
            delete_count={"ss": 60, "c2": 10},
        )
        # cap SJ's deletion pain for the memory measurement
        from repro.bench.harness import run_stream
        run_stream(maintainer, events, time_budget=20.0)
    else:
        player.run(setup.stream)
    return engine_memory_bytes(maintainer.engine)


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("algo", ALGOS)
def test_tab2_cell(benchmark, results, row, algo):
    size = benchmark.pedantic(lambda: run_row(row, algo),
                              rounds=1, iterations=1)
    benchmark.extra_info["bytes"] = size
    results[(row, algo)] = size


def test_tab2_report(benchmark, results):
    def report():
        assert len(results) == len(ROWS) * len(ALGOS)
        print()
        table_rows = []
        for row in ROWS:
            opt = results[(row, "sjoin-opt")]
            sj = results[(row, "sj")]
            table_rows.append((
                row, human_bytes(opt), human_bytes(sj),
                f"{(opt - sj) / sj * 100:+.0f}%",
            ))
        print(format_table(
            ("workload", "SJoin-opt", "SJ", "delta"),
            table_rows,
            title="Table 2: structure memory (paper: within ~+/-25%)",
        ))
        # shape, the paper's direction: SJoin-opt's extra weights never
        # cost more than a small factor over SJ (Python object overheads
        # are noisier than C++ RSS, so allow 2.5x), and it may be smaller
        # (vertex consolidation, combined tuples that are their anchors)
        # — but not by so much that a structure went uncounted
        for row in ROWS:
            opt = results[(row, "sjoin-opt")]
            sj = results[(row, "sj")]
            assert sj / 5 < opt < 2.5 * sj, (row, opt, sj)

    as_benchmark_report(benchmark, report)
