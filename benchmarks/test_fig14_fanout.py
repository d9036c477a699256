"""Figure 14: band-join fanout sweep on the Linear Road workload (QB).

Reproduces §7.5: the band width ``d`` controls the join fanout; the
workload interleaves each tick's position inserts with sliding-window
deletions.  Expected shape:

* SJoin-opt scales roughly linearly (with a log factor) in ``d`` — the
  number of vertices touched per update is linear in ``d``;
* SJ's throughput collapses toward zero: each insert enumerates O(d^2)
  new join results, and each deletion triggers a full join recomputation.
"""

import pytest

from conftest import (
    as_benchmark_report,
    build_maintainer,
    effective_throughput,
    results,
)
from repro.bench.harness import run_stream
from repro.bench.reporting import format_table
from repro.core import SynopsisSpec
from repro.datagen.linear_road import LinearRoadConfig, setup_qb

CONFIG = LinearRoadConfig(
    lanes=3, cars_per_lane=70, ticks=12, road_length=2400, max_speed=40,
    window=2,
)
BUDGET = 18.0
WIDTHS = (25, 75, 150, 300)
ALGOS = ("sjoin-opt", "sj")


@pytest.mark.parametrize("d", WIDTHS)
@pytest.mark.parametrize("algo", ALGOS)
def test_fig14_cell(benchmark, results, algo, d):
    def run_cell():
        setup = setup_qb(d, CONFIG, seed=0)
        # keep m << J even at the smallest band width, as in the paper
        # (otherwise every deletion falls into the m >= J/2 rebuild path)
        maintainer = build_maintainer(setup, algo,
                                      spec=SynopsisSpec.fixed_size(100))
        return run_stream(maintainer, setup.events, workload=setup.name,
                          checkpoint_every=500, time_budget=BUDGET)

    run = benchmark.pedantic(run_cell, rounds=1, iterations=1)
    benchmark.extra_info["ops_per_sec"] = effective_throughput(run)
    benchmark.extra_info["progress"] = run.progress
    results[(algo, d)] = run


def test_fig14_report(benchmark, results):
    def report():
        assert len(results) == len(WIDTHS) * len(ALGOS)
        print()
        rows = []
        for d in WIDTHS:
            opt = results[("sjoin-opt", d)]
            sj = results[("sj", d)]
            rows.append((
                d,
                f"{effective_throughput(opt):.0f}",
                f"{effective_throughput(sj):.0f}",
                f"{100 * sj.progress:.0f}%",
                f"{effective_throughput(opt) / max(effective_throughput(sj), 1e-9):.1f}x",
            ))
        print(format_table(
            ("d", "sjoin-opt (ops/s)", "sj (ops/s)", "sj progress",
             "ratio"),
            rows, title="Figure 14: throughput vs band-join fanout",
        ))
        # shape assertions
        opt_tps = [effective_throughput(results[("sjoin-opt", d)])
                   for d in WIDTHS]
        sj_tps = [effective_throughput(results[("sj", d)])
                  for d in WIDTHS]
        # SJoin-opt finishes everywhere and degrades gracefully
        for d in WIDTHS:
            assert not results[("sjoin-opt", d)].aborted
        assert opt_tps[-1] > opt_tps[0] / 12, (
            "SJoin-opt should scale ~linearly in d, not collapse"
        )
        # SJ collapses as d grows (paper: 'drops to almost 0')
        assert sj_tps[-1] < sj_tps[0] / 5, (
            f"SJ should collapse with fanout: {sj_tps}"
        )
        # and the SJoin-opt advantage widens with d
        first_ratio = opt_tps[0] / max(sj_tps[0], 1e-9)
        last_ratio = opt_tps[-1] / max(sj_tps[-1], 1e-9)
        assert last_ratio > 3 * first_ratio

    as_benchmark_report(benchmark, report)
