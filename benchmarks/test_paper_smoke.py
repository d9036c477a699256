"""Smoke test of ``benchmarks/paper.py`` at tiny scale (numbers mean
nothing): every cell is written, two runs with one seed end in the same
counts, and every shape checked at tiny scale holds.

Run it from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_paper_smoke.py -q
"""

import json

import paper
import pytest


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper")
    runs = []
    for name in ("first", "second"):
        path = out / f"{name}.json"
        assert paper.main(["--tiny", "--out", str(path)]) == 0
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def expected_cells():
    widths = paper.FIG14_WIDTHS
    params = len(paper.FIG12_SIZES) * 2 + len(paper.FIG12_RATES)
    return {
        "fig11": 3 * len(paper.ALGOS),
        "fig12": params * 2,
        "fig13": 4,
        "fig14": len(widths) * 2,
        "tab2": 5 * 2,
        "skip": 2,
        "batching": len(paper.BATCH_SIZES),
    }


def test_every_cell_is_written(records):
    cells = records[0]["cells"]
    written = {}
    for key in cells:
        figure = key.split("/")[0]
        written[figure] = written.get(figure, 0) + 1
    assert written == expected_cells()
    for key, cell in cells.items():
        series = cell.get("series")
        if series is not None:
            assert series["ops"][-1] == cell["ops"] > 0, key
            assert series["s"] == sorted(series["s"]), key
            assert cell["ops_s"] > 0, key
    for key in ("fig14/d=300/sj", "fig13/sj"):
        assert cells[key]["events"] == paper.TINY_PREFIX[key[:5]], key


def test_one_seed_gives_identical_counts(records):
    first, second = (record["cells"] for record in records)
    assert first.keys() == second.keys()
    for key in first:
        assert first[key]["counts"] == second[key]["counts"], key


def test_tiny_shapes_hold(records):
    shapes = records[0]["shapes"]
    checked = [shape for shape in shapes if shape["checked"]]
    assert {s["name"].split(":")[0].split(" ")[0] for s in checked} == {
        "fig13", "fig14", "tab2", "skip", "batching"}
    assert all(shape["holds"] for shape in checked), checked
