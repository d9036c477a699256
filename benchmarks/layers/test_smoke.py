"""Smoke test of the layer benchmark at tiny scale (numbers mean nothing).

Outside tier-1 ``testpaths``; run it with::

    PYTHONPATH=src python -m pytest benchmarks/layers/test_smoke.py -q

Asserts that every metric ``BENCHMARK.json`` declares is present and
finite for every workload in both modes, and that a deliberately wrong
reference makes the command fail.
"""

import json
import math

import pytest

from benchmarks.layers import compare, metrics, run
from benchmarks.layers import stream as streams


def _run(tmp_path, capsys, workload, trace, *extra):
    out = tmp_path / f"{workload}-{trace}.json"
    code = run.main(["--workload", workload, "--seed", "11", "--seconds",
                     "1", "--trace", trace, "--tiny", "--out", str(out),
                     "--spans", str(tmp_path / "spans.jsonl"), *extra])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last_line), out


@pytest.mark.parametrize("workload", list(streams.BY_NAME))
def test_every_declared_metric_is_present_and_finite(
        tmp_path, capsys, workload):
    contract = metrics.load()
    assert list(contract.why) == [spec.name for spec in streams.WORKLOADS]
    for trace, declared in (("0", contract.end_to_end),
                            ("1", contract.per_layer)):
        code, result, out = _run(tmp_path, capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, *_ in declared}
        for name, unit, *_ in declared:
            entry = result["metrics"][name]
            assert entry["unit"] == unit
            assert math.isfinite(entry["value"]), name
        assert compare.load_runs(str(out))[0]["workloads"][workload]
    spans = [json.loads(line)
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"id", "name", "start_ns", "end_ns", "parent",
            "workload"} == set(spans[0])
    assert {span["workload"] for span in spans} == {f"{workload}:seed=11"}


def test_a_wrong_reference_fails_the_gate(tmp_path, capsys):
    code, result, _ = _run(tmp_path, capsys, "qy_ingest", "0",
                           "--inject-fault", "drop-op")
    assert code != 0 and not result["correct"]
