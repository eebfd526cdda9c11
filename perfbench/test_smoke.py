"""Tiny-size run of every workload, untraced and traced.

    python3 -m pytest perfbench
"""

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def harness():
    import_s = run.import_program()
    import harness

    return harness, import_s


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, harness, tmp_path):
    module, import_s = harness
    plain = module.measure(workload, 1, 0, False, import_s, tmp_path, small=True)
    traced = module.measure(workload, 1, 0, True, import_s, tmp_path, small=True)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"]
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert traced["metrics"]["check.verdict_errors"]["value"] == 0
