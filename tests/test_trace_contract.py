"""The benchmark's tracer still sees every layer each workload loads.

``perfbench/tracing.py`` times layers by rebinding names that ``lcreach.cli``
and ``lcreach.solve`` look up at call time.  A refactor that stops calling a
traced name, or calls it under another, leaves that layer reading zero with
no error.  This test runs each workload at its tiny size with the trace on
and pins the exact set of layers that record time.  The solver counters are
read out of what the solvers return and out of the ``stats`` dict the CLI
hands them, whose keys the tracer names: a renamed key zeroes its counter
just as silently, so the counters each workload must move are pinned too.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TIMED = {
    "cfl-saturate": {
        "graph.parse_graph", "graph.path_check", "reductions.reduce",
        "solve.cfl_reach", "solve.expand", "solve.fixpoint",
    },
    "certify-pipeline": {
        "graph.parse_graph", "graph.path_check", "reductions.reduce",
        "solve.cfl_reach", "solve.expand", "solve.fixpoint",
        "grammar.parse_cfg", "grammar.normalize",
    },
    "enum-mix": {
        "graph.parse_graph", "graph.path_check", "languages.member", "reductions.reduce",
        "solve.bounded_enum", "solve.dag_enum", "solve.product_bfs", "solve.tree",
    },
}
COUNTED = {
    "cfl-saturate": {"solve.facts", "solve.pops"},
    "certify-pipeline": {"solve.facts", "solve.pops"},
    "enum-mix": {"solve.product_states", "solve.states_examined", "solve.paths_examined"},
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    import run

    import_s = run.import_program()
    import harness

    return harness, import_s


@pytest.mark.parametrize("workload", sorted(TIMED))
def test_traced_layers_are_exactly_those_the_workload_loads(workload, bench, tmp_path):
    harness, import_s = bench
    traced = harness.measure(workload, 1, 0, True, import_s, tmp_path, small=True)
    metrics = traced["metrics"]
    timed = {span for span in harness.LAYER_SPANS if metrics[f"{span}_s"]["value"] > 0}
    assert timed == TIMED[workload]
    assert {key for key in COUNTED[workload] if metrics[key]["value"] > 0} == COUNTED[workload]
