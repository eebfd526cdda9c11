"""The scripts under ``scripts/`` still run against the library."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_replicate_reductions_agrees_at_a_tiny_size():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replicate_reductions.py"), "--seed", "1", "--trials", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, blank, verdict = proc.stdout.splitlines()
    assert header.split() == ["transformation", "trials", "positive", "negative", "disagree", "seconds"]
    names = [row.split()[0] for row in rows]
    assert names == ["reach-to-abstar", "nbc-to-d2", "mcvp-to-d2", "d2-to-dd2", "vc-to-a"]
    for row in rows:
        name, trials, positive, negative, disagree, _ = row.split()
        assert (trials, disagree) == ("2", "0") and int(positive) + int(negative) == 2
    assert (blank, verdict) == ("", "all transformations agree with their oracles")


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """``scripts/bench.py --small`` on every workload, run once for the tests below."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path_factory.mktemp("bench") / "BENCH_io.json"
    out.write_text('{"parent": []}\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--small", "--repeats", "1",
         "--workload", "cfl-saturate", "--workload", "enum-mix", "--workload", "certify-pipeline",
         "--out", str(out), "--label", "change"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(out.read_text()), stdout=proc.stdout)


def test_bench_writes_io_rows_at_a_tiny_size(bench_runs):
    assert bench_runs["parent"] == []  # other labels are kept
    rows = bench_runs["change"]
    counters = {(row["workload"], row["layer"]): row["counters"] for row in rows}
    io = [
        "graph.parse_graph", "graph.parse_graph_tabs", "graph.LabeledGraph", "graph.edges", "graph.render_graph",
        "graph.edge_ends",
    ]
    assert list(counters) == [
        *(("cfl-saturate", layer) for layer in [
            *io, "reductions.d2-to-dd2", "reductions.parse_circuit", "reductions.mcvp-to-d2",
            "solve.cfl", "solve.fixpoint", "solve.demand", "solve.witness", "solve.check",
        ]),
        *(("enum-mix", layer) for layer in [
            *io, "reductions.parse_vc", "reductions.vc-to-a", "reductions.reach-to-abstar",
            "solve.dag-enum", "solve.bounded-enum", "solve.regular", "solve.tree",
        ]),
        *(("certify-pipeline", layer) for layer in [
            *io, "reductions.parse_circuit", "reductions.mcvp-to-d2", "reductions.nbc-to-d2",
            "solve.cfl", "solve.fixpoint", "solve.demand", "solve.witness", "solve.check",
        ]),
    ]
    # a solve row sums the counters of its mode's reports
    solved = {
        "solve.cfl": {"facts", "row_deltas", "errors"},
        "solve.fixpoint": {"facts", "row_deltas", "errors"},
        "solve.regular": {"states", "states_examined", "errors"},
        "solve.bounded-enum": {"states", "states_examined", "errors"},
        "solve.dag-enum": {"paths_examined", "errors"},
        "solve.tree": {"errors"},
        "solve.witness": {"nodes"},
        "solve.check": {"nodes"},
        "solve.demand": {"gave_up"},
    }
    for row in rows:
        assert set(row) == {"workload", "layer", "seconds", "counters", "peak_rss"}
        assert row["seconds"] >= 0 and row["peak_rss"] > 0
        keys = {"calls", "edges", "gc_s", "tracked"} | solved.get(row["layer"], set())
        assert set(row["counters"]) == keys and row["counters"]["calls"] > 0
    for row, line in zip(rows, bench_runs["stdout"].splitlines(), strict=True):  # printed in row order
        assert line.split()[:2] == [row["workload"], row["layer"]]
        assert all(f"  {key} {row['counters'][key]}" in line for key in solved.get(row["layer"], ()))
    for workload in ("cfl-saturate", "enum-mix", "certify-pipeline"):
        layers = {layer: c for (w, layer), c in counters.items() if w == workload}
        (edges,) = {c["edges"] for layer, c in layers.items() if layer.startswith("graph.")}
        assert edges > 0
        parse = layers["graph.parse_graph"]  # a parsed graph keeps no tracked object per edge alive
        assert parse["tracked"] <= 3 * parse["calls"] < parse["edges"]
        assert layers["graph.parse_graph_tabs"]["calls"] == parse["calls"]  # the same files, read line by line


def test_bench_times_every_solve_mode_at_a_tiny_size(bench_runs):
    counters = {(row["workload"], row["layer"]): row["counters"] for row in bench_runs["change"]}
    for workload in ("cfl-saturate", "enum-mix", "certify-pipeline"):
        layers = {layer: c for (w, layer), c in counters.items() if w == workload}
        (edges,) = {c["edges"] for layer, c in layers.items() if layer.startswith("graph.")}
        # every graph is solved once, by the runner of its operation's mode
        derived = ("solve.fixpoint", "solve.demand", "solve.witness", "solve.check")
        runners = [c for layer, c in layers.items() if layer.startswith("solve.") and layer not in derived]
        assert runners and sum(c["edges"] for c in runners) == edges
    goal, full = counters["cfl-saturate", "solve.cfl"], counters["cfl-saturate", "solve.fixpoint"]
    # the goal-stopped tables are parts of the full ones
    assert goal["facts"] >= goal["row_deltas"] > 0 and full["facts"] >= full["row_deltas"] > 0
    assert full["facts"] >= goal["facts"] and full["calls"] == goal["calls"]
    # the probe runs on the goals whose target is not dead, and gives up on some
    probed = counters["cfl-saturate", "solve.demand"]
    assert 0 < probed["gave_up"] <= probed["calls"] <= goal["calls"]
    # one derivation per reachable operation, each at least its root
    rebuilt = counters["cfl-saturate", "solve.witness"]
    assert 0 < rebuilt["calls"] <= goal["calls"] and rebuilt["nodes"] >= rebuilt["calls"]
    # each rebuilt derivation is checked once, as verify reads it
    for workload in ("cfl-saturate", "certify-pipeline"):
        rebuilt, checked = counters[workload, "solve.witness"], counters[workload, "solve.check"]
        assert checked["calls"] == rebuilt["calls"] > 0 and checked["nodes"] == rebuilt["nodes"]
        assert checked["edges"] == rebuilt["edges"]
    # the deep vc-to-a instance (drawn at every size) raises RecursionError, and no other call raises
    raised = {key: c["errors"] for key, c in counters.items() if "errors" in c}
    assert raised == {key: int(key[1] == "solve.dag-enum") for key in raised}


def test_digest_gives_one_stable_key_per_operation_and_flag(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for name in ("first.json", "second.json"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "digest.py"), "--small", "--seed", "1",
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((tmp_path / name).read_text())
    assert runs[0] == runs[1]
    digests = json.loads(runs[0])
    assert len(runs[0].splitlines()) == len(digests) + 2  # one key a line, so a diff names the operation
    ops = {}
    for key, value in digests.items():
        workload, seed, index, kind, flag = key.split()
        assert seed == "1" and flag in ("plain", "json") and len(value) == 64
        ops.setdefault(workload, {}).setdefault(int(index), set()).add(flag)
    assert set(ops) == {"cfl-saturate", "certify-pipeline", "enum-mix"}
    for flags in ops.values():  # every operation, numbered in build order, under both flags
        assert list(flags) == list(range(len(flags))) and all(f == {"plain", "json"} for f in flags.values())


def _digest_module():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "scripts" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["digests-small.json", "digests-seed1.json"])
def test_every_benchmark_output_matches_its_pinned_digest(name, tmp_path):
    """Every byte each operation writes, its ``stats`` included, is pinned by a committed digest file.

    The files were written by ``scripts/digest.py``; a change that means to
    move an output regenerates them with it and says so.
    """
    pinned = json.loads((ROOT / "tests" / "data" / name).read_text())
    assert len(pinned) == {"digests-small.json": 126, "digests-seed1.json": 312}[name]
    assert _digest_module().moved(pinned, tmp_path) == []
