"""The scripts under ``scripts/`` still run against the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_cfl_runs_at_a_tiny_size():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_cfl.py"), "--sizes", "6:12,10:30", "--repeats", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == [
        "n", "m", "seconds", "facts", "pops", "reachable", "witness_s", "walk", "goal_s", "goal_facts",
        "goal_round",
    ]
    assert len(rows) == 4
    for row in rows:
        n, m, _, facts, pops, reachable, *_, goal_facts, goal_round = row.split()
        assert (n, m) in {("6", "12"), ("10", "30")}
        assert int(facts) >= int(pops) and reachable in ("yes", "no")
        # the stopped table holds the facts born before the root's round and
        # the root, a part of the full one; all of it when unreachable
        if reachable == "yes":
            assert int(goal_facts) <= int(facts) and int(goal_round) >= 0
        else:
            assert (goal_facts, goal_round) == (facts, "-")


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


def test_bench_writes_io_rows_at_a_tiny_size(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "BENCH_io.json"
    out.write_text('{"parent": []}\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--small", "--repeats", "1",
         "--workload", "enum-mix", "--out", str(out), "--label", "change"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())
    assert runs["parent"] == []  # other labels are kept
    rows = runs["change"]
    layers = [row["layer"] for row in rows]
    assert layers == [
        "graph.parse_graph", "graph.LabeledGraph", "graph.edges", "graph.render_graph", "graph.adjacency",
        "reductions.parse_vc", "reductions.vc-to-a", "reductions.reach-to-abstar",
    ]
    for row in rows:
        assert set(row) == {"workload", "layer", "seconds", "counters", "peak_rss"}
        assert row["workload"] == "enum-mix" and row["seconds"] >= 0 and row["peak_rss"] > 0
        assert set(row["counters"]) == {"calls", "edges", "gc_s", "tracked"} and row["counters"]["calls"] > 0
    graph_edges = {row["counters"]["edges"] for row in rows if row["layer"].startswith("graph.")}
    assert len(graph_edges) == 1 and graph_edges.pop() > 0
    parse = rows[0]["counters"]  # a parsed graph keeps no tracked object per edge alive
    assert parse["tracked"] <= 3 * parse["calls"] < parse["edges"]
