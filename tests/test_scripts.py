"""The scripts under ``scripts/`` still run against the library."""

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
        "n", "m", "seconds", "facts", "pops", "reachable", "witness_s", "walk", "goal_s", "goal_facts"
    ]
    assert len(rows) == 4
    for row in rows:
        n, m, _, facts, pops, reachable, *_, goal_facts = row.split()
        assert (n, m) in {("6", "12"), ("10", "30")}
        assert int(facts) >= int(pops) and reachable in ("yes", "no")
        # the stopped table is a prefix of the full one, and all of it when unreachable
        assert int(goal_facts) <= int(facts) if reachable == "yes" else goal_facts == facts


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
