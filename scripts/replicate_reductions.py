#!/usr/bin/env python3
"""Replicate the five instance transformations against their brute-force oracles.

For each transformation this draws seeded random instances, solves the original
problem directly, solves the transformed reachability instance, and reports the
agreement count.  Any disagreement is printed and makes the run exit nonzero.

Example:

    python3 scripts/replicate_reductions.py --seed 20260817 --trials 200
"""

import argparse
import random
import sys
import time

from lcreach import (
    abstar_dfa,
    cfl_reach,
    d2_grammar,
    d2reach_to_dd2_ureach,
    dag_enum_reach,
    dd2_grammar,
    decode_vc_witness,
    eval_circuit,
    mcvp_to_d2_reach,
    nbc_d2_member,
    nbc_to_d2_dagreach,
    random_circuit,
    random_graph,
    random_nbc_string,
    random_vc_instance,
    reach_to_abstar_ureach,
    regular_reach,
    vc_brute,
    vc_to_a_dagreach,
)
from lcreach.grammar import Dfa
from lcreach.languages import LANG_A

D2 = d2_grammar()
DD2 = dd2_grammar()


def _universal_dfa(alphabet: str) -> Dfa:
    return Dfa(1, frozenset(alphabet), {(0, ch): 0 for ch in alphabet}, 0, frozenset({0}))


def run_reach_to_abstar(rng: random.Random, trials: int) -> list:
    rows = []
    for _ in range(trials):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, 2 * n), "xy")
        direct = regular_reach(g, _universal_dfa("xy")) is not None
        reduced = regular_reach(reach_to_abstar_ureach(g), abstar_dfa()) is not None
        rows.append((direct, reduced))
    return rows


def run_nbc_to_d2(rng: random.Random, trials: int) -> list:
    rows = []
    for _ in range(trials):
        w = random_nbc_string(rng, rng.randint(0, 8))
        direct = nbc_d2_member(w)
        reduced = cfl_reach(nbc_to_d2_dagreach(w), D2) is not None
        rows.append((direct, reduced))
    return rows


def run_mcvp_to_d2(rng: random.Random, trials: int) -> list:
    rows = []
    for _ in range(trials):
        inputs = rng.randint(1, 5)
        c = random_circuit(rng, inputs, rng.randint(0, 15 - inputs))
        direct = eval_circuit(c) == 1
        reduced = cfl_reach(mcvp_to_d2_reach(c), D2) is not None
        rows.append((direct, reduced))
    return rows


def run_d2_to_dd2(rng: random.Random, trials: int) -> list:
    rows = []
    for _ in range(trials):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 12), "()[]")
        direct = cfl_reach(g, D2) is not None
        reduced = cfl_reach(d2reach_to_dd2_ureach(g), DD2) is not None
        rows.append((direct, reduced))
    return rows


def run_vc_to_a(rng: random.Random, trials: int) -> list:
    rows = []
    for _ in range(trials):
        n = rng.randint(1, 7)
        inst = random_vc_instance(rng, n, rng.randint(0, n * (n - 1) // 2), rng.randint(0, n))
        direct = vc_brute(inst)
        found = dag_enum_reach(vc_to_a_dagreach(inst), LANG_A)
        reduced = found is not None
        if found is not None:
            cover = decode_vc_witness(found, inst)
            assert len(cover) <= inst.k
            assert all(i in cover or j in cover for i, j in inst.edges)
        rows.append((direct, reduced))
    return rows


EXPERIMENTS = (
    ("reach-to-abstar", run_reach_to_abstar),
    ("nbc-to-d2", run_nbc_to_d2),
    ("mcvp-to-d2", run_mcvp_to_d2),
    ("d2-to-dd2", run_d2_to_dd2),
    ("vc-to-a", run_vc_to_a),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260817)
    parser.add_argument("--trials", type=int, default=200, help="instances per transformation")
    args = parser.parse_args()

    failures = 0
    print(f"{'transformation':<18} {'trials':>6} {'positive':>8} {'negative':>8} {'disagree':>8} {'seconds':>8}")
    for name, runner in EXPERIMENTS:
        rng = random.Random(args.seed)
        started = time.perf_counter()
        rows = runner(rng, args.trials)
        elapsed = time.perf_counter() - started
        positive = sum(1 for direct, _ in rows if direct)
        disagree = sum(1 for direct, reduced in rows if direct != reduced)
        failures += disagree
        print(
            f"{name:<18} {len(rows):>6} {positive:>8} {len(rows) - positive:>8}"
            f" {disagree:>8} {elapsed:>8.2f}"
        )
    if failures:
        print(f"\n{failures} disagreement(s) found", file=sys.stderr)
        return 1
    print("\nall transformations agree with their oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
