#!/usr/bin/env python3
"""Benchmark the fixpoint solver on seeded random bracket graphs.

Prints one row per draw: the time of the full least fixpoint, its table
size, its row deltas joined (``pops``), whether the instance was reachable,
the time to rebuild and flatten the witness, and the witness length; then
the time of ``cfl_reach``, which stops the fixpoint in the round its root
is born (``goal_s``), the size of the table it stops with (``goal_facts``:
the facts born before the root's round plus the root, the full size when
unreachable), and the root's round (``goal_round``, ``-`` when
unreachable).  Sizes are given as ``n:m`` pairs.

Example:

    PYTHONPATH=src python3 scripts/bench_cfl.py --sizes 50:250,100:500,200:1000,400:2000
"""

import argparse
import random
import sys
import time

from lcreach import (
    Path,
    Witness,
    cfl_reach,
    cfl_reach_table,
    d2_grammar,
    expand_witness,
    normalize,
    random_graph,
)


def parse_sizes(text: str) -> list:
    sizes = []
    for part in text.split(","):
        n_text, _, m_text = part.partition(":")
        sizes.append((int(n_text), int(m_text)))
    return sizes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--sizes", default="50:250,100:500,200:1000,400:2000")
    parser.add_argument("--alphabet", default="()[]")
    parser.add_argument(
        "--repeats", type=int, default=3, help="draws per size (fresh graph each time)"
    )
    args = parser.parse_args()

    nf = normalize(d2_grammar())
    rng = random.Random(args.seed)
    print(
        f"{'n':>6} {'m':>6} {'seconds':>8} {'facts':>8} {'pops':>8}"
        f" {'reachable':>9} {'witness_s':>9} {'walk':>6} {'goal_s':>8} {'goal_facts':>10}"
        f" {'goal_round':>10}"
    )
    for n, m in parse_sizes(args.sizes):
        for _ in range(args.repeats):
            g = random_graph(rng, n, m, args.alphabet)
            started = time.perf_counter()
            table = cfl_reach_table(g, nf)
            elapsed = time.perf_counter() - started
            root = (g.source, nf.start, g.target)
            if root not in table.facts:
                reachable, witness_s, walk = "no", "-", "-"
            else:
                reachable = "yes"
                started = time.perf_counter()
                expanded = expand_witness(Witness(root=root, table=table))
                witness_s = f"{time.perf_counter() - started:.4f}"
                walk = str(len(expanded.steps)) if isinstance(expanded, Path) else ">limit"
            stats: dict = {}
            started = time.perf_counter()
            w = cfl_reach(g, nf, stats=stats)
            goal_s = time.perf_counter() - started
            goal_round = "-" if w is None else str(w.table.born(root))
            print(
                f"{n:>6} {m:>6} {elapsed:>8.3f} {len(table.facts):>8} {table.pops:>8}"
                f" {reachable:>9} {witness_s:>9} {walk:>6} {goal_s:>8.3f} {stats['facts']:>10}"
                f" {goal_round:>10}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
