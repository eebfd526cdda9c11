#!/usr/bin/env python3
"""Closed-loop benchmark of the ``lcreach`` command line, run in-process.

    python3 perfbench/run.py --workload cfl-saturate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client calls ``lcreach.cli.dispatch`` and starts the next call when the
previous one returns; there are no threads.  Set-up draws the workload's
instances from the seeded generators and writes them to files, so the program
sees only files.  Rounds run the same instance list in a fixed shuffled order
until ``--seconds`` have passed at a round boundary, with at least two rounds.
The first run of each instance is checked against its oracle (see
``workloads.py``); every later run must reproduce the first one byte for byte.

``--trace 0`` prints the end-to-end metrics, with times scaled to a reference
machine speed measured between operations.  ``--trace 1`` alternates plain
and traced rounds and prints the per-layer metrics from the traced ones, per
operation; layer times are self times, so they add up to ``cli.dispatch_s``.
The last line of standard output is one JSON object.  ``--workload all`` runs
every workload, both ways, each in a fresh process, and prints every metric.

The workloads, the layers each loads and bypasses, and the layer metric to
end-to-end metric mapping are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cfl-saturate", "certify-pipeline", "enum-mix")


class SetupError(Exception):
    """The program or the inputs could not be prepared."""


def import_program() -> float:
    """Import ``lcreach`` from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import lcreach.cli
    except ImportError as exc:
        raise SetupError(f"cannot import lcreach from {src}: {exc}") from None
    elapsed = time.perf_counter() - started
    if not Path(lcreach.cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"lcreach was imported from {lcreach.cli.__file__}, not from {src}")
    return elapsed


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lcreach end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        import_s = import_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             import_s, ROOT / ".perfbench_work")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
