#!/usr/bin/env python3
"""One sha256 per benchmark operation, so that two checkouts' outputs can be compared.

Every operation of the benchmark workloads (``perfbench/workloads.py``) at
each ``--seed``, drawn from the generator seeded as ``perfbench`` seeds it,
runs through ``cli.dispatch`` twice: plain, then with ``--json`` on its
``solve`` and ``verify`` commands.  Each run has its workload's files written
into a fresh directory, as ``perfbench`` writes them, and runs as the
benchmark does: ``reduce`` if the operation has one, then ``solve`` unless
``reduce`` failed, then ``verify`` if ``solve`` found a witness to check.  Its
digest covers each command's exit code, stdout and stderr, the graph
``reduce`` wrote and the witness file ``solve`` wrote.  ``--out`` gets a JSON
object with one key per operation and flag, ``<workload> <seed> <index>
<kind> plain|json``, on a line of its own, so a diff of two checkouts' files
names the operations whose outputs changed.  ``--check FILE`` regenerates a
file's seeds at its size (the small sizes when they give exactly its keys),
prints every key whose digest moved, a key only one side has included, and
exits 1 if any did:

    PYTHONPATH=src python3 scripts/digest.py --seed 1 2 3 --out digests.json
    PYTHONPATH=src python3 scripts/digest.py --small --out small.json
    PYTHONPATH=src python3 scripts/digest.py --check tests/data/digests-small.json
"""

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402
from lcreach import cli  # noqa: E402


def call(argv: list[str], h) -> int:
    """Run ``argv`` through ``cli.dispatch``; hash its exit code, stdout and stderr into ``h``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.dispatch(argv)
    h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    return code


def digest(op, flags: list[str]) -> str:
    """The sha256 of one run of ``op`` in the directory of its files, with ``flags`` on solve and verify."""
    h = hashlib.sha256()
    if op.reduce is not None:
        code = call(op.reduce, h)
        if code != 0:
            return h.hexdigest()
        h.update(Path(op.reduce[-1]).read_bytes())
    code = call(op.solve + flags, h)
    if "--witness-out" in op.solve and code == 0:
        h.update(Path(op.solve[op.solve.index("--witness-out") + 1]).read_bytes())
    if op.verify is not None and code == 0:
        call(op.verify + flags, h)
    return h.hexdigest()


FLAGS = (("plain", []), ("json", ["--json"]))


def operations(seeds: list[int], small: bool):
    """``(workload, seed, ops)`` for every workload at each of ``seeds``, as ``perfbench`` draws them."""
    for seed in seeds:
        for workload, build in workloads.BUILDERS.items():
            yield workload, seed, build(random.Random(f"{workload}:{seed}"), small)


def key(workload: str, seed: int, i: int, op, flag: str) -> str:
    return f"{workload} {seed} {i:03d} {op.kind} {flag}"


def digests(seeds: list[int], small: bool, workdir: Path) -> dict[str, str]:
    """The digest of every operation at each of ``seeds``, plain and with ``--json``, run under ``workdir``."""
    found = {}
    for workload, seed, ops in operations(seeds, small):
        for flag, flags in FLAGS:
            run_dir = workdir / f"{workload}-{seed}-{flag}"
            harness.write_files(ops, run_dir)
            with harness.inside(run_dir):
                for i, op in enumerate(ops):
                    found[key(workload, seed, i, op, flag)] = digest(op, flags)
    return found


def moved(pinned: dict[str, str], workdir: Path) -> list[str]:
    """The keys of ``pinned`` whose digests differ when regenerated at its seeds and size, under ``workdir``.

    The seeds are read from the keys.  The size is the small one when the
    small workloads give exactly the keys of ``pinned``, else the full one.
    A key that only ``pinned`` or only the regenerated digests have counts as moved.
    """
    seeds = sorted({int(k.split()[1]) for k in pinned})
    small = set(pinned) == {
        key(workload, seed, i, op, flag)
        for workload, seed, ops in operations(seeds, small=True)
        for i, op in enumerate(ops)
        for flag, _ in FLAGS
    }
    found = digests(seeds, small, workdir)
    return sorted(k for k in pinned.keys() | found.keys() if pinned.get(k) != found.get(k))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--small", action="store_true", help="the workloads' tiny sizes")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out")
    target.add_argument("--check", metavar="FILE", help="compare with a digest file; exit 1 if any moved")
    args = parser.parse_args()
    if args.check:
        pinned = json.loads(Path(args.check).read_text())
        with tempfile.TemporaryDirectory() as tmp:
            changed = moved(pinned, Path(tmp))
        for k in changed:
            print(k)
        print(f"{len(changed)} of {len(pinned)} digests moved from {args.check}")
        return 1 if changed else 0
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(args.seed, args.small, Path(tmp))
    Path(args.out).write_text(json.dumps(found, indent=0) + "\n")
    print(f"{len(found)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
