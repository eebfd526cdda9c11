#!/usr/bin/env python3
"""Fixed-seed timings of the graph I/O layers, the reductions and the solve modes, per workload.

The instances are those of the benchmark workloads (``perfbench/workloads.py``)
at ``--seed``, drawn from the generator seeded as ``perfbench`` seeds it: every
graph file an operation hands to ``solve`` (for a reduction, the reduced graph
it writes) and every reduction input.  For each workload the script times,
over all its instances:

* ``graph.parse_graph``: parsing each graph file;
* ``graph.parse_graph_tabs``: parsing each graph file with its field
  separators replaced by tabs, which sends it to the per-line parse;
* ``graph.LabeledGraph``: building each parsed graph again from its edges as
  ``(u, v, label)`` tuples;
* ``graph.edges``: one pass over each graph's ``edges`` view;
* ``graph.render_graph``: writing each graph back as text;
* ``graph.edge_ends``: the edge-end chains (two flat int lists) every walk search starts from;
* ``reductions.parse_circuit`` and ``reductions.parse_vc``: parsing each
  circuit and vertex-cover input file;
* ``reductions.<kind>``: each reduction, on its already parsed input;
* ``solve.<mode>``: the runner ``lcreach solve`` calls for each operation of
  that mode, with the arguments and the language the CLI builds from the
  operation's command line, on the already parsed graph;
* ``solve.fixpoint``: the full least fixpoint (``cfl_reach_table`` with no
  goal) of each ``cfl`` operation's graph, which ``solve.cfl`` stops early,
  at the root's round or, after a dense round's look-ahead, a round before;
* ``solve.witness``: ``witness_derivation`` of the root of each reachable
  ``cfl`` operation on its goal-stopped table, built untimed;
* ``solve.check``: ``check_derivation`` on that derivation, written to JSON
  and read back untimed, as ``lcreach verify`` reads it from a witness file.

A row is ``{workload, layer, seconds, counters, peak_rss}``.  ``seconds``
is the best of ``--repeats`` passes over the instances, in plain seconds:
on a host whose speed drifts, compare two checkouts by alternating runs.
``counters`` holds the calls and edges of one pass (input edges for a
parse, build or solve, output edges for a reduction, 0 for the circuit and
vertex-cover parsers), the
seconds the cyclic garbage collector ran in the best pass (``gc_s``), and the
objects the collector tracks that the outputs of one pass keep alive
(``tracked``), which each full collection walks.  A solve row adds the sums
of the counters in the reports' ``stats``, a call that raised adding 0 to
each (on ``solve.fixpoint``, the full table's ``facts`` and ``row_deltas``),
and ``errors``, the calls that raised (the deep ``vc-to-a`` instance's
``RecursionError``); ``solve.witness`` and
``solve.check`` add ``nodes``, the derivations' node count, instead.  ``peak_rss`` is the
process's peak resident set in MB so far.
The rows go into the JSON object in ``--out`` under ``--label``; other labels
already in the file are kept, so one file can hold two checkouts' numbers:

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_io.json --label change
    PYTHONPATH=src python3 scripts/bench.py --small --repeats 1 --out io.json
"""

import argparse
import gc
import json
import random
import resource
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402
from lcreach import (  # noqa: E402
    LabeledGraph,
    Language,
    NormalForm,
    cfl_reach_table,
    cli,
    d2reach_to_dd2_ureach,
    edge_ends,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_graph,
    parse_vc,
    reach_to_abstar_ureach,
    render_graph,
    vc_to_a_dagreach,
)
from lcreach.solve import ReachTable, check_derivation, witness_derivation  # noqa: E402

# reduce kind -> (input parser, reduction), as ``lcreach reduce`` runs them
REDUCTIONS = {
    "reach-to-abstar": (parse_graph, reach_to_abstar_ureach),
    "nbc-to-d2": (lambda text: text.strip("\n"), nbc_to_d2_dagreach),
    "mcvp-to-d2": (parse_circuit, mcvp_to_d2_reach),
    "d2-to-dd2": (parse_graph, d2reach_to_dd2_ureach),
    "vc-to-a": (parse_vc, vc_to_a_dagreach),
}
# the input parsers that only reductions use, each timed as its own row
INPUT_PARSERS = (parse_circuit, parse_vc)


class GcClock:
    """Seconds spent in the cyclic garbage collector, read from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0
        gc.callbacks.append(self)

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


def instances(workload: str, seed: int, small: bool, workdir: Path) -> tuple[list, list]:
    """The workload's solves and reductions.

    A solve is ``(graph text, args, language)``, a reduction ``(kind, input
    text, parsed input)``.  ``args`` is what ``lcreach solve`` parses from
    the operation's command line, and the language is what it loads from
    there, with the operation's files written into ``workdir``.
    """
    ops = workloads.BUILDERS[workload](random.Random(f"{workload}:{seed}"), small)
    harness.write_files(ops, workdir)
    parser = cli.build_parser()
    solves, reductions = [], []
    for op in ops:
        if op.reduce is None:
            text = op.files[op.graph_file]
        else:
            kind = op.reduce[1]
            parse, reduce = REDUCTIONS[kind]
            source = op.files[op.reduce[op.reduce.index("--in") + 1]]
            parsed = parse(source)
            reductions.append((kind, source, parsed))
            text = render_graph(reduce(parsed))
        args = parser.parse_args(op.solve)
        with harness.inside(workdir):
            solves.append((text, args, cli._load_language(args)))
    return solves, reductions


def timed(calls: list, repeats: int, clock: GcClock) -> tuple[float, float]:
    """Best of ``repeats`` passes over ``calls`` (thunks): seconds and GC seconds."""
    best = (float("inf"), 0.0)
    for _ in range(repeats):
        gc_before = clock.seconds
        started = time.perf_counter()
        for call in calls:
            call()
        best = min(best, (time.perf_counter() - started, clock.seconds - gc_before))
    return best


def run_solve(g: LabeledGraph, args: argparse.Namespace, lang: Language) -> tuple:
    """The walk and derivation of ``lcreach solve``'s runner on ``g`` (None if it raised), and its counters."""
    report = cli.SolveReport(decision="unreachable")
    counters = {"edges": len(g.us), "errors": 0}
    try:
        found = cli._RUNNERS[args.mode](g, lang, args, report)
    except Exception:  # the deep vc-to-a RecursionError (ROADMAP item 5) counts, and the next call runs
        return None, dict(counters, errors=1)
    return found, dict(counters, **report.stats)


def full_fixpoint(g: LabeledGraph, nf: NormalForm) -> tuple:
    """The least fixpoint of ``g`` under ``nf`` with no goal, and its counters."""
    table = cfl_reach_table(g, nf)
    return table, {"edges": len(g.us), "errors": 0, "facts": len(table.facts), "row_deltas": table.pops}


def derivation(table: ReachTable, root: tuple) -> tuple:
    """The derivation of ``root``, rebuilt from ``table``, and its counters."""
    nodes = witness_derivation(table, root)
    return nodes, {"edges": len(table.graph.us), "nodes": len(nodes)}


def checked(g: LabeledGraph, nf: NormalForm, nodes: list) -> tuple:
    """The steps ``check_derivation`` reads from ``nodes`` on ``g``, and its counters."""
    return check_derivation(g, nf, nodes), {"edges": len(g.us), "nodes": len(nodes)}


def one_pass(edges) -> None:
    """Iterate over ``edges`` once, keeping nothing."""
    deque(edges, maxlen=0)


def kept(calls: list) -> tuple[int, list]:
    """The objects the collector tracks that the outputs of one pass over ``calls`` keep alive, and the outputs."""
    outputs: list = []
    gc.collect()
    before = len(gc.get_objects())
    for call in calls:
        outputs.append(call())
    gc.collect()
    return len(gc.get_objects()) - before, outputs


def bench(workload: str, seed: int, small: bool, repeats: int, clock: GcClock, workdir: Path) -> list[dict]:
    solves, reductions = instances(workload, seed, small, workdir)
    texts = [text for text, _, _ in solves]
    parsed = [parse_graph(text) for text in texts]
    edges = sum(len(g.us) for g in parsed)
    layers = {
        "graph.parse_graph": [lambda t=t: parse_graph(t) for t in texts],
        "graph.parse_graph_tabs": [lambda t=t.replace(" ", "\t"): parse_graph(t) for t in texts],
        "graph.LabeledGraph": [
            lambda g=g, e=tuple(g.edges): LabeledGraph(g.kind, g.vertex_count, e, g.source, g.target, g.alphabet)
            for g in parsed
        ],
        "graph.edges": [lambda g=g: one_pass(g.edges) for g in parsed],
        "graph.render_graph": [lambda g=g: render_graph(g) for g in parsed],
        "graph.edge_ends": [lambda g=g: edge_ends(g) for g in parsed],
    }
    for kind, text, value in reductions:
        parse, reduce = REDUCTIONS[kind]
        if parse in INPUT_PARSERS:
            layers.setdefault(f"reductions.{parse.__name__}", []).append(lambda f=parse, t=text: f(t))
        layers.setdefault(f"reductions.{kind}", []).append(lambda f=reduce, x=value: f(x))
    for g, (_, args, lang) in zip(parsed, solves):
        layers.setdefault(f"solve.{args.mode}", []).append(lambda g=g, a=args, lang=lang: run_solve(g, a, lang))
        if args.mode == "cfl":
            layers.setdefault("solve.fixpoint", []).append(lambda g=g, nf=lang.normal_form: full_fixpoint(g, nf))
            root = (g.source, lang.normal_form.start, g.target)
            table = cfl_reach_table(g, lang.normal_form, goal=root)
            if root in table.facts:
                layers.setdefault("solve.witness", []).append(lambda t=table, r=root: derivation(t, r))
                nodes = json.loads(json.dumps(witness_derivation(table, root)))
                layers.setdefault("solve.check", []).append(
                    lambda g=g, nf=lang.normal_form, d=nodes: checked(g, nf, d)
                )
    rows = []
    for layer, calls in layers.items():
        seconds, gc_s = timed(calls, repeats, clock)
        tracked, outputs = kept(calls)
        counters = {"calls": len(calls), "edges": edges, "gc_s": round(gc_s, 6), "tracked": tracked}
        if layer.startswith("reductions."):
            counters["edges"] = sum(len(getattr(out, "us", ())) for out in outputs)
        elif layer.startswith("solve."):
            keys = dict.fromkeys(key for _, done in outputs for key in done)
            counters.update({key: sum(done.get(key, 0) for _, done in outputs) for key in keys})
        rows.append({
            "workload": workload,
            "layer": layer,
            "seconds": round(seconds, 6),
            "counters": counters,
            "peak_rss": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--small", action="store_true", help="the workloads' tiny sizes")
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS), action="append")
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="run")
    args = parser.parse_args()

    clock = GcClock()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or workloads.BUILDERS:
            rows += bench(workload, args.seed, args.small, args.repeats, clock, Path(tmp) / workload)
    for row in rows:
        counters = row["counters"]
        solved = "".join(f"  {key} {value}" for key, value in counters.items()
                         if key not in ("calls", "edges", "gc_s", "tracked"))
        print(f"{row['workload']:17} {row['layer']:28} {row['seconds']:10.6f} s"
              f"  edges {counters['edges']:>8}"
              f"  gc {counters['gc_s']:.6f} s  tracked {counters['tracked']:>7}{solved}")
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[args.label] = rows
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
