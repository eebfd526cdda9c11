#!/usr/bin/env python3
"""Fixed-seed timings of the graph I/O layers and the reductions, per workload.

The instances are those of the benchmark workloads (``perfbench/workloads.py``)
at ``--seed``, drawn from the generator seeded as ``perfbench`` seeds it: every
graph file an operation hands to ``solve`` (for a reduction, the reduced graph
it writes) and every reduction input.  For each workload the script times,
over all its instances:

* ``graph.parse_graph``: parsing each graph file;
* ``graph.LabeledGraph``: building each parsed graph again from its edges as
  ``(u, v, label)`` tuples;
* ``graph.edges``: one pass over each graph's ``edges`` view;
* ``graph.render_graph``: writing each graph back as text;
* ``graph.adjacency``: the move lists every enumerating solver starts from;
* ``reductions.parse_circuit`` and ``reductions.parse_vc``: parsing each
  circuit and vertex-cover input file;
* ``reductions.<kind>``: each reduction, on its already parsed input.

A row is ``{workload, layer, seconds, counters, peak_rss}``.  ``seconds`` is
the best of ``--repeats`` passes over the instances.  ``counters`` holds the
calls and edges of one pass (input edges for a parse or build, output edges
for a reduction, 0 for the circuit and vertex-cover parsers), the seconds the
cyclic garbage collector ran in the best pass (``gc_s``), and the objects the
collector tracks that the outputs of one pass keep alive (``tracked``), which
each full collection walks.  ``peak_rss`` is the process's peak resident set
in MB so far.
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
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)
from lcreach import (  # noqa: E402
    LabeledGraph,
    adjacency,
    d2reach_to_dd2_ureach,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_graph,
    parse_vc,
    reach_to_abstar_ureach,
    render_graph,
    vc_to_a_dagreach,
)

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


def instances(workload: str, seed: int, small: bool) -> tuple[list, list]:
    """The workload's solver graph texts, and its reductions as ``(kind, input text, parsed input)``."""
    graphs, reductions = [], []
    for op in workloads.BUILDERS[workload](random.Random(f"{workload}:{seed}"), small):
        if op.reduce is None:
            graphs.append(op.files[op.graph_file])
            continue
        kind = op.reduce[1]
        parse, reduce = REDUCTIONS[kind]
        text = op.files[op.reduce[op.reduce.index("--in") + 1]]
        parsed = parse(text)
        reductions.append((kind, text, parsed))
        graphs.append(render_graph(reduce(parsed)))
    return graphs, reductions


def timed(calls: list, repeats: int, clock: GcClock) -> tuple[float, int, float]:
    """Best of ``repeats`` passes over ``calls`` (thunks): seconds, output edges, GC seconds."""
    best = (float("inf"), 0, 0.0)
    for _ in range(repeats):
        gc_before, edges = clock.seconds, 0
        started = time.perf_counter()
        for call in calls:
            out = call()
            edges += len(getattr(out, "us", ()))
        elapsed = time.perf_counter() - started
        best = min(best, (elapsed, edges, clock.seconds - gc_before))
    return best


def one_pass(edges) -> None:
    """Iterate over ``edges`` once, keeping nothing."""
    deque(edges, maxlen=0)


def tracked(calls: list) -> int:
    """Objects the collector tracks that the outputs of one pass over ``calls`` keep alive."""
    outputs: list = []
    gc.collect()
    before = len(gc.get_objects())
    for call in calls:
        outputs.append(call())
    gc.collect()
    return len(gc.get_objects()) - before


def bench(workload: str, seed: int, small: bool, repeats: int, clock: GcClock) -> list[dict]:
    texts, reductions = instances(workload, seed, small)
    parsed = [parse_graph(text) for text in texts]
    edges = sum(len(g.us) for g in parsed)
    layers = {
        "graph.parse_graph": [lambda t=t: parse_graph(t) for t in texts],
        "graph.LabeledGraph": [
            lambda g=g, e=tuple(g.edges): LabeledGraph(g.kind, g.vertex_count, e, g.source, g.target, g.alphabet)
            for g in parsed
        ],
        "graph.edges": [lambda g=g: one_pass(g.edges) for g in parsed],
        "graph.render_graph": [lambda g=g: render_graph(g) for g in parsed],
        "graph.adjacency": [lambda g=g: adjacency(g) for g in parsed],
    }
    for kind, text, value in reductions:
        parse, reduce = REDUCTIONS[kind]
        if parse in INPUT_PARSERS:
            layers.setdefault(f"reductions.{parse.__name__}", []).append(lambda f=parse, t=text: f(t))
        layers.setdefault(f"reductions.{kind}", []).append(lambda f=reduce, x=value: f(x))
    rows = []
    for layer, calls in layers.items():
        seconds, out_edges, gc_s = timed(calls, repeats, clock)
        rows.append({
            "workload": workload,
            "layer": layer,
            "seconds": round(seconds, 6),
            "counters": {
                "calls": len(calls),
                "edges": out_edges if layer.startswith("reductions.") else edges,
                "gc_s": round(gc_s, 6),
                "tracked": tracked(calls),
            },
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
    for workload in args.workload or workloads.BUILDERS:
        rows += bench(workload, args.seed, args.small, args.repeats, clock)
    for row in rows:
        counters = row["counters"]
        print(f"{row['workload']:17} {row['layer']:28} {row['seconds']:10.6f} s  edges {counters['edges']:>8}"
              f"  gc {counters['gc_s']:.6f} s  tracked {counters['tracked']:>7}")
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[args.label] = rows
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
