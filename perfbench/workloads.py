"""Seeded instance lists for the benchmark workloads, with their oracles.

Each builder takes a seeded ``random.Random`` and returns the operations of
one round.  An operation is one instance taken to a verdict: an optional
``reduce`` call, a ``solve`` call, and for certificate checks a ``verify``
call.  The oracle fields say which exit code is right and what a witness must
look like; they are computed here from the generator's own parameters, never
from the solver under test.  ``small`` gives the tiny sizes used for warm-up
and for the smoke test.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from lcreach import generators
from lcreach.grammar import render_cfg
from lcreach.graph import DIRECTED, UNDIRECTED, Edge, LabeledGraph, render_graph
from lcreach.languages import d2_grammar, nbc_d2_member
from lcreach.reductions import eval_circuit, render_circuit, render_vc, vc_brute

import oracles

BRACKETS = "()[]"
GRAMMAR_FILE = "d2.cfg"


@dataclass
class Op:
    kind: str
    solve: list[str]
    reduce: Optional[list[str]] = None
    verify: Optional[list[str]] = None
    # Exit code the oracle predicts; None when an unreachable answer has no
    # oracle (random graphs under the context-free constraint).
    expect: Optional[int] = None
    accepts: Callable[[str], bool] = oracles.balanced
    walk_len: Optional[int] = None  # exact witness length, where the oracle knows it
    files: dict[str, str] = field(default_factory=dict)

    @property
    def graph_file(self) -> str:
        return self.solve[self.solve.index("--graph") + 1]


def _graph_op(name: str, g: LabeledGraph, *solve_args: str, **kw) -> Op:
    path = f"{name}.graph"
    return Op(solve=["solve", "--graph", path, *solve_args], files={path: render_graph(g)}, **kw)


def _reduce_op(name: str, reduction: str, text: str, *solve_args: str, **kw) -> Op:
    src, out = f"{name}.in", f"{name}.graph"
    return Op(
        reduce=["reduce", reduction, "--in", src, "--out", out],
        solve=["solve", "--graph", out, *solve_args],
        files={src: text},
        **kw,
    )


def _certified(op: Op, name: str) -> Op:
    """Solve against the grammar file, write the witness, and verify it."""
    witness = f"{name}.witness.json"
    op.solve += ["--grammar", GRAMMAR_FILE, "--witness-out", witness]
    op.verify = ["verify", "--graph", op.graph_file, "--grammar", GRAMMAR_FILE, "--witness", witness]
    op.files[GRAMMAR_FILE] = render_cfg(d2_grammar())
    return op


def _circuit(rng: random.Random, gates: int, value: int):
    while True:
        c = generators.random_circuit(rng, gates // 4 + 2, gates)
        if eval_circuit(c) == value:
            return c


def _chain(word: str) -> LabeledGraph:
    edges = tuple(Edge(i, i + 1, ch) for i, ch in enumerate(word))
    return LabeledGraph(DIRECTED, len(word) + 1, edges, 0, len(word), frozenset(BRACKETS))


def _balanced_word(rng: random.Random, length: int) -> str:
    while True:
        w = generators.random_balanced_string(rng, length)
        if len(w) == length:
            return w


def cfl_saturate(rng: random.Random, small: bool) -> list[Op]:
    """Random bracket graphs with m = 5n under ``d2``, plus dd2 and circuit inputs."""
    ops = []
    directed = [8, 10] if small else [100] * 56 + [150] * 4 + [200] * 8 + [250, 300]
    for i, n in enumerate(directed):
        g = generators.random_graph(rng, n, 5 * n, BRACKETS)
        ops.append(_graph_op(f"d{i}", g, "--builtin", "d2", kind=f"d2-directed-{n}"))
    for i, n in enumerate([8] if small else [80, 80]):
        g = generators.random_graph(rng, n, 5 * n, BRACKETS, kind=UNDIRECTED)
        ops.append(_graph_op(f"u{i}", g, "--builtin", "d2", kind=f"d2-undirected-{n}"))
    for i, n in enumerate([6] if small else [60, 60]):
        text = render_graph(generators.random_graph(rng, n, 5 * n, BRACKETS))
        ops.append(
            _reduce_op(f"x{i}", "d2-to-dd2", text, "--builtin", "dd2",
                       kind=f"dd2-{n}", accepts=oracles.doubled_balanced)
        )
    for i, value in enumerate([1, 0] if small else [1, 1, 0, 0]):
        c = _circuit(rng, 20 if small else 1000, value)
        ops.append(
            _reduce_op(f"c{i}", "mcvp-to-d2", render_circuit(c), "--builtin", "d2",
                       kind=f"mcvp-{value}", expect=1 - value)
        )
    return ops


def certify_pipeline(rng: random.Random, small: bool) -> list[Op]:
    """Reduce, solve with a grammar file, and verify the written witness."""
    ops = []
    for i, length in enumerate([6, 10] if small else [100, 150, 200] + [250] * 4):
        word = _balanced_word(rng, length)
        op = _graph_op(f"w{i}", _chain(word), kind=f"chain-{length}", expect=0, walk_len=length)
        ops.append(_certified(op, f"w{i}"))
    for i, value in enumerate([1, 0] if small else [1] * 7 + [0]):
        c = _circuit(rng, 20 if small else 1000, value)
        op = _reduce_op(f"c{i}", "mcvp-to-d2", render_circuit(c), kind=f"mcvp-{value}", expect=1 - value)
        ops.append(_certified(op, f"c{i}"))
    for i, member in enumerate([True, False] if small else [True] * 3 + [False] * 2):
        while True:
            s = generators.random_nbc_string(rng, 3 if small else rng.randint(6, 8))
            if nbc_d2_member(s) == member:
                break
        op = _reduce_op(f"b{i}", "nbc-to-d2", s + "\n", kind=f"nbc-{int(member)}", expect=0 if member else 1)
        ops.append(_certified(op, f"b{i}"))
    return ops


def _vc_op(name: str, inst, **kw) -> Op:
    accepts = partial(oracles.vc_certificate, n=inst.n, k=inst.k, edges=inst.edges)
    return _reduce_op(name, "vc-to-a", render_vc(inst), "--builtin", "lang-a", "--mode", "dag-enum",
                      accepts=accepts, **kw)


def _first_cover_rank(inst) -> Optional[int]:
    """How many candidate covers ``dag-enum`` meets up to the first valid one.

    The construction lists each vertex's ``1`` edge before its ``0`` edge, so
    its paths spell the bit strings in this order.
    """
    for rank, bits in enumerate(itertools.product((1, 0), repeat=inst.n), start=1):
        chosen = {i for i, bit in enumerate(bits, start=1) if bit}
        if len(chosen) <= inst.k and all(i in chosen or j in chosen for i, j in inst.edges):
            return rank
    return None


def _walk_count(g: oracles.Graph, max_len: int, horizon: int) -> int:
    """Walks of length <= horizon from the source that can still reach the
    target within ``max_len``: the bounded search's work, up to shared yields."""
    dist = {g.target: 0}
    back: dict[int, list[int]] = {}
    for u, v, _ in g.edges:
        back.setdefault(v, []).append(u)
    queue = deque([g.target])
    while queue:
        v = queue.popleft()
        for u in back.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    count = {g.source: 1}
    total = 1
    for length in range(horizon):
        nxt: dict[int, int] = {}
        for u, v, _ in g.edges:
            if u in count and dist.get(v, max_len + 1) <= max_len - length - 1:
                nxt[v] = nxt.get(v, 0) + count[u]
        count = nxt
        total += sum(count.values())
    return total


def _bounded_op(rng: random.Random, name: str, decided: bool, small: bool) -> Op:
    n, m, max_len = (5, 12, 6) if small else (12, 40, 12)
    low, high = (0, 10**9) if small else (10**4, 4 * 10**4)
    while True:
        g = generators.random_graph(rng, n, m, BRACKETS)
        view = oracles.read_graph(render_graph(g))
        shortest = oracles.shortest_balanced_walk(view, max_len)
        # The search also expands part of the level after the answer's length.
        work = _walk_count(view, max_len, min(shortest + 1, max_len) if shortest else max_len)
        if (shortest is not None) == decided and low <= work <= high:
            break
    return _graph_op(
        name, g, "--builtin", "d2", "--mode", "bounded-enum", "--max-len", str(max_len),
        kind=f"bounded-{int(decided)}", expect=0 if decided else 3, walk_len=shortest,
    )


def _regular_op(rng: random.Random, name: str, n: int, reachable: bool) -> Op:
    while True:
        g = generators.random_graph(rng, n, 2 * n, "x")
        dist = oracles.bfs_distance(n, ((e.u, e.v) for e in g.edges), g.source, g.target)
        if (dist is not None) == reachable:
            break
    return _reduce_op(
        name, "reach-to-abstar", render_graph(g), "--builtin", "abstar", "--mode", "regular",
        kind=f"regular-{int(reachable)}", expect=0 if reachable else 1,
        accepts=oracles.ab_star, walk_len=None if dist is None else 2 * dist,
    )


def _tree_op(rng: random.Random, name: str, n: int, path_len: int, member: bool, graph_kind: str) -> Op:
    """A random tree whose source-to-target path spells a planted word."""
    word = _balanced_word(rng, path_len)
    if not member:
        cut = rng.randrange(path_len)
        word = word[:cut] + rng.choice([c for c in BRACKETS if c != word[cut]]) + word[cut + 1 :]
    edges = [Edge(i, i + 1, ch) for i, ch in enumerate(word)]
    for v in range(path_len + 1, n):
        edges.append(Edge(rng.randrange(v), v, rng.choice(BRACKETS)))
    rng.shuffle(edges)
    g = LabeledGraph(graph_kind, n, tuple(edges), 0, path_len, frozenset(BRACKETS))
    return _graph_op(
        name, g, "--builtin", "d2", "--mode", "tree", kind=f"tree-{int(member)}",
        expect=0 if oracles.balanced(word) else 1, accepts=word.__eq__, walk_len=path_len,
    )


def enum_mix(rng: random.Random, small: bool) -> list[Op]:
    """The modes that never run the fixpoint: enumeration, product BFS, tree."""
    ops = []
    for i, (n, cover) in enumerate(
        [(4, True), (4, False)] if small
        else [(10, True), (10, False), (11, True), (11, False), (12, True), (12, False)]
    ):
        while True:
            inst = generators.random_vc_instance(rng, n, rng.randint(n, 2 * n), rng.randint(1, n - 2))
            rank = _first_cover_rank(inst)
            if vc_brute(inst) == cover and (small or not cover or 200 <= rank <= 800):
                break
        ops.append(_vc_op(f"v{i}", inst, kind=f"vc-{int(cover)}", expect=0 if cover else 1))
    # Known defect: dag enumeration recurses once per edge, so this 1,377-vertex
    # graph raises RecursionError.  Kept so that completed_ratio shows it.
    deep = generators.random_vc_instance(rng, 50, 100, 50)
    ops.append(_vc_op("deep", deep, kind="vc-deep", expect=0))
    for i, decided in enumerate([True, False] if small else [True] * 5 + [False] * 5):
        ops.append(_bounded_op(rng, f"k{i}", decided, small))
    for i, (n, reachable) in enumerate(
        [(20, True), (20, False)] if small else [(6000, True)] * 4 + [(6000, False)]
    ):
        ops.append(_regular_op(rng, f"r{i}", n, reachable))
    for i in range(2 if small else 36):
        graph_kind = DIRECTED if i % 2 else UNDIRECTED
        ops.append(_tree_op(rng, f"t{i}", 12 if small else 3000, 6 if small else 60, i % 3 != 2, graph_kind))
    return ops


BUILDERS = {
    "cfl-saturate": cfl_saturate,
    "certify-pipeline": certify_pipeline,
    "enum-mix": enum_mix,
}
