"""Verdict checks that share no code with the solvers under test.

Graph files are read with a parser of their own, walks are replayed edge by
edge, and languages are recognized by stack matchers.  The answer oracles are
plain searches: BFS for ordinary reachability and a length-indexed table of
balanced walks for the bounded search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

_CLOSE = {"(": ")", "[": "]"}
_UNDOUBLE = {"(a": "(", "b)": ")", "[c": "[", "d]": "]"}


def balanced(w: str) -> bool:
    """Nonempty and balanced over the brackets ``()`` and ``[]``."""
    stack: list[str] = []
    for ch in w:
        if ch in _CLOSE:
            stack.append(_CLOSE[ch])
        elif not stack or stack.pop() != ch:
            return False
    return bool(w) and not stack


def doubled_balanced(w: str) -> bool:
    """The doubled-bracket language: undo ``(a b) [c d]`` pairs, then balance."""
    pairs = [w[i : i + 2] for i in range(0, len(w), 2)]
    if len(w) % 2 or any(p not in _UNDOUBLE for p in pairs):
        return False
    return balanced("".join(_UNDOUBLE[p] for p in pairs))


def ab_star(w: str) -> bool:
    return w == "ab" * (len(w) // 2)


def vc_certificate(w: str, n: int, k: int, edges: Iterable[tuple[int, int]]) -> bool:
    """``w`` spells the instance's budget and adjacency and picks a cover of size <= k."""
    present = {(min(i, j), max(i, j)) for i, j in edges}
    adjacency = "".join(
        "1" if (i, j) in present else "0" for i in range(1, n) for j in range(i + 1, n + 1)
    )
    pieces = w.split("#")
    if pieces[:2] != ["1" * k + "0" * (n - k), adjacency] or len(pieces) != n + 2:
        return False
    chosen = {i for i, bit in enumerate(pieces[2:], start=1) if bit == "1"}
    if any(bit not in ("0", "1") for bit in pieces[2:]) or len(chosen) > k:
        return False
    return all(i in chosen or j in chosen for i, j in present)


@dataclass(frozen=True)
class Graph:
    directed: bool
    n: int
    edges: tuple[tuple[int, int, str], ...]
    source: int
    target: int


def read_graph(text: str) -> Graph:
    """Parse the graph file format: header, alphabet, edge lines, ``s t``."""
    lines = text.rstrip("\n").split("\n")
    kind, n, m = lines[0].split()
    edges = []
    for line in lines[2 : 2 + int(m)]:
        u, v, label = line.split()
        u, v = int(u), int(v)
        if kind == "undirected" and u > v:
            u, v = v, u
        edges.append((u, v, label))
    s, t = lines[2 + int(m)].split()
    return Graph(kind != "undirected", int(n), tuple(edges), int(s), int(t))


def replay(g: Graph, start: int, steps: list[list[int]]) -> Optional[str]:
    """The yield of a source-to-target walk, or None if the walk does not fit ``g``."""
    if start != g.source:
        return None
    at = start
    out = []
    for edge, reverse in steps:
        if not 0 <= edge < len(g.edges) or (reverse and g.directed):
            return None
        u, v, label = g.edges[edge]
        tail, head = (v, u) if reverse else (u, v)
        if tail != at:
            return None
        out.append(label)
        at = head
    return "".join(out) if at == g.target else None


def bfs_distance(n: int, edges: Iterable[tuple[int, int]], s: int, t: int) -> Optional[int]:
    """Directed hop distance from s to t, or None when t is unreachable."""
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return dist[u]
        for v in out[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return None


def shortest_balanced_walk(g: Graph, max_len: int) -> Optional[int]:
    """Length of the shortest balanced source-to-target walk of a directed graph.

    ``spans[L]`` holds the pairs (u, v) joined by a balanced walk of exactly
    length L: either a matched pair around a shorter balanced walk (or around
    nothing), or two shorter balanced walks back to back.
    """
    opens = [(u, v, _CLOSE[c]) for u, v, c in g.edges if c in _CLOSE]
    closes: dict[tuple[int, str], list[int]] = {}
    for u, v, c in g.edges:
        closes.setdefault((u, c), []).append(v)
    spans: dict[int, set[tuple[int, int]]] = {}
    for length in range(2, max_len + 1, 2):
        inner = {(x, x) for x in range(g.n)} if length == 2 else spans[length - 2]
        by_start: dict[int, list[int]] = {}
        for x, y in inner:
            by_start.setdefault(x, []).append(y)
        found = set()
        for u, x, close in opens:
            for y in by_start.get(x, ()):
                found.update((u, v) for v in closes.get((y, close), ()))
        for left in range(2, length - 1, 2):
            right_from: dict[int, list[int]] = {}
            for x, v in spans[length - left]:
                right_from.setdefault(x, []).append(v)
            for u, x in spans[left]:
                found.update((u, v) for v in right_from.get(x, ()))
        spans[length] = found
        if (g.source, g.target) in found:
            return length
    return None
