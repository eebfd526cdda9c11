"""Edge-labeled graphs, walks, and the line-based graph file format.

Vertices are the integers ``0 .. vertex_count-1``.  Every edge carries a
single printable, non-whitespace character drawn from the graph's declared
alphabet; there are no unlabeled or empty-string edges.  Parallel edges and
self-loops are allowed (edges form a multiset).  Undirected edges are stored
with their endpoints in canonical ``(min, max)`` order and read the same
label in both traversal directions.

A :class:`Path` is a walk: a start vertex plus a sequence of steps, each
naming an edge index and a traversal direction.  Walks may repeat vertices
and edges.  The empty path is a valid path from a vertex to itself, and its
yield is the empty string.

File format (strict line positions, trailing blank lines ignored)::

    <directed|undirected|dag> <n> <m>
    <alphabet as one run of distinct characters; may be empty>
    <u> <v> <label>          (m edge lines)
    <source> <target>

The ``dag`` kind parses as a directed graph plus a parse-time acyclicity
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .errors import (
    InvalidPathError,
    KindError,
    ParseError,
    SemanticError,
    build_object,
    content_lines,
    parse_ints,
)

DIRECTED = "directed"
UNDIRECTED = "undirected"


class Edge(NamedTuple):
    u: int
    v: int
    label: str


class Step(NamedTuple):
    """One move of a walk: which edge, and whether it is traversed v->u."""

    edge: int
    reverse: bool = False


def _check_symbol(ch: str) -> None:
    if len(ch) != 1 or not ch.isprintable() or ch.isspace():
        raise ValueError(f"labels must be single printable non-whitespace characters, got {ch!r}")


@dataclass(frozen=True)
class LabeledGraph:
    kind: str
    vertex_count: int
    edges: tuple[Edge, ...]
    source: int
    target: int
    alphabet: frozenset[str]

    def __post_init__(self):
        if self.kind not in (DIRECTED, UNDIRECTED):
            raise ValueError(f"kind must be {DIRECTED!r} or {UNDIRECTED!r}, got {self.kind!r}")
        if self.vertex_count < 1:
            raise ValueError("a graph needs at least one vertex")
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        for ch in self.alphabet:
            _check_symbol(ch)
        edges = []
        for e in self.edges:
            e = Edge(*e)
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise ValueError(f"edge {e} has an endpoint outside 0..{self.vertex_count - 1}")
            if e.label not in self.alphabet:
                raise ValueError(f"edge label {e.label!r} is not in the declared alphabet")
            if self.kind == UNDIRECTED and e.u > e.v:
                e = Edge(e.v, e.u, e.label)
            edges.append(e)
        object.__setattr__(self, "edges", tuple(edges))
        for name in ("source", "target"):
            v = getattr(self, name)
            if not 0 <= v < self.vertex_count:
                raise ValueError(f"{name} vertex {v} out of range")


@dataclass(frozen=True)
class Path:
    """A walk given by its start vertex and a sequence of steps."""

    start: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(Step(*s) for s in self.steps))

    def __len__(self) -> int:
        return len(self.steps)


def adjacency(g: LabeledGraph) -> list[list[tuple[int, int, str, bool]]]:
    """Outgoing moves per vertex as ``(edge_index, head, label, reverse)``.

    For undirected graphs each non-loop edge contributes a move in both
    directions.  Each vertex's list is ordered by edge index, which is the
    tie-breaking order every enumerating solver uses.
    """
    adj: list[list[tuple[int, int, str, bool]]] = [[] for _ in range(g.vertex_count)]
    for i, e in enumerate(g.edges):
        adj[e.u].append((i, e.v, e.label, False))
        if g.kind == UNDIRECTED and e.u != e.v:
            adj[e.v].append((i, e.u, e.label, True))
    return adj


def _walk(g: LabeledGraph, p: Path) -> Iterator[tuple[int, int, str]]:
    """Yield (tail, head, label) per step, validating as it goes."""
    if not 0 <= p.start < g.vertex_count:
        raise InvalidPathError(f"start vertex {p.start} out of range")
    at = p.start
    for n, step in enumerate(p.steps):
        if not 0 <= step.edge < len(g.edges):
            raise InvalidPathError(f"step {n} references edge {step.edge}, which does not exist")
        e = g.edges[step.edge]
        if step.reverse:
            if g.kind != UNDIRECTED:
                raise InvalidPathError(f"step {n} traverses a directed edge backwards")
            tail, head = e.v, e.u
        else:
            tail, head = e.u, e.v
        if tail != at:
            raise InvalidPathError(f"step {n} starts at vertex {tail}, but the walk is at {at}")
        yield tail, head, e.label
        at = head


def path_endpoints(g: LabeledGraph, p: Path) -> tuple[int, int]:
    """Validate ``p`` against ``g`` and return its (start, end) vertices."""
    at = p.start
    for _, head, _ in _walk(g, p):
        at = head
    return p.start, at


def path_yield(g: LabeledGraph, p: Path) -> str:
    """The string of labels read along ``p``; empty for the empty path."""
    return "".join(label for _, _, label in _walk(g, p))


def is_dag(g: LabeledGraph) -> Optional[tuple[int, ...]]:
    """A topological order of ``g``, or ``None`` if it has a directed cycle.

    Only meaningful for directed graphs; undirected input is a KindError.
    Self-loops count as cycles.
    """
    if g.kind != DIRECTED:
        raise KindError("acyclicity is a directed-graph notion")
    indeg = [0] * g.vertex_count
    out: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in g.edges:
        indeg[e.v] += 1
        out[e.u].append(e.v)
    queue = [v for v in range(g.vertex_count) if indeg[v] == 0]
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != g.vertex_count:
        return None
    return tuple(order)


def parse_graph(text: str) -> LabeledGraph:
    """Parse the line-based graph format described in the module docstring."""
    lines = content_lines(text)
    if len(lines) < 3:
        raise ParseError("expected a header, an alphabet line, and a source/target line", line=max(1, len(lines)))
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be '<kind> <n> <m>'", line=1)
    kind_word, n_text, m_text = header
    if kind_word not in (DIRECTED, UNDIRECTED, "dag"):
        raise ParseError(f"unknown graph kind {kind_word!r}", line=1)
    n, m = parse_ints((n_text, m_text), "vertex and edge counts must be integers", 1)
    if n < 1:
        raise SemanticError("a graph needs at least one vertex", line=1)
    if m < 0:
        raise SemanticError("negative edge count", line=1)

    alpha = lines[1].strip()
    if len(set(alpha)) != len(alpha):
        raise ParseError("alphabet characters must be distinct", line=2)
    for ch in alpha:
        if not ch.isprintable() or ch.isspace():
            raise ParseError(f"bad alphabet character {ch!r}", line=2)
    alphabet = frozenset(alpha)

    if len(lines) != m + 3:
        raise ParseError(f"expected {m} edge lines plus a final source/target line", line=len(lines))

    edges = []
    for i in range(m):
        line_no = 3 + i
        tokens = lines[2 + i].split()
        if len(tokens) != 3:
            raise ParseError("edge line must be '<u> <v> <label>'", line=line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=line_no) from None
        label = tokens[2]
        if len(label) != 1:
            raise ParseError("edge label must be a single character", line=line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise SemanticError(f"vertex id out of range in edge {u} {v}", line=line_no)
        if label not in alphabet:
            raise SemanticError(f"label {label!r} is not in the declared alphabet", line=line_no)
        edges.append(Edge(u, v, label))

    last_no = m + 3
    tokens = lines[m + 2].split()
    if len(tokens) != 2:
        raise ParseError("final line must be '<source> <target>'", line=last_no)
    s, t = parse_ints(tokens, "source and target must be integers", last_no)
    if not (0 <= s < n and 0 <= t < n):
        raise SemanticError("source or target out of range", line=last_no)

    kind = UNDIRECTED if kind_word == UNDIRECTED else DIRECTED
    g = build_object(LabeledGraph, kind, n, tuple(edges), s, t, alphabet)
    if kind_word == "dag" and is_dag(g) is None:
        raise SemanticError("graph declared 'dag' contains a directed cycle")
    return g


def render_graph(g: LabeledGraph) -> str:
    """Render ``g`` so that ``parse_graph(render_graph(g)) == g``."""
    lines = [f"{g.kind} {g.vertex_count} {len(g.edges)}", "".join(sorted(g.alphabet))]
    lines.extend(f"{e.u} {e.v} {e.label}" for e in g.edges)
    lines.append(f"{g.source} {g.target}")
    return "\n".join(lines) + "\n"
