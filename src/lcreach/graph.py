"""Edge-labeled graphs, walks, and the line-based graph file format.

Vertices are the integers ``0 .. vertex_count-1``.  Every edge carries a
single printable, non-whitespace character drawn from the graph's declared
alphabet; there are no unlabeled or empty-string edges.  Parallel edges and
self-loops are allowed (edges form a multiset).  Undirected edges are stored
with their endpoints in canonical ``(min, max)`` order and read the same
label in both traversal directions.

A :class:`Path` is a walk: a start vertex plus a tuple of :class:`Step`,
each naming an edge index and a traversal direction.  Walks may repeat vertices
and edges.  The empty path is a valid path from a vertex to itself, and its
yield is the empty string.

File format (strict line positions, trailing blank lines ignored)::

    <directed|undirected|dag> <n> <m>
    <alphabet as one run of distinct characters; may be empty>
    <u> <v> <label>          (m edge lines)
    <source> <target>

The ``dag`` kind parses as a directed graph plus a parse-time acyclicity
check.  :func:`parse_graph` checks the shape of each line, and
:class:`LabeledGraph` is the one place that checks graph invariants, so a
file's line-shape faults are reported before its semantic ones.

The parser reads edge lines by columns (a split per 4,096 lines, an ``int``
map per endpoint column, ``Edge`` tuples built by ``tuple.__new__``), so no
Python function runs per edge; only a failed check starts the per-line loop,
to name the first line at fault.  The constructor checks all edges in one
loop, which makes a new ``Edge`` only to swap an undirected one.  Either way
faults keep their messages and their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    InvalidPathError,
    InvariantError,
    KindError,
    ParseError,
    SemanticError,
    ascii_int,
    ascii_only_ints,
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


def _as_edges(triples: Iterable[tuple[int, int, str]]) -> tuple[Edge, ...]:
    """``triples`` as :class:`Edge` tuples, built without a call of ``Edge.__new__`` per edge."""
    # via a list: tuple(map(...)) re-tracks its growing tuple as young, and young collections walk it
    return tuple(list(map(tuple.__new__, repeat(Edge), triples)))


class Step(NamedTuple):
    """One move of a walk: which edge, and whether it is traversed v->u."""

    edge: int
    reverse: bool = False


@dataclass(frozen=True)
class LabeledGraph:
    """An edge-labeled graph, checked on construction; ``alphabet`` may be a string of symbols."""

    kind: str
    vertex_count: int
    edges: tuple[Edge, ...]
    source: int
    target: int
    alphabet: frozenset[str]

    def __post_init__(self):
        n = self.vertex_count
        if self.kind not in (DIRECTED, UNDIRECTED):
            raise InvariantError(f"kind must be {DIRECTED!r} or {UNDIRECTED!r}, got {self.kind!r}", "kind")
        if type(n) is not int:
            raise InvariantError(f"vertex count must be an integer, got {n!r}", "vertex_count")
        if n < 1:
            raise InvariantError("a graph needs at least one vertex", "vertex_count")
        for ch in self.alphabet:
            if len(ch) != 1 or not ch.isprintable() or ch.isspace():
                raise InvariantError(f"bad alphabet character {ch!r}", "alphabet")
        alphabet = frozenset(self.alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        edges = list(self.edges)
        for i, (u, v, label) in enumerate(edges):
            if type(u) is not int or type(v) is not int:
                raise InvariantError(f"vertex ids must be integers in edge {u!r} {v!r}", "edges", i)
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantError(f"vertex id out of range in edge {u} {v}", "edges", i)
            if label not in alphabet:
                raise InvariantError(f"label {label!r} is not in the declared alphabet", "edges", i)
            if u > v and self.kind == UNDIRECTED:
                edges[i] = tuple.__new__(Edge, (v, u, label))
        object.__setattr__(self, "edges", tuple(edges))
        for name in ("source", "target"):
            end = getattr(self, name)
            if type(end) is not int:
                raise InvariantError(f"{name} must be an integer, got {end!r}", name)
            if not 0 <= end < n:
                raise InvariantError("source or target out of range", name)


@dataclass(frozen=True)
class Path:
    """A walk given by its start vertex and a tuple of :class:`Step`."""

    start: int
    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)


def adjacency(g: LabeledGraph) -> list[list[tuple[int, int, str, bool]]]:
    """Outgoing moves per vertex as ``(edge_index, head, label, reverse)``.

    For undirected graphs each non-loop edge contributes a move in both
    directions.  Each vertex's list is ordered by edge index, which is the
    tie-breaking order every enumerating solver uses.
    """
    adj: list[list[tuple[int, int, str, bool]]] = [[] for _ in range(g.vertex_count)]
    undirected = g.kind == UNDIRECTED
    for i, (u, v, label) in enumerate(g.edges):
        adj[u].append((i, v, label, False))
        if undirected and u != v:
            adj[v].append((i, u, label, True))
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


def _edge_lines(body: list[str]) -> tuple[Edge, ...]:
    """The edges of the edge lines ``body`` (line 3 on), or the ParseError of the first line at fault."""
    edges: list[Edge] = []
    try:
        for at in range(0, len(body), 4096):  # chunks bound the token strings alive at once
            # "\0" is never a label, so in one split of the lines joined by " \0 ", all are
            # "<u> <v> <label>" exactly when the only "\0" tokens are every fourth one.
            m, text = min(4096, len(body) - at), " \0 ".join(body[at:at + 4096])
            tokens, to_int = text.split(), int if ascii_only_ints(text) else ascii_int
            if not (len(tokens) == 4 * m - 1 and tokens.count("\0") == tokens[3::4].count("\0") == m - 1):
                raise ValueError
            labels = tokens[2::4]
            if set(map(len, labels)) - {1}:
                raise ValueError
            fields = zip(map(to_int, tokens[0::4]), map(to_int, tokens[1::4]), labels)
            edges.extend(map(tuple.__new__, repeat(Edge), fields))
            del tokens, labels, fields  # before the next chunk's split
        return tuple(edges)
    except ValueError:
        pass
    triples = []  # the per-line parse, which names the first line at fault
    for line_no, line in enumerate(body, 3):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("edge line must be '<u> <v> <label>'", line=line_no)
        u, v = parse_ints(tokens[:2], "edge endpoints must be integers", line_no)
        if len(tokens[2]) != 1:
            raise ParseError("edge label must be a single character", line=line_no)
        triples.append((u, v, tokens[2]))
    return _as_edges(triples)


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
    if m < 0:
        raise SemanticError("negative edge count", line=1)
    alpha = lines[1].strip()
    if len(set(alpha)) != len(alpha):
        raise ParseError("alphabet characters must be distinct", line=2)
    if len(lines) != m + 3:
        raise ParseError(f"expected {m} edge lines plus a final source/target line", line=len(lines))

    edges = _edge_lines(lines[2:-1])

    tokens = lines[-1].split()
    if len(tokens) != 2:
        raise ParseError("final line must be '<source> <target>'", line=len(lines))
    s, t = parse_ints(tokens, "source and target must be integers", len(lines))

    kind = UNDIRECTED if kind_word == UNDIRECTED else DIRECTED
    g = build_object(
        LabeledGraph, kind, n, edges, s, t, alpha,
        vertex_count=1, alphabet=2, edges=3, source=len(lines), target=len(lines),
    )
    if kind_word == "dag" and is_dag(g) is None:
        raise SemanticError("graph declared 'dag' contains a directed cycle")
    return g


def render_graph(g: LabeledGraph) -> str:
    """Render ``g`` so that ``parse_graph(render_graph(g)) == g``."""
    lines = [f"{g.kind} {g.vertex_count} {len(g.edges)}", "".join(sorted(g.alphabet))]
    lines.extend(map("%d %d %s".__mod__, g.edges))
    lines.append(f"{g.source} {g.target}")
    return "\n".join(lines) + "\n"
