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
check.  A graph has at most :data:`MAX_VERTICES` vertices; a file declaring
more fails on line 1.  :func:`parse_graph` checks the shape of each line, and
:class:`LabeledGraph` is the one place that checks graph invariants, so a
file's line-shape faults are reported before its semantic ones.

A graph stores its edges as three columns, so it holds no object per edge
for the garbage collector to walk: ``us`` and ``vs``, tuples of ints, and
``labels``, a string whose character ``i`` is edge ``i``'s label.
``LabeledGraph.edges`` is a view that builds :class:`Edge` tuples from the
columns on access.  Edge lines as :func:`render_graph` writes them, in ASCII
text with ``"\\n"`` (or ``"\\r\\n"``) line ends and fields one space apart,
are read by one pass over their bytes that makes no object per line or field,
and one ``json.loads`` of the ids; any other text goes line by line.  The
constructor checks one set of both endpoint columns' types, the label set, and
``min`` and ``max`` of the ids (on an undirected graph, ``min(us)`` and
``max(vs)`` once its edges are in ``(min, max)`` order), so no Python function
runs per edge; only a failed check starts a per-line or per-edge loop, to name
the first line or edge at fault, so faults keep their messages and order.
Walk searches read :func:`edge_ends`, chains of ints built from the columns:
end ``2e`` reads edge ``e`` forward and end ``2e + 1`` reads it in reverse.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import eq, gt, itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    InvalidPathError,
    InvariantError,
    KindError,
    ParseError,
    SemanticError,
    TooLargeError,
    build_object,
    content_lines,
    parse_ints,
    symbol_alphabet,
)

DIRECTED = "directed"
UNDIRECTED = "undirected"

# The most vertices a graph may have, whether read, generated or reduced: every
# solver sizes its arrays by the vertex count, so a larger one must fail as input,
# not as a MemoryError.
MAX_VERTICES = 2**20


class Edge(NamedTuple):
    u: int
    v: int
    label: str


class Step(NamedTuple):
    """One move of a walk: which edge, and whether it is traversed v->u."""

    edge: int
    reverse: bool = False


@dataclass(frozen=True, init=False)
class LabeledGraph:
    """An edge-labeled graph, checked on construction; ``alphabet`` may be a string of symbols.

    Edge ``i`` is ``us[i] -labels[i]-> vs[i]``.  ``LabeledGraph(kind, n,
    edges, source, target, alphabet)`` takes the edges as ``(u, v, label)``
    triples; :meth:`from_columns` takes the three columns.
    """

    kind: str
    vertex_count: int
    us: tuple[int, ...]
    vs: tuple[int, ...]
    labels: str
    source: int
    target: int
    alphabet: frozenset[str]

    def __init__(
        self, kind: str, vertex_count: int, edges: Iterable[tuple[int, int, str]],
        source: int, target: int, alphabet: Collection[str],
    ):
        edges = tuple(edges)
        if set(map(len, edges)) - {3}:
            raise ValueError("edges must be (u, v, label) triples")
        us, vs, labels = (tuple(map(itemgetter(i), edges)) for i in range(3))
        self._init_checked(kind, vertex_count, us, vs, labels, source, target, alphabet)

    @classmethod
    def from_columns(
        cls, kind: str, vertex_count: int, us: Sequence[int], vs: Sequence[int], labels: Sequence[str],
        source: int, target: int, alphabet: Collection[str],
    ) -> LabeledGraph:
        """The graph whose edge ``i`` is ``us[i] -labels[i]-> vs[i]``; ``labels`` is usually a string."""
        g = cls.__new__(cls)
        g._init_checked(kind, vertex_count, us, vs, labels, source, target, alphabet)
        return g

    def _init_checked(self, kind, n, us, vs, labels, source, target, alphabet) -> None:
        """Check the invariants and set the fields, undirected edges put in ``(min, max)`` order."""
        if kind not in (DIRECTED, UNDIRECTED):
            raise InvariantError(f"kind must be {DIRECTED!r} or {UNDIRECTED!r}, got {kind!r}", "kind")
        if type(n) is not int:
            raise InvariantError(f"vertex count must be an integer, got {n!r}", "vertex_count")
        if n < 1:
            raise InvariantError("a graph needs at least one vertex", "vertex_count")
        if n > MAX_VERTICES:
            raise TooLargeError(f"vertex count {n} is over the limit of {MAX_VERTICES}")
        alphabet = symbol_alphabet(alphabet)
        if not len(us) == len(vs) == len(labels):
            raise InvariantError("the edge columns differ in length", "edges")
        # whole columns at once; the per-edge loop runs only to name the first edge at fault
        if us:
            given = us, vs
            fits = {*map(type, us), *map(type, vs)} <= {int} and alphabet.issuperset(labels)
            if fits and kind == UNDIRECTED:  # then in (min, max) order, us holds the least id and vs the greatest
                swap = list(compress(count(), map(gt, us, vs)))
                if swap:
                    us, vs = list(us), list(vs)
                    for i in swap:
                        us[i], vs[i] = vs[i], us[i]
            if not (fits and min(us) >= 0 and max(vs) < n
                    and (kind == UNDIRECTED or min(vs) >= 0 and max(us) < n)):
                _raise_first_edge_fault(n, *given, labels, alphabet)
        for name, end in (("source", source), ("target", target)):
            if type(end) is not int:
                raise InvariantError(f"{name} must be an integer, got {end!r}", name)
            if not 0 <= end < n:
                raise InvariantError("source or target out of range", name)
        labels = labels if type(labels) is str else "".join(labels)
        for name, value in zip(
            ("kind", "vertex_count", "us", "vs", "labels", "source", "target", "alphabet"),
            (kind, n, tuple(us), tuple(vs), labels, source, target, alphabet),
        ):
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> EdgeView:
        """The edges as :class:`Edge` tuples, built from the columns on each access."""
        return EdgeView(self)


def _raise_first_edge_fault(n: int, us, vs, labels, alphabet: frozenset[str]) -> None:
    for i, (u, v, label) in enumerate(zip(us, vs, labels)):
        if type(u) is not int or type(v) is not int:
            raise InvariantError(f"vertex ids must be integers in edge {u!r} {v!r}", "edges", i)
        if not (0 <= u < n and 0 <= v < n):
            raise InvariantError(f"vertex id out of range in edge {u} {v}", "edges", i)
        if label not in alphabet:
            raise InvariantError(f"label {label!r} is not in the declared alphabet", "edges", i)


class EdgeView(Sequence):
    """A graph's edges as a read-only sequence of :class:`Edge`, built on each access.

    ``len`` builds nothing; ``tuple(g.edges)`` builds them all.
    """

    __slots__ = ("_g",)

    def __init__(self, g: LabeledGraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.us)

    def __getitem__(self, i: int) -> Edge:
        g = self._g
        return tuple.__new__(Edge, (g.us[i], g.vs[i], g.labels[i]))

    def __iter__(self) -> Iterator[Edge]:
        g = self._g
        return map(tuple.__new__, repeat(Edge), zip(g.us, g.vs, g.labels))


@dataclass(frozen=True)
class Path:
    """A walk given by its start vertex and a tuple of :class:`Step`."""

    start: int
    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)


def edge_ends(g: LabeledGraph, both: bool = False) -> tuple[list[int], list[int], list[int]]:
    """The edge ends leaving each vertex, as chains, and the head of every end.

    End ``2e`` reads edge ``e`` forward and end ``2e + 1`` in reverse; both
    read ``g.labels[e]``, and ``heads[k]`` is the vertex end ``k`` enters.
    ``first[v]`` is the first end leaving ``v``, ``after[k]`` the next end at
    end ``k``'s tail, and ``-1`` ends a chain, so a walk runs ``k = first[v]``,
    ``while k >= 0: ...; k = after[k]``: two flat lists, none per vertex.  A
    vertex's ends are in edge order, the tie-breaking order of every walk
    search.  A directed graph chains only its forward ends unless ``both`` is
    set; otherwise an edge is chained at both its endpoints, a self-loop once.
    """
    n, m = g.vertex_count, len(g.us)
    heads = [0] * (2 * m)
    heads[0::2], heads[1::2] = g.vs, g.us
    step, tails = 2, g.us  # the forward ends alone
    if both or g.kind == UNDIRECTED:
        step, tails = 1, [0] * (2 * m)
        tails[0::2], tails[1::2] = g.us, g.vs
        for k in compress(count(1, 2), map(eq, g.us, g.vs)):  # a self-loop's reverse end goes to chain n
            tails[k] = n
    first, after = [-1] * (n + 1), [-1] * (2 * m)
    for k, tail in zip(count(step * (len(tails) - 1), -step), reversed(tails)):  # last end first
        after[k] = first[tail]
        first[tail] = k
    first.pop()  # chain n
    return first, after, heads


def _walk(g: LabeledGraph, p: Path) -> Iterator[tuple[int, int, str]]:
    """Yield (tail, head, label) per step, validating as it goes."""
    if not 0 <= p.start < g.vertex_count:
        raise InvalidPathError(f"start vertex {p.start} out of range")
    at = p.start
    us, vs, labels = g.us, g.vs, g.labels
    for n, (edge, reverse) in enumerate(p.steps):
        if not 0 <= edge < len(us):
            raise InvalidPathError(f"step {n} references edge {edge}, which does not exist")
        if reverse:
            if g.kind != UNDIRECTED:
                raise InvalidPathError(f"step {n} traverses a directed edge backwards")
            tail, head = vs[edge], us[edge]
        else:
            tail, head = us[edge], vs[edge]
        if tail != at:
            raise InvalidPathError(f"step {n} starts at vertex {tail}, but the walk is at {at}")
        yield tail, head, labels[edge]
        at = head


def path_endpoints(g: LabeledGraph, p: Path) -> tuple[int, int]:
    """The (start, end) vertices of ``p``, the end read off its last step alone.

    ``p`` must fit ``g``: :func:`path_yield` checks that as it reads the labels.
    """
    if not p.steps:
        return p.start, p.start
    edge, reverse = p.steps[-1]
    return p.start, g.us[edge] if reverse else g.vs[edge]


def path_yield(g: LabeledGraph, p: Path) -> str:
    """The string of labels read along ``p``; empty for the empty path."""
    return "".join(label for _, _, label in _walk(g, p))


def is_dag(g: LabeledGraph, index: Optional[tuple[list[int], ...]] = None) -> Optional[tuple[int, ...]]:
    """A topological order of ``g``, or ``None`` if it has a directed cycle.

    Only meaningful for directed graphs; undirected input is a KindError.
    Self-loops count as cycles.  ``index`` is the ``(first, after, heads)``
    chains :func:`edge_ends` built of ``g`` when the caller walks them too.
    """
    if g.kind != DIRECTED:
        raise KindError("acyclicity is a directed-graph notion")
    first, after, heads = edge_ends(g) if index is None else index
    indeg = [0] * g.vertex_count
    for v in g.vs:
        indeg[v] += 1
    queue = [v for v in range(g.vertex_count) if indeg[v] == 0]
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        k = first[v]
        while k >= 0:
            w = heads[k]
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
            k = after[k]
    if len(order) != g.vertex_count:
        return None
    return tuple(order)


# All bytes but those str.split splits ASCII text at; the ids' bytes, each swapped with a byte ASCII lacks.
_NOT_SPACE = bytes(b for b in range(256) if b > 127 or not chr(b).isspace())
_ID_BYTES = b"0123456789-,"
_SWAP = bytes(b ^ 0x80 if b & 0x7F in _ID_BYTES else b for b in range(256))


def _lines(text: str) -> tuple[list[str], Optional[bytes]]:
    """``content_lines(text)`` and None; or, if ASCII ``text`` breaks only at ``"\\n"`` and ``"\\r\\n"``,
    its first, second and last line, and the bytes of the lines between, each with its ``"\\n"``."""
    lf = text.replace("\r\n", "\n") if "\r" in text else text  # then no "\r" may be left
    if lf.isascii() and not any(map(lf.__contains__, "\r\v\f\x1c\x1d\x1e")):  # splitlines breaks at these
        lf = lf.rstrip()  # the trailing blank lines, which content_lines drops
        first, last = lf.find("\n"), lf.rfind("\n")
        second = lf.find("\n", first + 1)
        if second >= 0:
            return [lf[:first], lf[first + 1:second], lf[last + 1:]], lf[second + 1:last + 1].encode()
    return content_lines(text), None


def _edge_region(region: bytes, m: int, alpha: str) -> Optional[tuple[list[int], list[int], str]]:
    """The edge columns of ``region`` if it is ``m`` lines ``"<u> <v> <label>\\n"`` one space apart, else None,
    read by whole-region ``translate``, ``count`` and ``replace`` calls and one ``json.loads``."""
    keep = alpha.encode().translate(_SWAP)  # the labels
    for a in keep.translate(None, bytes(range(128))):  # the labels ids also spell ("#01"), swapped at line ends
        region = region.replace(b" %c\n" % (a ^ 0x80), b" %c\n" % a)
    labels = region.translate(_SWAP, bytes(set(range(256)).difference(keep))).decode()
    ends = region.translate(bytes.maketrans(b" ", b","), keep + b"\n")
    # Each line ends in its one label and has two spaces (m is tested first: a header may declare any count),
    # and ids hold only ASCII digits, "-" and ",", of which JSON reads what int reads or refuses it ("007").
    if (len(labels) != m or ends.translate(None, _ID_BYTES) or region.translate(None, _NOT_SPACE) != b"  \n" * m
            or region.translate(bytes.maketrans(keep, b"\xff" * len(keep))).count(b" \xff\n") != m):
        return None
    try:
        ends = json.loads(b"[%b]" % ends[:-1])
    except ValueError:
        return None
    return (ends[0::2], ends[1::2], labels) if len(ends) == 2 * m else None


def _edge_lines(body: list[str]) -> tuple[list[int], list[int], str]:
    """The edge columns of the edge lines ``body`` (line 3 on), or the ParseError of the first line at fault."""
    ends, labels = [], []
    for line_no, line in enumerate(body, 3):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("edge line must be '<u> <v> <label>'", line=line_no)
        ends += parse_ints(tokens[:2], "edge endpoints must be integers", line_no)
        if len(tokens[2]) != 1:
            raise ParseError("edge label must be a single character", line=line_no)
        labels.append(tokens[2])
    return ends[0::2], ends[1::2], "".join(labels)


def parse_graph(text: str) -> LabeledGraph:
    """Parse the line-based graph format described in the module docstring."""
    lines, region = _lines(text)
    if len(lines) < 3:
        raise ParseError("expected a header, an alphabet line, and a source/target line", line=max(1, len(lines)))
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be '<kind> <n> <m>'", line=1)
    kind_word, n_text, m_text = header
    if kind_word not in (DIRECTED, UNDIRECTED, "dag"):
        raise ParseError(f"unknown graph kind {kind_word!r}", line=1)
    n, m = parse_ints((n_text, m_text), "vertex and edge counts must be integers", 1)
    if n > MAX_VERTICES:
        raise SemanticError(f"vertex count {n} is over the limit of {MAX_VERTICES}", line=1)
    if m < 0:
        raise SemanticError("negative edge count", line=1)
    alpha = lines[1].strip()
    if len(set(alpha)) != len(alpha):
        raise ParseError("alphabet characters must be distinct", line=2)

    columns = None if region is None else _edge_region(region, m, alpha)
    if columns is None:  # the per-line parse, which names the first line at fault
        lines[2:2] = region.decode().splitlines() if region else []
        if len(lines) != m + 3:
            raise ParseError(f"expected {m} edge lines plus a final source/target line", line=len(lines))
        columns = _edge_lines(lines[2:-1])

    tokens = lines[-1].split()
    if len(tokens) != 2:
        raise ParseError("final line must be '<source> <target>'", line=m + 3)
    s, t = parse_ints(tokens, "source and target must be integers", m + 3)

    kind = UNDIRECTED if kind_word == UNDIRECTED else DIRECTED
    g = build_object(
        LabeledGraph.from_columns, kind, n, *columns, s, t, alpha,
        vertex_count=1, alphabet=2, edges=3, source=m + 3, target=m + 3,
    )
    if kind_word == "dag" and is_dag(g) is None:
        raise SemanticError("graph declared 'dag' contains a directed cycle")
    return g


def render_graph(g: LabeledGraph) -> str:
    """Render ``g`` so that ``parse_graph(render_graph(g)) == g``."""
    m = len(g.us)
    fields: list = [None] * (3 * m)  # u, v and label of each edge in turn, for one format call
    fields[0::3], fields[1::3], fields[2::3] = g.us, g.vs, g.labels
    head = f"{g.kind} {g.vertex_count} {m}\n{''.join(sorted(g.alphabet))}\n"
    return head + ("%d %d %s\n" * m) % tuple(fields) + f"{g.source} {g.target}\n"
