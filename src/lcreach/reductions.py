"""Instance transformations between decision problems and reachability.

Each construction maps an instance of a source problem to a labeled graph
whose constrained reachability answer matches the source answer:

1. :func:`reach_to_abstar_ureach` — plain directed reachability becomes
   ``(ab)*``-constrained reachability on an undirected graph.  Every edge is
   subdivided through a fresh midpoint, ``a`` into it and ``b`` out of it, so
   a walk that turns back immediately reads ``aa`` or ``bb`` and dies.
2. :func:`nbc_to_d2_dagreach` — a block-choice string becomes a
   series-parallel DAG: a spine spelling the prefix, then one junction pair
   per block with one branch per choice.
3. :func:`mcvp_to_d2_reach` — a monotone circuit becomes bracket-constrained
   reachability.  Consumers wrap their operand gadgets in ``(`` ``)`` or
   ``[`` ``]`` depending on which output port they draw from; because the
   two consumers of a gate use different ports, escaping a gadget through
   the other consumer's closing edge mismatches the open bracket and can
   never be repaired.
4. :func:`d2reach_to_dd2_ureach` — forgets edge directions by doubling
   symbols: each directed edge becomes an undirected two-edge path whose
   forward reading is ``(a``, ``b)``, ``[c`` or ``d]``.  Traversed backwards
   the pair appears reversed, which the doubled language never contains.
5. :func:`vc_to_a_dagreach` — a vertex-cover instance becomes a chain DAG
   spelling budget and adjacency, then one two-way choice diamond per
   vertex.  Each source-to-target path spells a full certificate string, so
   paths correspond exactly to candidate covers.

The module also carries the instance types (:class:`Circuit`,
:class:`VcInstance`), their file formats, evaluation/brute-force oracles,
and the witness decoder for construction 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import (
    EmptyChoiceError,
    ForeignSymbolError,
    InvalidPathError,
    KindError,
    ParseError,
    PathMismatchError,
    PortConflictError,
    TooLargeError,
    build_object,
    content_lines,
    parse_ints,
)
from .graph import DIRECTED, UNDIRECTED, Edge, LabeledGraph, Path, path_endpoints, path_yield
from .languages import adjacency_bits, parse_nbc

# --- circuits ---------------------------------------------------------------


@dataclass(frozen=True)
class InputGate:
    value: int


@dataclass(frozen=True)
class AndGate:
    left: int
    left_port: int
    right: int
    right_port: int


@dataclass(frozen=True)
class OrGate:
    left: int
    left_port: int
    right: int
    right_port: int


Gate = Union[InputGate, AndGate, OrGate]


def _operands(gate: Gate) -> tuple[tuple[int, int], ...]:
    if isinstance(gate, InputGate):
        return ()
    return ((gate.left, gate.left_port), (gate.right, gate.right_port))


@dataclass(frozen=True)
class Circuit:
    """A monotone circuit in topological order.

    Each gate output offers two ports; a port feeds at most one consumer, so
    fan-out is at most two and every consumer is identified by the (gate,
    port) pair it draws from.
    """

    gates: tuple[Gate, ...]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise ValueError("a circuit needs at least one gate")
        if not 0 <= self.output < len(self.gates):
            raise ValueError("output gate out of range")
        used_ports: set[tuple[int, int]] = set()
        for i, gate in enumerate(self.gates):
            if isinstance(gate, InputGate):
                if gate.value not in (0, 1):
                    raise ValueError(f"gate {i}: input value must be 0 or 1")
                continue
            if not isinstance(gate, (AndGate, OrGate)):
                raise ValueError(f"gate {i}: unknown gate type {gate!r}")
            for ref, port in _operands(gate):
                if not 0 <= ref < i:
                    raise ValueError(f"gate {i} references gate {ref}, which is not earlier")
                if port not in (1, 2):
                    raise ValueError(f"gate {i}: port must be 1 or 2, got {port}")
                if (ref, port) in used_ports:
                    raise PortConflictError(
                        f"port {port} of gate {ref} already feeds another consumer"
                    )
                used_ports.add((ref, port))


def eval_circuit(c: Circuit) -> int:
    """Topological evaluation; returns the output gate's bit."""
    values: list[int] = []
    for gate in c.gates:
        if isinstance(gate, InputGate):
            values.append(gate.value)
        elif isinstance(gate, AndGate):
            values.append(values[gate.left] & values[gate.right])
        else:
            values.append(values[gate.left] | values[gate.right])
    return values[c.output]


_GATE_WORDS = {"input": (InputGate, 1), "and": (AndGate, 4), "or": (OrGate, 4)}


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit file format.

    ``circuit <n>`` header, then n gate lines (``input 0|1``,
    ``and <l> <lport> <r> <rport>``, ``or <l> <lport> <r> <rport>`` with
    0-based gate references), then ``output <g>``.
    """
    lines = content_lines(text)
    if len(lines) < 2:
        raise ParseError("expected 'circuit <n>', gate lines, and 'output <g>'", line=max(1, len(lines)))
    header = lines[0].split()
    if len(header) != 2 or header[0] != "circuit":
        raise ParseError("header must be 'circuit <gate_count>'", line=1)
    (count,) = parse_ints(header[1:], "gate count must be an integer", 1)
    if len(lines) != count + 2:
        raise ParseError(f"expected {count} gate lines plus an output line", line=len(lines))

    gates: list[Gate] = []
    for line_no, raw in enumerate(lines[1 : count + 1], start=2):
        tokens = raw.split() or [""]
        cls, arity = _GATE_WORDS.get(tokens[0], (None, 0))
        if cls is None or len(tokens) != arity + 1:
            raise ParseError(f"bad gate line {raw!r}", line=line_no)
        gates.append(cls(*parse_ints(tokens[1:], "gate operands must be integers", line_no)))
    tokens = lines[count + 1].split()
    if len(tokens) != 2 or tokens[0] != "output":
        raise ParseError("final line must be 'output <gate>'", line=count + 2)
    (output,) = parse_ints(tokens[1:], "output gate must be an integer", count + 2)
    return build_object(Circuit, tuple(gates), output)


def render_circuit(c: Circuit) -> str:
    lines = [f"circuit {len(c.gates)}"]
    for gate in c.gates:
        if isinstance(gate, InputGate):
            lines.append(f"input {gate.value}")
        else:
            word = "and" if isinstance(gate, AndGate) else "or"
            lines.append(f"{word} {gate.left} {gate.left_port} {gate.right} {gate.right_port}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


# --- vertex cover -----------------------------------------------------------


@dataclass(frozen=True)
class VcInstance:
    """Vertex cover instance over 1-based vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex cover instances need at least one vertex")
        if not 0 <= self.k <= self.n:
            raise ValueError("budget k must satisfy 0 <= k <= n")
        canonical = set()
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            canonical.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(canonical))


def vc_brute(inst: VcInstance) -> bool:
    """Exhaustive vertex-cover decision, guarded to n <= 20."""
    if inst.n > 20:
        raise TooLargeError("brute-force vertex cover is limited to n <= 20")
    for size in range(inst.k + 1):
        for cover in itertools.combinations(range(1, inst.n + 1), size):
            chosen = set(cover)
            if all(i in chosen or j in chosen for i, j in inst.edges):
                return True
    return False


def parse_vc(text: str) -> VcInstance:
    """Parse ``vc <n> <m> <k>`` followed by m lines ``<i> <j>`` (1-based)."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty vertex cover file", line=1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != "vc":
        raise ParseError("header must be 'vc <n> <m> <k>'", line=1)
    n, m, k = parse_ints(header[1:], "counts must be integers", 1)
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} edge lines", line=len(lines))
    edges = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if len(tokens) != 2:
            raise ParseError("edge line must be '<i> <j>'", line=line_no)
        edges.add(tuple(parse_ints(tokens, "edge endpoints must be integers", line_no)))
    return build_object(VcInstance, n, frozenset(edges), k)


def render_vc(inst: VcInstance) -> str:
    lines = [f"vc {inst.n} {len(inst.edges)} {inst.k}"]
    lines.extend(f"{i} {j}" for i, j in sorted(inst.edges))
    return "\n".join(lines) + "\n"


# --- graph-building helper ---------------------------------------------------


class _Builder:
    def __init__(self, kind: str, alphabet: str):
        self.kind = kind
        self.alphabet = frozenset(alphabet)
        self.count = 0
        self.edges: list[Edge] = []

    def vertex(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, u: int, v: int, label: str) -> None:
        self.edges.append(Edge(u, v, label))

    def chain_from(self, u: int, word: str) -> int:
        """Append a fresh chain spelling ``word`` starting at ``u``."""
        for ch in word:
            nxt = self.vertex()
            self.edge(u, nxt, ch)
            u = nxt
        return u

    def chain_between(self, u: int, v: int, word: str) -> None:
        """Spell nonempty ``word`` along a fresh branch from ``u`` to ``v``."""
        for ch in word[:-1]:
            nxt = self.vertex()
            self.edge(u, nxt, ch)
            u = nxt
        self.edge(u, v, word[-1])

    def build(self, source: int, target: int) -> LabeledGraph:
        return LabeledGraph(self.kind, self.count, tuple(self.edges), source, target, self.alphabet)


# --- the five constructions ---------------------------------------------------


def reach_to_abstar_ureach(g: LabeledGraph) -> LabeledGraph:
    """Subdivide every directed edge through a midpoint labeled a/b.

    The output is undirected over {a, b} with exactly |V| + |E| vertices;
    original labels are irrelevant (plain reachability in, ``(ab)*``
    reachability out).
    """
    if g.kind != DIRECTED:
        raise KindError("the midpoint construction starts from a directed graph")
    b = _Builder(UNDIRECTED, "ab")
    for _ in range(g.vertex_count):
        b.vertex()
    for e in g.edges:
        mid = b.vertex()
        b.edge(e.u, mid, "a")
        b.edge(mid, e.v, "b")
    return b.build(g.source, g.target)


def nbc_to_d2_dagreach(w: str) -> LabeledGraph:
    """Series-parallel DAG whose source-target yields are the candidate strings.

    A spine spells the prefix; each block contributes one branch per choice
    between consecutive junctions.  Every choice must be nonempty: an empty
    choice would need an unlabeled branch, which the edge model rules out.
    """
    prefix, blocks = parse_nbc(w)
    for block in blocks:
        if any(choice == "" for choice in block):
            raise EmptyChoiceError(
                "blocks with an empty choice cannot be spelled as parallel branches"
            )
    b = _Builder(DIRECTED, "()[]")
    source = b.vertex()
    junction = b.chain_from(source, prefix)
    for block in blocks:
        nxt = b.vertex()
        for choice in block:
            b.chain_between(junction, nxt, choice)
        junction = nxt
    return b.build(source, junction)


_OPEN_OF_PORT = {1: "(", 2: "["}
_CLOSE_OF_PORT = {1: ")", 2: "]"}


def mcvp_to_d2_reach(c: Circuit) -> LabeledGraph:
    """Per-gate bracket gadgets; the output gate's entry/exit are source/target.

    Gadgets: a true input is ``in -( -> . -) -> out``; a false input is a
    disconnected in/out pair.  An AND gate adds three vertices (entry, middle,
    exit) and wraps its left operand between entry and middle and its right
    operand between middle and exit.  An OR gate adds entry and exit and wraps
    each operand in a parallel branch.  The wrapping brackets are round for a
    port-1 operand and square for a port-2 operand.
    """
    b = _Builder(DIRECTED, "()[]")
    entry: list[int] = []
    exit_: list[int] = []
    for gate in c.gates:
        if isinstance(gate, InputGate):
            vin = b.vertex()
            if gate.value:
                mid = b.vertex()
                vout = b.vertex()
                b.edge(vin, mid, "(")
                b.edge(mid, vout, ")")
            else:
                vout = b.vertex()
        elif isinstance(gate, AndGate):
            vin = b.vertex()
            mid = b.vertex()
            vout = b.vertex()
            b.edge(vin, entry[gate.left], _OPEN_OF_PORT[gate.left_port])
            b.edge(exit_[gate.left], mid, _CLOSE_OF_PORT[gate.left_port])
            b.edge(mid, entry[gate.right], _OPEN_OF_PORT[gate.right_port])
            b.edge(exit_[gate.right], vout, _CLOSE_OF_PORT[gate.right_port])
        else:
            vin = b.vertex()
            vout = b.vertex()
            b.edge(vin, entry[gate.left], _OPEN_OF_PORT[gate.left_port])
            b.edge(exit_[gate.left], vout, _CLOSE_OF_PORT[gate.left_port])
            b.edge(vin, entry[gate.right], _OPEN_OF_PORT[gate.right_port])
            b.edge(exit_[gate.right], vout, _CLOSE_OF_PORT[gate.right_port])
        entry.append(vin)
        exit_.append(vout)
    return b.build(entry[c.output], exit_[c.output])


_DOUBLED_PAIR = {"(": ("(", "a"), ")": ("b", ")"), "[": ("[", "c"), "]": ("d", "]")}


def d2reach_to_dd2_ureach(g: LabeledGraph) -> LabeledGraph:
    """Forget directions: each edge becomes an undirected 2-path.

    Read from tail to head the pair spells ``(a``, ``b)``, ``[c`` or ``d]``;
    read backwards it spells a reversed pair that no doubled-bracket string
    contains, so direction information survives undirected traversal.
    """
    if g.kind != DIRECTED:
        raise KindError("the doubling construction starts from a directed graph")
    foreign = g.alphabet - frozenset(_DOUBLED_PAIR)
    if foreign:
        raise ForeignSymbolError(
            f"labels {''.join(sorted(foreign))!r} have no doubled-symbol pair"
        )
    b = _Builder(UNDIRECTED, "()[]abcd")
    for _ in range(g.vertex_count):
        b.vertex()
    for e in g.edges:
        first, second = _DOUBLED_PAIR[e.label]
        mid = b.vertex()
        b.edge(e.u, mid, first)
        b.edge(mid, e.v, second)
    return b.build(g.source, g.target)


def vc_to_a_dagreach(inst: VcInstance) -> LabeledGraph:
    """Chain DAG whose paths spell exactly the candidate certificate strings.

    Segment one spells the unary budget and a separator; segment two the
    adjacency bit-run and a separator; segment three is one diamond per
    vertex (parallel edges labeled 1 and 0) with separators between
    consecutive diamonds and none at the end.
    """
    b = _Builder(DIRECTED, "01#")
    source = b.vertex()
    at = b.chain_from(source, "1" * inst.k + "0" * (inst.n - inst.k) + "#")
    at = b.chain_from(at, adjacency_bits(inst.n, inst.edges) + "#")
    for i in range(1, inst.n + 1):
        nxt = b.vertex()
        b.edge(at, nxt, "1")
        b.edge(at, nxt, "0")
        at = b.chain_from(nxt, "#") if i < inst.n else nxt
    return b.build(source, at)


def decode_vc_witness(p: Path, inst: VcInstance) -> set[int]:
    """Read the per-diamond bit choices of a path back into a vertex set.

    The path must be a source-to-target walk of the instance's construction
    graph; anything else is a PathMismatchError.  The decoded set is a valid
    cover of size <= k exactly when the path's yield is a ``lang-a`` member.
    """
    g = vc_to_a_dagreach(inst)
    try:
        endpoints = path_endpoints(g, p)
        text = path_yield(g, p)
    except InvalidPathError as exc:
        raise PathMismatchError(f"path does not fit the construction graph: {exc}") from None
    if endpoints != (g.source, g.target):
        raise PathMismatchError("path does not run from the construction source to its target")
    pieces = text.split("#")
    if len(pieces) != inst.n + 2:
        raise PathMismatchError("path yield does not have the certificate shape")
    return {i for i, bit in enumerate(pieces[2:], start=1) if bit == "1"}
