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

The module also carries the instance types (:class:`Circuit`, whose gates
are the tuples their file lines spell, and :class:`VcInstance`), their file
formats, evaluation/brute-force oracles, and the witness decoder for
construction 5.  Construction 5 grows quadratically, so it refuses an
instance whose graph would exceed ``graph.MAX_VERTICES`` vertices with a
:class:`TooLargeError`.  The circuit reader splits every gate line and
converts every operand with C-level maps; only a failed check reads the gate
lines one by one, to name the first line at fault, so faults keep their
messages and their order.  Every construction writes the edge columns
``us``, ``vs`` and ``labels`` of :meth:`LabeledGraph.from_columns` with
vertex numbers computed by arithmetic: 2 and 5 a branch or a run of edges
at a time, 3 one slice per gate, 1 and 4 whole columns at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .errors import (
    EmptyChoiceError,
    ForeignSymbolError,
    InvalidPathError,
    KindError,
    ParseError,
    PathMismatchError,
    PortConflictError,
    TooLargeError,
    ascii_only_ints,
    build_object,
    content_lines,
    parse_ints,
)
from .graph import DIRECTED, MAX_VERTICES, UNDIRECTED, LabeledGraph, Path, path_endpoints, path_yield
from .languages import DD2_PAIRS, adjacency_bits, parse_nbc

# --- circuits ---------------------------------------------------------------

# Operands after each gate word, as a circuit file line spells them.
_ARITY = {"input": 1, "and": 4, "or": 4}


@dataclass(frozen=True)
class Circuit:
    """A monotone circuit in topological order.

    Each gate is the tuple its file line spells: ``("input", value)``, or
    ``("and" | "or", left, left_port, right, right_port)``, every operand an
    ``int``.  Each gate output offers two ports; a port feeds at most one
    consumer, so fan-out is at most two and every consumer is identified by
    the (gate, port) pair it draws from.
    """

    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise ValueError("a circuit needs at least one gate")
        if type(self.output) is not int or not 0 <= self.output < len(self.gates):
            raise ValueError("output gate out of range")
        used_ports: set[tuple[int, int]] = set()
        for i, gate in enumerate(self.gates):
            word = gate[0] if isinstance(gate, tuple) and gate else None
            if word not in _ARITY or len(gate) != _ARITY[word] + 1:
                raise ValueError(f"gate {i}: unknown gate type {gate!r}")
            if word == "input":
                if type(gate[1]) is not int:
                    raise ValueError(f"gate {i}: operands must be integers")
                if gate[1] not in (0, 1):
                    raise ValueError(f"gate {i}: input value must be 0 or 1")
                continue
            # a bool or float operand would pass the range checks below
            if not type(gate[1]) is type(gate[2]) is type(gate[3]) is type(gate[4]) is int:
                raise ValueError(f"gate {i}: operands must be integers")
            for ref, port in (gate[1:3], gate[3:5]):
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
        if gate[0] == "input":
            values.append(gate[1])
        elif gate[0] == "and":
            values.append(values[gate[1]] & values[gate[3]])
        else:
            values.append(values[gate[1]] | values[gate[3]])
    return values[c.output]


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

    gates = _gate_lines(lines[1 : count + 1])
    tokens = lines[count + 1].split()
    if len(tokens) != 2 or tokens[0] != "output":
        raise ParseError("final line must be 'output <gate>'", line=count + 2)
    (output,) = parse_ints(tokens[1:], "output gate must be an integer", count + 2)
    return build_object(Circuit, gates, output)


def _gate_lines(body: list[str]) -> tuple[tuple, ...]:
    """The gates of the gate lines ``body`` (line 2 on), or the ParseError of the first line at fault."""
    rows = list(map(str.split, body))
    try:
        words = list(map(list.pop, rows, itertools.repeat(0)))  # IndexError on a blank line; operands stay
        if list(map(_ARITY.get, words)) == list(map(len, rows)) and ascii_only_ints("\n".join(body)):
            return tuple(map(add, zip(words), map(tuple, map(map, itertools.repeat(int), rows))))
    except (IndexError, ValueError):
        pass
    gates: list[tuple] = []  # the per-line parse, which names the first line at fault
    for line_no, raw in enumerate(body, start=2):
        word, *operands = raw.split() or [""]
        if len(operands) != _ARITY.get(word):
            raise ParseError(f"bad gate line {raw!r}", line=line_no)
        gates.append((word, *parse_ints(operands, "gate operands must be integers", line_no)))
    return tuple(gates)


def render_circuit(c: Circuit) -> str:
    lines = [f"circuit {len(c.gates)}"]
    lines.extend(" ".join(map(str, gate)) for gate in c.gates)
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


# --- the five constructions ---------------------------------------------------


def _subdivide(g: LabeledGraph, alphabet: str, halves: dict[str, tuple[str, str]]) -> LabeledGraph:
    """Undirected ``g`` with edge ``i``, ``u -x-> v``, as ``u -first- mid -second- v``, where
    ``(first, second)`` is ``halves[x]`` and ``mid = |V| + i``, so both halves are already canonical."""
    n, m = g.vertex_count, len(g.us)
    ends, mids = [0] * (2 * m), [0] * (2 * m)
    ends[0::2], ends[1::2] = g.us, g.vs
    mids[0::2] = mids[1::2] = range(n, n + m)
    labels = g.labels.translate({ord(x): first + second for x, (first, second) in halves.items()})
    return LabeledGraph.from_columns(UNDIRECTED, n + m, ends, mids, labels, g.source, g.target, alphabet)


def reach_to_abstar_ureach(g: LabeledGraph) -> LabeledGraph:
    """Subdivide every directed edge through a midpoint labeled a/b.

    The output is undirected over {a, b} with exactly |V| + |E| vertices;
    original labels are irrelevant (plain reachability in, ``(ab)*``
    reachability out).
    """
    if g.kind != DIRECTED:
        raise KindError("the midpoint construction starts from a directed graph")
    return _subdivide(g, "ab", dict.fromkeys(g.alphabet, ("a", "b")))


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
    n = len(prefix) + 1  # the vertices so far: the spine 0 .. len(prefix)
    us, vs, labels = list(range(n - 1)), list(range(1, n)), [prefix]
    junction = n - 1
    for block in blocks:
        nxt, n = n, n + 1
        for choice in block:  # a fresh branch junction -> n -> ... -> nxt
            inner = range(n, n + len(choice) - 1)
            us += junction, *inner
            vs += *inner, nxt
            labels.append(choice)
            n += len(inner)
        junction = nxt
    return LabeledGraph.from_columns(DIRECTED, n, us, vs, "".join(labels), 0, junction, "()[]")


_WRAP = {1: "()", 2: "[]"}  # the brackets around an operand drawn from port 1 or 2


def mcvp_to_d2_reach(c: Circuit) -> LabeledGraph:
    """Per-gate bracket gadgets; the output gate's entry/exit are source/target.

    Gadgets: a true input is ``in -( -> . -) -> out``; a false input is a
    disconnected in/out pair.  An AND gate adds three vertices (entry, middle,
    exit) and wraps its left operand between entry and middle and its right
    operand between middle and exit.  An OR gate adds entry and exit and wraps
    each operand in a parallel branch.  The wrapping brackets are round for a
    port-1 operand and square for a port-2 operand.  Each gate's 0, 2 or 4
    edges join the edge columns as one slice.
    """
    us, vs, labels = [], [], []  # the edge columns, labels two brackets at a time
    entry, exit_ = [], []  # each gate's first and last vertex
    vin = 0
    for gate in c.gates:
        if gate[0] == "input":
            vout = vin + 1 + gate[1]  # past a true input's middle vertex
            if gate[1]:
                us += vin, vin + 1
                vs += vin + 1, vout
                labels.append("()")
        else:
            word, left, left_port, right, right_port = gate
            # an AND wires its operands through (entry, mid) and (mid, exit), an OR both through (entry, exit)
            is_and = word == "and"
            vout = vin + 1 + is_and
            us += vin, exit_[left], vin + is_and, exit_[right]
            vs += entry[left], vin + 1, entry[right], vout
            labels += _WRAP[left_port], _WRAP[right_port]
        entry.append(vin)
        exit_.append(vout)
        vin = vout + 1
    source, target = entry[c.output], exit_[c.output]
    return LabeledGraph.from_columns(DIRECTED, vin, us, vs, "".join(labels), source, target, "()[]")


def d2reach_to_dd2_ureach(g: LabeledGraph) -> LabeledGraph:
    """Forget directions: each edge becomes an undirected 2-path.

    Read from tail to head the pair spells ``(a``, ``b)``, ``[c`` or ``d]``;
    read backwards it spells a reversed pair that no doubled-bracket string
    contains, so direction information survives undirected traversal.
    """
    if g.kind != DIRECTED:
        raise KindError("the doubling construction starts from a directed graph")
    foreign = g.alphabet - frozenset(DD2_PAIRS)
    if foreign:
        raise ForeignSymbolError(
            f"labels {''.join(sorted(foreign))!r} have no doubled-symbol pair"
        )
    return _subdivide(g, "()[]abcd", DD2_PAIRS)


def vc_to_a_dagreach(inst: VcInstance) -> LabeledGraph:
    """Chain DAG whose paths spell exactly the candidate certificate strings.

    Segment one spells the unary budget and a separator; segment two the
    adjacency bit-run and a separator; segment three is one diamond per
    vertex (parallel edges labeled 1 and 0) with separators between
    consecutive diamonds and none at the end.  That is C(n, 2) + 3n + 2
    vertices, which must not exceed ``MAX_VERTICES`` (a TooLargeError).
    """
    size = inst.n * (inst.n - 1) // 2 + 3 * inst.n + 2
    if size > MAX_VERTICES:
        raise TooLargeError(
            f"vc-to-a on {inst.n} vertices would build {size} vertices, over the limit of {MAX_VERTICES}"
        )
    word = "1" * inst.k + "0" * (inst.n - inst.k) + "#" + adjacency_bits(inst.n, inst.edges) + "#"
    at = len(word)  # diamond i runs from at + 2i to at + 2i + 1 by "1" and "0", then "#" to the next
    # every edge runs from u to u + 1, and no "#" follows the last diamond
    us = [*range(at), *(u for x in range(at, at + 2 * inst.n, 2) for u in (x, x, x + 1))][:-1]
    labels, end = (word + "10#" * inst.n)[:-1], at + 2 * inst.n - 1
    return LabeledGraph.from_columns(DIRECTED, end + 1, us, [u + 1 for u in us], labels, 0, end, "01#")


def decode_vc_witness(p: Path, inst: VcInstance) -> set[int]:
    """Read the per-diamond bit choices of a path back into a vertex set.

    The path must be a source-to-target walk of the instance's construction
    graph; anything else is a PathMismatchError.  The decoded set is a valid
    cover of size <= k exactly when the path's yield is a ``lang-a`` member.
    """
    g = vc_to_a_dagreach(inst)
    try:
        text = path_yield(g, p)
    except InvalidPathError as exc:
        raise PathMismatchError(f"path does not fit the construction graph: {exc}") from None
    if path_endpoints(g, p) != (g.source, g.target):
        raise PathMismatchError("path does not run from the construction source to its target")
    pieces = text.split("#")
    if len(pieces) != inst.n + 2:
        raise PathMismatchError("path yield does not have the certificate shape")
    return {i for i, bit in enumerate(pieces[2:], start=1) if bit == "1"}
