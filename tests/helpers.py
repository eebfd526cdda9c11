"""Shared oracles and builders for the test suite.

These are deliberately written as independent, brute-force implementations:
set-fixpoint string enumeration instead of normalization, CYK instead of
reachability on a chain, walk enumeration instead of Kahn's algorithm, pair
decoding instead of grammar parsing.  Tests compare the fast library code
against these slow-but-obvious routines.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import compress, count
from operator import eq
from typing import Iterable, Iterator, Optional

from lcreach.errors import (
    CorruptWitnessError,
    InvariantError,
    NoRespectingPathError,
    NotATreeError,
    ParseError,
    SemanticError,
    build_object,
    content_lines,
    parse_ints,
)
from lcreach.grammar import Cfg, Dfa, NormalForm
from lcreach.graph import DIRECTED, UNDIRECTED, Edge, LabeledGraph, Path, Step, path_yield
from lcreach.languages import adjacency_bits, d2_member
from lcreach.reductions import Circuit, VcInstance
from lcreach.solve import _born


def derivable_strings(g: Cfg, max_len: int) -> dict[str, set[str]]:
    """Exact set of terminal strings of length <= max_len per nonterminal.

    Kleene iteration over the rule system: repeatedly substitute known
    strings into rule bodies, pruning concatenations over budget, until
    nothing new appears.  Complete for the bounded-length fragment because
    a derivation of a short string only ever passes through short pieces.
    """
    known: dict[str, set[str]] = {A: set() for A in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            partial = {""}
            for sym in body:
                pieces = known[sym] if sym in g.nonterminals else {sym}
                grown = set()
                for prefix in partial:
                    room = max_len - len(prefix)
                    grown.update(prefix + s for s in pieces if len(s) <= room)
                partial = grown
                if not partial:
                    break
            fresh = partial - known[head]
            if fresh:
                known[head].update(fresh)
                changed = True
    return known


def language_upto(g: Cfg, max_len: int) -> set[str]:
    return derivable_strings(g, max_len)[g.start]


def cyk_derives(nf: NormalForm, w: str, root: str) -> bool:
    """True when ``root`` derives ``w`` under ``nf``.

    The empty string is tracked only for the start symbol (via
    ``start_nullable``).  Symbols outside the grammar's alphabet make the
    answer ``False`` rather than raising: no rule can ever cover them.
    """
    if not w:
        return nf.start_nullable and root == nf.start
    if any(ch not in nf.terminals for ch in w):
        return False
    n = len(w)
    by_char: dict[str, frozenset[str]] = {}
    for a, ch in nf.terminal_rules:
        by_char[ch] = by_char.get(ch, frozenset()) | {a}
    by_pair: dict[tuple[str, str], tuple[str, ...]] = {}
    for a, b, c in nf.binary_rules:
        by_pair[(b, c)] = by_pair.get((b, c), ()) + (a,)

    table: list[list[set[str]]] = [[set() for _ in range(n + 1)] for _ in range(n)]
    for i, ch in enumerate(w):
        table[i][1] = set(by_char.get(ch, ()))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[i][span]
            for split in range(1, span):
                left = table[i][split]
                right = table[i + split][span - split]
                if not left or not right:
                    continue
                for b in left:
                    for c in right:
                        for a in by_pair.get((b, c), ()):
                            cell.add(a)
    return root in table[0][n]


def cyk_member(nf: NormalForm, w: str) -> bool:
    """Membership of ``w`` in the language of ``nf``'s start symbol."""
    return cyk_derives(nf, w, nf.start)


def random_cfg(
    rng: random.Random,
    n_nonterminals: int,
    n_rules: int,
    alphabet: str,
    max_body: int = 4,
    epsilon_bias: float = 0.1,
) -> Cfg:
    """Random grammar over uppercase nonterminals N0..; bodies mix freely."""
    if n_nonterminals < 1:
        raise ValueError("need at least one nonterminal")
    terminals = sorted(set(alphabet))
    if not terminals:
        raise ValueError("need a nonempty alphabet")
    names = tuple(f"N{i}" for i in range(n_nonterminals))
    # the file format declares nonterminals implicitly by their productions,
    # so only names that head at least one rule may appear in rule bodies
    heads = [names[0]] + [rng.choice(names) for _ in range(n_rules)]
    usable = sorted(set(heads))
    # first rule: the start symbol derives a terminal, which also pins the
    # start symbol for the file format (start = head of the first rule)
    productions = [(names[0], (rng.choice(terminals),))]
    for head in heads[1:]:
        if rng.random() < epsilon_bias:
            productions.append((head, ()))
            continue
        body = tuple(
            rng.choice(usable) if rng.random() < 0.5 else rng.choice(terminals)
            for _ in range(rng.randint(1, max_body))
        )
        productions.append((head, body))
    used_terminals = {
        sym for _, body in productions for sym in body if sym not in usable
    }
    return Cfg(
        nonterminals=frozenset(usable),
        terminals=frozenset(used_terminals),
        productions=tuple(productions),
        start=names[0],
    )


def is_linear(g: Cfg) -> bool:
    """True when no right-hand side mentions more than one nonterminal."""
    return all(sum(s in g.nonterminals for s in rhs) <= 1 for _, rhs in g.productions)


_DD2_PAIRS = {"(a": "(", "b)": ")", "[c": "[", "d]": "]"}


def dd2_decode_member(w: str) -> bool:
    """Membership for the doubled-bracket language by inverting the doubling.

    Every member splits into consecutive two-symbol chunks, each the image
    of one plain bracket; decode the chunks and check plain balance.
    """
    if len(w) % 2 != 0 or not w:
        return False
    decoded = []
    for i in range(0, len(w), 2):
        bracket = _DD2_PAIRS.get(w[i : i + 2])
        if bracket is None:
            return False
        decoded.append(bracket)
    return d2_member("".join(decoded))


def encode_lang_a(n: int, k: int, edges: Iterable[tuple[int, int]], cover_bits: str) -> str:
    """Assemble the full certificate string for an instance and bit choice."""
    if len(cover_bits) != n:
        raise ValueError(f"expected {n} cover bits, got {len(cover_bits)}")
    return (
        "1" * k
        + "0" * (n - k)
        + "#"
        + adjacency_bits(n, edges)
        + "#"
        + "#".join(cover_bits)
    )


@dataclass(frozen=True)
class LangAInstanceView:
    """The decoded pieces of a well-shaped ``lang-a`` string."""

    n: int
    k: int
    adjacency: str
    cover_bits: str


def parse_lang_a(w: str) -> Optional[LangAInstanceView]:
    """Decode a ``lang-a`` string, or None when the shape is inconsistent.

    ``n`` is inferred from the first piece; the adjacency run must then hold
    exactly n(n-1)/2 bits and be followed by n single-bit pieces.
    """
    pieces = w.split("#")
    budget = pieces[0]
    n = len(budget)
    if n < 1 or len(pieces) != n + 2:
        return None
    if any(ch not in "01" for ch in budget) or "01" in budget:
        return None
    adj = pieces[1]
    if len(adj) != n * (n - 1) // 2 or any(ch not in "01" for ch in adj):
        return None
    bits = pieces[2:]
    if any(len(b) != 1 or b not in "01" for b in bits):
        return None
    return LangAInstanceView(n=n, k=budget.count("1"), adjacency=adj, cover_bits="".join(bits))


def lang_a_decode_member(w: str) -> bool:
    """Membership for ``lang-a`` by decoding the whole string: the oracle for its recognizer.

    True when the chosen bits form a vertex cover within the budget;
    malformed strings are simply non-members.
    """
    view = parse_lang_a(w)
    if view is None:
        return False
    if view.cover_bits.count("1") > view.k:
        return False
    pos = 0
    for i in range(1, view.n):
        for j in range(i + 1, view.n + 1):
            if view.adjacency[pos] == "1":
                if view.cover_bits[i - 1] != "1" and view.cover_bits[j - 1] != "1":
                    return False
            pos += 1
    return True


def parse_graph_per_line(text: str) -> LabeledGraph:
    """The graph file parser one edge line at a time: the oracle for ``parse_graph``.

    It splits and converts each edge line on its own, then checks what the
    lines say in file order, so it raises the same error at the same line as
    ``parse_graph`` for any file: every line-shape fault before any semantic
    one, and among faults of one kind, the first line at fault.
    """
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
    edges = []
    for line_no, line in enumerate(lines[2:-1], 3):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("edge line must be '<u> <v> <label>'", line=line_no)
        u, v, label = tokens
        try:
            if not (re.fullmatch("-?[0-9]+", u) and re.fullmatch("-?[0-9]+", v)):
                raise ValueError
            u, v = int(u), int(v)  # which refuses more digits than the interpreter's limit
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=line_no) from None
        if len(label) != 1:
            raise ParseError("edge label must be a single character", line=line_no)
        edges.append(Edge(u, v, label))
    tokens = lines[-1].split()
    if len(tokens) != 2:
        raise ParseError("final line must be '<source> <target>'", line=len(lines))
    s, t = parse_ints(tokens, "source and target must be integers", len(lines))

    if n < 1:
        raise SemanticError("a graph needs at least one vertex", line=1)
    for ch in alpha:
        if not ch.isprintable() or ch.isspace():
            raise SemanticError(f"bad alphabet character {ch!r}", line=2)
    for line_no, (u, v, label) in enumerate(edges, 3):
        if not (0 <= u < n and 0 <= v < n):
            raise SemanticError(f"vertex id out of range in edge {u} {v}", line=line_no)
        if label not in alpha:
            raise SemanticError(f"label {label!r} is not in the declared alphabet", line=line_no)
    if not (0 <= s < n and 0 <= t < n):
        raise SemanticError("source or target out of range", line=len(lines))
    kind = UNDIRECTED if kind_word == UNDIRECTED else DIRECTED
    g = LabeledGraph(kind, n, tuple(edges), s, t, frozenset(alpha))
    if kind_word == "dag" and has_directed_cycle(g):
        raise SemanticError("graph declared 'dag' contains a directed cycle")
    return g


def check_edges_per_edge(kind: str, n: int, edges, alphabet: frozenset[str]) -> tuple[Edge, ...]:
    """The graph constructor's edge checks, one edge at a time: the oracle for its column checks.

    Returns the edges as stored, undirected ones in ``(min, max)`` order, or
    raises the InvariantError of the first edge at fault.
    """
    stored = []
    for i, (u, v, label) in enumerate(edges):
        if type(u) is not int or type(v) is not int:
            raise InvariantError(f"vertex ids must be integers in edge {u!r} {v!r}", "edges", i)
        if not (0 <= u < n and 0 <= v < n):
            raise InvariantError(f"vertex id out of range in edge {u} {v}", "edges", i)
        if label not in alphabet:
            raise InvariantError(f"label {label!r} is not in the declared alphabet", "edges", i)
        stored.append(Edge(v, u, label) if kind == UNDIRECTED and u > v else Edge(u, v, label))
    return tuple(stored)


# Operands after each gate word, as a circuit file line spells them.
_GATE_ARITY = {"input": 1, "and": 4, "or": 4}


def parse_circuit_per_line(text: str) -> Circuit:
    """The circuit file parser one gate line at a time: the oracle for ``parse_circuit``."""
    lines = content_lines(text)
    if len(lines) < 2:
        raise ParseError("expected 'circuit <n>', gate lines, and 'output <g>'", line=max(1, len(lines)))
    header = lines[0].split()
    if len(header) != 2 or header[0] != "circuit":
        raise ParseError("header must be 'circuit <gate_count>'", line=1)
    (count,) = parse_ints(header[1:], "gate count must be an integer", 1)
    if len(lines) != count + 2:
        raise ParseError(f"expected {count} gate lines plus an output line", line=len(lines))
    gates: list[tuple] = []
    for line_no, raw in enumerate(lines[1 : count + 1], start=2):
        word, *operands = raw.split() or [""]
        if len(operands) != _GATE_ARITY.get(word):
            raise ParseError(f"bad gate line {raw!r}", line=line_no)
        gates.append((word, *parse_ints(operands, "gate operands must be integers", line_no)))
    tokens = lines[count + 1].split()
    if len(tokens) != 2 or tokens[0] != "output":
        raise ParseError("final line must be 'output <gate>'", line=count + 2)
    (output,) = parse_ints(tokens[1:], "output gate must be an integer", count + 2)
    return build_object(Circuit, tuple(gates), output)


def mcvp_to_d2_per_edge(c: Circuit) -> LabeledGraph:
    """The bracket gadgets one vertex and one edge at a time: the oracle for ``mcvp_to_d2_reach``."""
    us: list[int] = []
    vs: list[int] = []
    labels: list[str] = []
    count = 0

    def vertex() -> int:
        nonlocal count
        count += 1
        return count - 1

    def edge(u: int, v: int, label: str) -> None:
        us.append(u)
        vs.append(v)
        labels.append(label)

    opening, closing = {1: "(", 2: "["}, {1: ")", 2: "]"}
    entry: list[int] = []
    exit_: list[int] = []
    for gate in c.gates:
        vin = vertex()
        if gate[0] == "input":
            if gate[1]:
                mid = vertex()
                vout = vertex()
                edge(vin, mid, "(")
                edge(mid, vout, ")")
            else:
                vout = vertex()
        else:
            word, left, left_port, right, right_port = gate
            mid = vertex() if word == "and" else None
            vout = vertex()
            left_end, right_start = (mid, mid) if word == "and" else (vout, vin)
            edge(vin, entry[left], opening[left_port])
            edge(exit_[left], left_end, closing[left_port])
            edge(right_start, entry[right], opening[right_port])
            edge(exit_[right], vout, closing[right_port])
        entry.append(vin)
        exit_.append(vout)
    return LabeledGraph(
        DIRECTED, count, tuple(zip(us, vs, labels)), entry[c.output], exit_[c.output], frozenset("()[]")
    )


def _is_index(x) -> bool:
    return type(x) is int and x >= 0


def check_derivation_per_node(g: LabeledGraph, nf: NormalForm, nodes, step_limit: int = 10**6) -> tuple[Step, ...]:
    """The derivation check with a helper call per field: the oracle for ``check_derivation``.

    Same checks, same order, same messages; returns the flattened steps.
    """
    if not isinstance(nodes, (list, tuple)) or not nodes:
        raise CorruptWitnessError("a derivation needs at least one node")
    binary = set(nf.binary_rules)
    terminal = set(nf.terminal_rules)
    facts: list[tuple] = []
    sizes: list[int] = []
    for i, node in enumerate(nodes):
        if not isinstance(node, (list, tuple)) or len(node) < 4:
            raise CorruptWitnessError(f"derivation node {i} is not a list (u, A, v, kind, ...)")
        u, a, v, kind, *rest = node
        if not (_is_index(u) and _is_index(v) and isinstance(a, str)):
            raise CorruptWitnessError(f"derivation node {i} has a malformed fact")
        if kind == "b" and len(rest) == 2:
            left, right = rest
            if not (_is_index(left) and _is_index(right) and left < i and right < i):
                raise CorruptWitnessError(f"derivation node {i} refers to a later node")
            u1, b, w1 = facts[left]
            w2, c, v2 = facts[right]
            if (a, b, c) not in binary:
                raise CorruptWitnessError(f"derivation node {i}: no rule {a} -> {b} {c}")
            if (u1, w1, v2) != (u, w2, v):
                raise CorruptWitnessError(f"derivation node {i}: endpoints do not chain")
            sizes.append(min(sizes[left] + sizes[right], step_limit + 1))
        elif kind == "t" and len(rest) == 2:
            edge, reverse = rest
            if not (_is_index(edge) and edge < len(g.us) and isinstance(reverse, bool)):
                raise CorruptWitnessError(f"derivation node {i} names no edge of the graph")
            if reverse and g.kind == DIRECTED:
                raise CorruptWitnessError(f"derivation node {i} reverses a directed edge")
            if (a, g.labels[edge]) not in terminal:
                raise CorruptWitnessError(f"derivation node {i}: no rule {a} -> {g.labels[edge]!r}")
            if (u, v) != ((g.vs[edge], g.us[edge]) if reverse else (g.us[edge], g.vs[edge])):
                raise CorruptWitnessError(f"derivation node {i} does not match edge {edge}")
            sizes.append(1)
        elif kind == "e" and not rest:
            if i != len(nodes) - 1 or not nf.start_nullable or (a, v) != (nf.start, u):
                raise CorruptWitnessError(f"derivation node {i}: misplaced empty walk")
            sizes.append(0)
        else:
            raise CorruptWitnessError(f"derivation node {i} has an unknown kind")
        facts.append((u, a, v))
    if facts[-1] != (g.source, nf.start, g.target):
        raise CorruptWitnessError("derivation root is not (source, start, target)")
    if sizes[-1] > step_limit:
        raise CorruptWitnessError(f"derivation flattens to {sizes[-1]} steps, over the limit of {step_limit}")
    steps: list[Step] = []
    stack = [len(nodes) - 1]
    while stack:
        node = nodes[stack.pop()]
        if node[3] == "t":
            steps.append(Step(node[4], node[5]))
        elif node[3] == "b":
            stack.append(node[5])
            stack.append(node[4])
    return tuple(steps)


def has_directed_cycle(g: LabeledGraph) -> bool:
    """Walk-enumeration cycle detector (independent of topological sorting).

    A directed cycle exists iff some vertex can walk back to itself in at
    most n steps.
    """
    succ = defaultdict(set)
    for e in g.edges:
        succ[e.u].add(e.v)
    for start in range(g.vertex_count):
        frontier = {start}
        for _ in range(g.vertex_count):
            frontier = {v for u in frontier for v in succ[u]}
            if start in frontier:
                return True
            if not frontier:
                break
    return False


def all_vc_instances(max_n: int) -> Iterator[VcInstance]:
    """Every vertex-cover instance with n <= max_n vertices and every budget."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for k in range(n + 1):
                yield VcInstance(n, edges, k)


def universal_dfa(alphabet: str) -> Dfa:
    """One accepting state that loops on every symbol (accepts everything)."""
    return Dfa(
        state_count=1,
        alphabet=frozenset(alphabet),
        delta={(0, ch): 0 for ch in alphabet},
        start=0,
        accepting=frozenset({0}),
    )


def graph(kind: str, n: int, edges, s: int, t: int, alphabet: str) -> LabeledGraph:
    """A graph from ``(u, v, label)`` triples, with ``alphabet`` given as a string."""
    return LabeledGraph(kind, n, tuple(Edge(*e) for e in edges), s, t, frozenset(alphabet))


def fragment_graph(word: str, alphabet: Optional[str] = None) -> LabeledGraph:
    """A straight-line graph spelling ``word`` from vertex 0 to the last."""
    return LabeledGraph(
        DIRECTED,
        len(word) + 1,
        tuple(Edge(i, i + 1, ch) for i, ch in enumerate(word)),
        0,
        len(word),
        frozenset(alphabet if alphabet is not None else word),
    )


def strings_over(alphabet: str, length: int) -> Iterator[str]:
    for combo in itertools.product(sorted(alphabet), repeat=length):
        yield "".join(combo)


def random_total_dfa(rng, n_states: int, alphabet: str) -> Dfa:
    delta = {
        (q, ch): rng.randrange(n_states) for q in range(n_states) for ch in alphabet
    }
    accepting = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return Dfa(n_states, frozenset(alphabet), delta, 0, accepting)


def run_dfa(d: Dfa, w: str) -> bool:
    """Membership by reading the transition table directly; a missing transition rejects."""
    state = d.start
    for ch in w:
        state = d.delta.get((state, ch))
    return state in d.accepting


def moves(g: LabeledGraph) -> list[list[tuple[int, int, str, bool]]]:
    """The moves ``(edge, head, label, reverse)`` leaving each vertex, read off the edge columns.

    An undirected edge is a move from both its endpoints, a self-loop one
    move.  Each vertex's moves are in edge order.
    """
    out: list[list[tuple[int, int, str, bool]]] = [[] for _ in range(g.vertex_count)]
    for edge, (u, v, label) in enumerate(zip(g.us, g.vs, g.labels)):
        out[u].append((edge, v, label, False))
        if g.kind == UNDIRECTED and u != v:
            out[v].append((edge, u, label, True))
    return out


def edge_lists(g: LabeledGraph, both: bool = False) -> tuple[list[list[int]], list[int]]:
    """``graph.edge_ends`` with one list of ends per vertex in place of its chains: the oracle of their order.

    ``ends[v]`` lists the ends leaving ``v`` in edge order, end ``2e`` edge
    ``e`` forward and ``2e + 1`` in reverse; ``heads[k]`` is the vertex end
    ``k`` enters.  A directed graph lists only its forward ends unless
    ``both``; otherwise an edge is listed at both its endpoints, a self-loop once.
    """
    n, m = g.vertex_count, len(g.us)
    heads = [0] * (2 * m)
    heads[0::2], heads[1::2] = g.vs, g.us
    step, tails = 2, g.us  # the forward ends alone
    if both or g.kind == UNDIRECTED:
        step, tails = 1, [0] * (2 * m)
        tails[0::2], tails[1::2] = g.us, g.vs
        for k in compress(count(1, 2), map(eq, g.us, g.vs)):  # a self-loop's reverse end goes to list n
            tails[k] = n
    ends: list[list[int]] = [[] for _ in range(n + 1)]
    for k, tail in zip(count(0, step), tails):
        ends[tail].append(k)
    ends.pop()  # list n
    return ends, heads


def first_accepted_walk(g: LabeledGraph, member, max_len: int) -> Optional[Path]:
    """The first walk of length <= max_len whose yield ``member`` accepts, or None.

    The oracle for :func:`lcreach.solve.bounded_enum_reach` and
    :func:`lcreach.solve.regular_reach`: walks are taken by length, then edge order
    (the order of :func:`moves`), and keyed by (vertex, yield) alone, so it
    knows nothing of a language's states.  Two walks to one vertex with one
    yield are interchangeable, and only the first is kept.
    """
    adj = moves(g)
    frontier = [(g.source, "", ())]
    seen = {(g.source, "")}
    for length in range(max_len + 1):
        reached = []
        for v, spelled, steps in frontier:
            if v == g.target and member(spelled):
                return Path(g.source, steps)
            for edge, head, label, reverse in adj[v] if length < max_len else ():
                key = (head, spelled + label)
                if key not in seen:
                    seen.add(key)
                    reached.append((*key, steps + (Step(edge, reverse),)))
        frontier = reached
    return None


def product_search_by_tuples(g: LabeledGraph, rec, max_len: Optional[int], stats: Optional[dict]):
    """The product search with ``(vertex, state)`` tuple keys and a ``rec.step`` call per move.

    The oracle for ``solve._product_search``, which numbers the states, keys
    pairs by integers and walks edge-end chains: the same walk and the same
    ``states``/``states_examined``.
    """
    ends, heads = edge_lists(g)
    if max_len is None:
        max_len, dist = math.inf, [0] * g.vertex_count
    else:  # steps from each vertex to the target
        dist = [math.inf] * g.vertex_count
        dist[g.target] = 0
        undirected = g.kind == UNDIRECTED
        near = ends if undirected else edge_lists(g, both=True)[0]
        queue = deque([g.target])
        while queue:
            v = queue.popleft()
            for k in near[v]:
                u = heads[k]
                if dist[u] == math.inf and (undirected or k & 1):
                    dist[u] = dist[v] + 1
                    queue.append(u)
    parent: dict = {(g.source, rec.start): None} if dist[g.source] <= max_len else {}
    frontier, examined, length, found = list(parent), 0, 0, None
    while frontier and found is None:
        reached = []
        for key in frontier:
            examined += 1
            v, q = key
            if v == g.target and rec.accepts(q):
                found = key
                break
            for k in ends[v]:
                head = heads[k]
                if dist[head] + length < max_len:
                    nxt = (head, rec.step(q, g.labels[k >> 1]))
                    if nxt[1] is not None and nxt not in parent:
                        parent[nxt] = (key, k)
                        reached.append(nxt)
        frontier = reached
        length += 1
    if stats is not None:
        stats.update(states=len(parent), states_examined=examined)
    if found is None:
        return None
    steps: list[Step] = []
    while parent[found] is not None:
        found, k = parent[found]
        steps.append(Step(k >> 1, bool(k & 1)))
    return Path(start=g.source, steps=tuple(reversed(steps)))


def tree_path_by_dict(g: LabeledGraph, member) -> Optional[Path]:
    """``tree_reach`` with a dict of first-reaching ends and a deque: its oracle, down to the exceptions."""
    n = g.vertex_count
    if len(g.us) != n - 1 or any(u == v for u, v in zip(g.us, g.vs)):
        raise NotATreeError("underlying structure is not a tree")
    ends, heads = edge_lists(g, both=True)
    parent: dict[int, Optional[int]] = {g.source: None}
    queue = deque([g.source])
    while queue:
        v = queue.popleft()
        for k in ends[v]:
            if heads[k] not in parent:
                parent[heads[k]] = k
                queue.append(heads[k])
    if len(parent) != n:
        raise NotATreeError("underlying structure is disconnected")
    steps: list[Step] = []
    at = g.target
    while (k := parent[at]) is not None:
        steps.append(Step(k >> 1, bool(k & 1)))
        at = heads[k ^ 1]
    steps.reverse()
    for e, reverse in steps if g.kind == DIRECTED else ():
        if reverse:
            raise NoRespectingPathError(f"tree edge {g.us[e]}->{g.vs[e]} points against the unique path")
    path = Path(start=g.source, steps=tuple(steps))
    return path if member(path_yield(g, path)) else None


def walk_budget(g: LabeledGraph, max_len: int, cap: int = 10**6) -> int:
    """Number of walks from the source of length <= max_len, capped at ``cap``.

    Upper-bounds the state count of bounded enumeration, so it serves as a
    cheap feasibility screen before running the enumerator on a random
    instance.
    """
    counts = [0] * g.vertex_count
    counts[g.source] = 1
    adj = moves(g)
    total = 1
    for _ in range(max_len):
        new = [0] * g.vertex_count
        for v, c in enumerate(counts):
            if c:
                for _, head, _, _ in adj[v]:
                    new[head] += c
        counts = new
        total += sum(counts)
        if total > cap:
            return cap + 1
    return total


def worklist_facts(g: LabeledGraph, nf, order: str = "fifo") -> frozenset:
    """Every fact ``(u, A, v)`` of the grammar fixpoint, derived one fact at a time.

    The oracle for :func:`lcreach.solve.cfl_reach_table`: a worklist of single
    facts over plain sets, popped first-in-first-out (``"fifo"``) or
    last-in-first-out (``"lifo"``); the fact set must not depend on which.
    Empty-walk facts ``(u, start, u)`` of a nullable start are facts but are
    never joined, since the normal form derives every non-empty walk.
    """
    if order not in ("fifo", "lifo"):
        raise ValueError(f"order must be 'fifo' or 'lifo', got {order!r}")
    facts: set = set()
    ends = defaultdict(set)  # (A, u) -> {v}
    starts = defaultdict(set)  # (A, v) -> {u}
    work: deque = deque()

    def add(fact) -> None:
        if fact not in facts:
            facts.add(fact)
            u, a, v = fact
            ends[(a, u)].add(v)
            starts[(a, v)].add(u)
            work.append(fact)

    for e in g.edges:
        for a, ch in nf.terminal_rules:
            if ch == e.label:
                add((e.u, a, e.v))
                if g.kind != DIRECTED:
                    add((e.v, a, e.u))
    while work:
        u, b, v = work.popleft() if order == "fifo" else work.pop()
        for a, left, right in nf.binary_rules:
            if left == b:
                for w in list(ends[(right, v)]):
                    add((u, a, w))
            if right == b:
                for w in list(starts[(left, u)]):
                    add((w, a, v))
    if nf.start_nullable:
        facts.update((u, nf.start, u) for u in range(g.vertex_count))
    return frozenset(facts)


def table_facts(table) -> frozenset:
    """Every fact ``(u, A, v)`` of a ``ReachTable``, read off the rows of its ``facts``.

    A fact is a set bit ``v`` of ``rows[ids[A]][u]``, or an empty-walk fact
    ``(u, start, u)`` of a nullable start, which the rows need not hold.
    """
    facts, nf = table.facts, table.normal_form
    names = {i: a for a, i in facts.ids.items()}
    empty = facts.ids[nf.start] if nf.start_nullable else None
    out = set()
    for i, rows in enumerate(facts.rows):
        for u, row in enumerate(rows):
            row |= (i == empty) << u
            out.update((u, names[i], v) for v in range(row.bit_length()) if row >> v & 1)
    return frozenset(out)


def round_of(table, fact) -> Optional[int]:
    """The round in which a ``ReachTable`` derived ``fact``, or None (an empty walk, or no fact)."""
    u, a, v = fact
    i = table.facts.ids.get(a)
    return None if i is None else _born(table.births[i].get(u, ()), v)
