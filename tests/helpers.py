"""Shared oracles and builders for the test suite.

These are deliberately written as independent, brute-force implementations:
set-fixpoint string enumeration instead of normalization, CYK instead of
reachability on a chain, walk enumeration instead of Kahn's algorithm, pair
decoding instead of grammar parsing.  Tests compare the fast library code
against these slow-but-obvious routines.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from lcreach.errors import (
    InvariantError,
    ParseError,
    SemanticError,
    ascii_int,
    ascii_only_ints,
    content_lines,
    parse_ints,
)
from lcreach.grammar import Cfg, Dfa, NormalForm
from lcreach.graph import DIRECTED, UNDIRECTED, Edge, LabeledGraph, Path, Step
from lcreach.languages import adjacency_bits, d2_member
from lcreach.reductions import VcInstance


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
    to_int = int if ascii_only_ints(text) else ascii_int
    edges = []
    for line_no, line in enumerate(lines[2:-1], 3):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("edge line must be '<u> <v> <label>'", line=line_no)
        u, v, label = tokens
        try:
            u, v = to_int(u), to_int(v)
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
