"""Reachability solvers for language-constrained walks.

The question answered throughout: does some walk from ``g.source`` to
``g.target`` have a yield inside the constraint language?  Walks may repeat
vertices and edges, and the empty walk counts when source equals target.

Four solver families live here:

* :func:`regular_reach` — breadth-first search of the product of graph
  vertices and DFA states; returns a minimum-length accepted walk.
* :func:`cfl_reach_table` / :func:`cfl_reach` — the worklist fixpoint over
  facts ``(u, A, v)`` meaning "some u-to-v walk derives from nonterminal A".
  Witnesses come back as a derivation shared across facts, because on cyclic
  graphs the flattened walk can be exponentially longer than the derivation;
  :func:`expand_witness` flattens under an explicit step budget, and
  :func:`check_derivation` checks a derivation rule by rule in linear time.
* :func:`dag_enum_reach` / :func:`bounded_enum_reach` — exhaustive walk
  enumeration against a black-box membership predicate, for acyclic graphs
  and for a hard length bound respectively.
* :func:`tree_reach` — on trees there is exactly one candidate walk; find it
  and run the predicate on its yield.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, KeysView, NamedTuple, Optional, Union

from .errors import (
    AlphabetMismatchError,
    CorruptWitnessError,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
)
from .graph import DIRECTED, UNDIRECTED, LabeledGraph, Path, Step, adjacency, is_dag, path_yield
from .grammar import NormalForm, normalize

Fact = tuple[int, str, int]
Member = Callable[[str], bool]


class TerminalStep(NamedTuple):
    """Fact justified by a single edge traversal."""

    edge: int
    reverse: bool


class BinarySplit(NamedTuple):
    """Fact justified by a rule A -> B C splitting at an inner vertex."""

    left: Fact
    right: Fact


class EpsilonAt(NamedTuple):
    """Fact (u, start, u) justified by the empty walk at ``vertex``."""

    vertex: int


Justification = Union[TerminalStep, BinarySplit, EpsilonAt]


@dataclass
class ReachTable:
    """Least fixpoint of derivation facts, with first-found provenance.

    ``provenance`` is insertion-ordered by discovery, and a fact's
    justification only ever references earlier facts, so the structure is
    acyclic by construction.  ``facts`` is the key view of ``provenance``, not
    a copy: it supports membership, ``len``, iteration and equality with
    sets.  ``pops`` counts worklist extractions.
    """

    facts: KeysView[Fact]
    provenance: dict[Fact, Justification]
    pops: int


@dataclass
class Witness:
    """A reachability certificate: a root fact plus the table deriving it."""

    root: Fact
    table: ReachTable


@dataclass(frozen=True)
class ExpansionLimitExceeded:
    """Returned when flattening a witness would exceed the step budget.

    ``shared_size`` is the exact number of distinct facts in the derivation;
    ``expanded_steps`` is the exact length the flattened walk would have.
    """

    shared_size: int
    expanded_steps: int


def _join_indices(nf: NormalForm):
    by_char: dict[str, tuple[str, ...]] = {}
    for a, ch in nf.terminal_rules:
        by_char[ch] = by_char.get(ch, ()) + (a,)
    by_first: dict[str, tuple[tuple[str, str], ...]] = {}
    by_second: dict[str, tuple[tuple[str, str], ...]] = {}
    for a, b, c in nf.binary_rules:
        by_first[b] = by_first.get(b, ()) + ((a, c),)
        by_second[c] = by_second.get(c, ()) + ((a, b),)
    return by_char, by_first, by_second


def cfl_reach_table(g: LabeledGraph, nf: NormalForm, order: str = "fifo") -> ReachTable:
    """Worklist least fixpoint of facts ``(u, A, v)`` over ``g`` and ``nf``.

    Seeds: ``(u, A, v)`` for every rule ``A -> a`` and edge ``u -a-> v`` (both
    traversal directions when ``g`` is undirected), plus ``(u, start, u)``
    for every vertex when the start symbol is nullable.  Closure: ``A -> B C``
    combines ``(u, B, w)`` with ``(w, C, v)``.  The first justification found
    for a fact is kept.  ``order`` picks the worklist discipline ("fifo" or
    "lifo"); the resulting fact set is the same either way.
    """
    if order not in ("fifo", "lifo"):
        raise ValueError(f"order must be 'fifo' or 'lifo', got {order!r}")
    if not g.alphabet <= nf.terminals:
        extra = "".join(sorted(g.alphabet - nf.terminals))
        raise AlphabetMismatchError(
            f"graph labels {extra!r} are outside the grammar's alphabet"
        )
    by_char, by_first, by_second = _join_indices(nf)

    provenance: dict[Fact, Justification] = {}
    rows: dict[tuple[str, int], int] = {}  # (A, u) -> bitmask of v with (u, A, v)
    cols: dict[tuple[str, int], int] = {}  # (A, v) -> bitmask of u with (u, A, v)
    work: deque[Fact] = deque()

    def add(fact: Fact, why: Justification) -> None:
        if fact in provenance:
            return
        provenance[fact] = why
        u, a, v = fact
        rows[(a, u)] = rows.get((a, u), 0) | (1 << v)
        cols[(a, v)] = cols.get((a, v), 0) | (1 << u)
        work.append(fact)

    if nf.start_nullable:
        for u in range(g.vertex_count):
            add((u, nf.start, u), EpsilonAt(u))
    for idx, e in enumerate(g.edges):
        for a in by_char.get(e.label, ()):
            add((e.u, a, e.v), TerminalStep(idx, False))
            if g.kind == UNDIRECTED:
                add((e.v, a, e.u), TerminalStep(idx, True))

    pops = 0
    while work:
        fact = work.popleft() if order == "fifo" else work.pop()
        pops += 1
        u, b, v = fact
        for a, c in by_first.get(b, ()):
            candidates = rows.get((c, v), 0) & ~rows.get((a, u), 0)
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                w = bit.bit_length() - 1
                add((u, a, w), BinarySplit(fact, (v, c, w)))
        for a, b2 in by_second.get(b, ()):
            candidates = cols.get((b2, u), 0) & ~cols.get((a, v), 0)
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                u0 = bit.bit_length() - 1
                add((u0, a, v), BinarySplit((u0, b2, u), fact))

    return ReachTable(facts=provenance.keys(), provenance=provenance, pops=pops)


def cfl_reach(
    g: LabeledGraph, grammar, order: str = "fifo", stats: Optional[dict] = None
) -> Optional[Witness]:
    """Grammar-constrained reachability against a ``Cfg`` or a ``NormalForm``.

    A ``Cfg`` is normalized first.  Returns a witness rooted at ``(source,
    start, target)`` when the fact is derivable, else None.  When source
    equals target and the start symbol is nullable, the empty-walk witness is
    the one returned.  ``stats`` receives the table size and worklist pops
    for both outcomes.
    """
    nf = grammar if isinstance(grammar, NormalForm) else normalize(grammar)
    table = cfl_reach_table(g, nf, order=order)
    if stats is not None:
        stats.update(facts=len(table.facts), pops=table.pops)
    root = (g.source, nf.start, g.target)
    if root not in table.facts:
        return None
    return Witness(root=root, table=table)


def _derivation_postorder(w: Witness) -> list[Fact]:
    """Facts the witness derivation touches, children before parents.

    Validates every provenance reference and rejects cyclic provenance,
    which a well-formed table can never contain.
    """
    prov = w.table.provenance
    if w.root not in prov:
        raise CorruptWitnessError(f"root fact {w.root} is not in the table")
    OPEN, DONE = 0, 1
    state: dict[Fact, int] = {}
    order: list[Fact] = []
    stack: list[Fact] = [w.root]
    while stack:
        fact = stack[-1]
        status = state.get(fact)
        if status is None:
            state[fact] = OPEN
            why = prov[fact]
            if isinstance(why, BinarySplit):
                for ref in (why.right, why.left):
                    if ref not in prov:
                        raise CorruptWitnessError(f"dangling provenance reference {ref}")
                    ref_status = state.get(ref)
                    if ref_status == OPEN:
                        raise CorruptWitnessError("cyclic provenance")
                    if ref_status is None:
                        stack.append(ref)
        elif status == OPEN:
            state[fact] = DONE
            order.append(fact)
            stack.pop()
        else:
            stack.pop()
    return order


def expand_witness(w: Witness, step_limit: int = 10**6) -> Union[Path, ExpansionLimitExceeded]:
    """Flatten a witness derivation into an explicit walk.

    The flattened walk of a shared derivation can be exponentially long, so
    the exact length is computed first; if it exceeds ``step_limit`` the
    result reports both the shared-derivation size and that exact length
    instead of materializing the walk.
    """
    facts = _derivation_postorder(w)
    prov = w.table.provenance

    size: dict[Fact, int] = {}
    for fact in facts:  # children precede parents
        why = prov[fact]
        if isinstance(why, TerminalStep):
            size[fact] = 1
        elif isinstance(why, EpsilonAt):
            size[fact] = 0
        else:
            size[fact] = size[why.left] + size[why.right]
    total = size[w.root]
    if total > step_limit:
        return ExpansionLimitExceeded(shared_size=len(facts), expanded_steps=total)

    steps: list[Step] = []
    stack: list[Fact] = [w.root]
    while stack:
        why = prov[stack.pop()]
        if isinstance(why, TerminalStep):
            steps.append(Step(why.edge, why.reverse))
        elif isinstance(why, BinarySplit):
            stack.append(why.right)
            stack.append(why.left)
    return Path(start=w.root[0], steps=tuple(steps))


def witness_derivation(w: Witness) -> list[tuple]:
    """The witness derivation as nodes in postorder, for :func:`check_derivation`.

    Every node starts with its fact ``(u, A, v)`` and a kind:
    ``(u, A, v, "b", left, right)`` splits by a rule ``A -> B C`` whose
    children are the nodes at indices ``left`` and ``right``;
    ``(u, A, v, "t", edge, reverse)`` reads one edge; ``(u, A, v, "e")`` is
    the empty walk.  Children come before their parents and the root is last.
    """
    facts = _derivation_postorder(w)
    index = {fact: i for i, fact in enumerate(facts)}
    nodes: list[tuple] = []
    for fact in facts:
        why = w.table.provenance[fact]
        if isinstance(why, TerminalStep):
            nodes.append((*fact, "t", why.edge, why.reverse))
        elif isinstance(why, BinarySplit):
            nodes.append((*fact, "b", index[why.left], index[why.right]))
        else:
            nodes.append((*fact, "e"))
    return nodes


def _is_index(x) -> bool:
    return type(x) is int and x >= 0


def check_derivation(
    g: LabeledGraph, nf: NormalForm, nodes, step_limit: int = 10**6
) -> tuple[Step, ...]:
    """Check a postorder derivation rule by rule; return its flattened steps.

    ``nodes`` has the layout :func:`witness_derivation` produces, or the same
    nodes as JSON lists.  Each binary node must match a rule ``A -> B C`` of
    ``nf``, refer only to earlier nodes, and chain its children's endpoints
    ``u -> w -> v``.  Each terminal node must match a rule ``A -> a`` for the
    label of an existing edge, traversed from ``u`` to ``v`` (reversed steps
    only on undirected graphs).  An empty-walk node may only be the root,
    and only when the start symbol is nullable.  The root, the last node, must
    be ``(source, start, target)``.  The check takes time linear in the
    number of nodes; flattening takes time linear in the walk, which must not
    exceed ``step_limit`` steps.  Any violation, including a malformed node,
    raises :class:`CorruptWitnessError`.
    """
    if not isinstance(nodes, (list, tuple)) or not nodes:
        raise CorruptWitnessError("a derivation needs at least one node")
    binary = set(nf.binary_rules)
    terminal = set(nf.terminal_rules)
    facts: list[Fact] = []
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
            sizes.append(min(sizes[left] + sizes[right], step_limit + 1))  # no huge ints
        elif kind == "t" and len(rest) == 2:
            edge, reverse = rest
            if not (_is_index(edge) and edge < len(g.edges) and isinstance(reverse, bool)):
                raise CorruptWitnessError(f"derivation node {i} names no edge of the graph")
            if reverse and g.kind == DIRECTED:
                raise CorruptWitnessError(f"derivation node {i} reverses a directed edge")
            e = g.edges[edge]
            if (a, e.label) not in terminal:
                raise CorruptWitnessError(f"derivation node {i}: no rule {a} -> {e.label!r}")
            if (u, v) != ((e.v, e.u) if reverse else (e.u, e.v)):
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
        raise CorruptWitnessError(
            f"derivation flattens to {sizes[-1]} steps, over the limit of {step_limit}"
        )

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


def regular_reach(
    g: LabeledGraph, d, stats: Optional[dict] = None
) -> Optional[Path]:
    """BFS over (vertex, DFA state) pairs; returns a minimum-length accepted walk."""
    if not g.alphabet <= d.alphabet:
        extra = "".join(sorted(g.alphabet - d.alphabet))
        raise AlphabetMismatchError(f"graph labels {extra!r} are outside the DFA alphabet")
    adj = adjacency(g)
    start = (g.source, d.start)
    parent: dict[tuple[int, int], Optional[tuple[tuple[int, int], int, bool]]] = {start: None}
    queue: deque[tuple[int, int]] = deque([start])
    pops = 0
    while queue:
        v, q = queue.popleft()
        pops += 1
        if v == g.target and q in d.accepting:
            steps: list[Step] = []
            key = (v, q)
            while parent[key] is not None:
                prev, edge, reverse = parent[key]
                steps.append(Step(edge, reverse))
                key = prev
            if stats is not None:
                stats.update(states=len(parent), pops=pops)
            return Path(start=g.source, steps=tuple(reversed(steps)))
        for edge, head, label, reverse in adj[v]:
            key = (head, d.delta[(q, label)])
            if key not in parent:
                parent[key] = ((v, q), edge, reverse)
                queue.append(key)
    if stats is not None:
        stats.update(states=len(parent), pops=pops)
    return None


def iter_st_paths(g: LabeledGraph):
    """All source-to-target paths of a DAG, in lexicographic edge order.

    In an acyclic graph no walk revisits a vertex, so these are exactly the
    source-to-target walks, and none of them passes through the target twice.
    """
    if is_dag(g) is None:
        raise NotADagError("walk enumeration without a bound needs an acyclic graph")
    adj = adjacency(g)
    steps: list[Step] = []

    def rec(v: int):
        if v == g.target:
            yield Path(start=g.source, steps=tuple(steps))
            return
        for edge, head, _, reverse in adj[v]:
            steps.append(Step(edge, reverse))
            yield from rec(head)
            steps.pop()

    yield from rec(g.source)


def dag_enum_reach(
    g: LabeledGraph, member: Member, stats: Optional[dict] = None
) -> Optional[Path]:
    """Exhaustively test every source-to-target path of an acyclic graph."""
    examined = 0
    found = None
    for p in iter_st_paths(g):
        examined += 1
        if member(path_yield(g, p)):
            found = p
            break
    if stats is not None:
        stats.update(paths_examined=examined)
    return found


def bounded_enum_reach(
    g: LabeledGraph, member: Member, max_len: int, stats: Optional[dict] = None
) -> Optional[Path]:
    """First accepted walk of length at most ``max_len``, or None.

    Walks are considered in order of length, then lexicographic edge order.
    Two walks reaching the same vertex with the same yield are
    interchangeable for every later decision, so only the first is extended;
    the walk returned is still the globally first accepted one.  Vertices
    that cannot reach the target within the remaining budget are pruned.
    None only means "no accepted walk within the bound".
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    adj = adjacency(g)

    inf = max_len + 1
    dist = [inf] * g.vertex_count
    dist[g.target] = 0
    back: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in g.edges:
        back[e.v].append(e.u)
        if g.kind == UNDIRECTED and e.u != e.v:
            back[e.u].append(e.v)
    queue = deque([g.target])
    while queue:
        v = queue.popleft()
        for u in back[v]:
            if dist[u] == inf:
                dist[u] = dist[v] + 1
                queue.append(u)

    if dist[g.source] > max_len:
        if stats is not None:
            stats.update(states_examined=0)
        return None

    # A frontier entry is (vertex, yield, linked-list node of steps).
    Node = tuple  # (parent_node | None, Step)
    frontier: list[tuple[int, str, Optional[Node]]] = [(g.source, "", None)]
    seen: set[tuple[int, str]] = {(g.source, "")}
    examined = 0
    for length in range(max_len + 1):
        next_frontier: list[tuple[int, str, Optional[Node]]] = []
        for v, y, node in frontier:
            examined += 1
            if v == g.target and member(y):
                steps: list[Step] = []
                while node is not None:
                    node, step = node[0], node[1]
                    steps.append(step)
                if stats is not None:
                    stats.update(states_examined=examined)
                return Path(start=g.source, steps=tuple(reversed(steps)))
            if length == max_len:
                continue
            budget = max_len - length - 1
            for edge, head, label, reverse in adj[v]:
                if dist[head] > budget:
                    continue
                key = (head, y + label)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append((head, y + label, (node, Step(edge, reverse))))
        frontier = next_frontier
        if not frontier:
            break
    if stats is not None:
        stats.update(states_examined=examined)
    return None


def tree_reach(g: LabeledGraph, member: Member) -> Optional[Path]:
    """Run ``member`` on the yield of the unique tree path source->target.

    The underlying undirected structure must be a tree (connected, no
    self-loops, exactly n-1 edges, parallel edges count as a cycle).  On a
    directed tree every edge of the unique path must point along it;
    otherwise no walk exists at all and NoRespectingPathError is raised.
    Backtracking cannot help on a tree: revisiting an edge needs both
    directions, so the unique simple path is the only candidate walk.
    """
    n = g.vertex_count
    if len(g.edges) != n - 1 or any(e.u == e.v for e in g.edges):
        raise NotATreeError("underlying structure is not a tree")
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge index, other end)
    for i, e in enumerate(g.edges):
        nbrs[e.u].append((i, e.v))
        nbrs[e.v].append((i, e.u))
    parent: dict[int, Optional[tuple[int, int]]] = {g.source: None}
    queue = deque([g.source])
    while queue:
        v = queue.popleft()
        for edge, other in nbrs[v]:
            if other not in parent:
                parent[other] = (v, edge)
                queue.append(other)
    if len(parent) != n:
        raise NotATreeError("underlying structure is disconnected")

    hops: list[tuple[int, int, int]] = []  # (tail, head, edge index)
    at = g.target
    while parent[at] is not None:
        prev, edge = parent[at]
        hops.append((prev, at, edge))
        at = prev
    hops.reverse()

    steps: list[Step] = []
    for tail, head, edge in hops:
        e = g.edges[edge]
        if g.kind == DIRECTED:
            if (e.u, e.v) != (tail, head):
                raise NoRespectingPathError(
                    f"tree edge {e.u}->{e.v} points against the unique path"
                )
            steps.append(Step(edge, False))
        else:
            steps.append(Step(edge, e.u != tail))
    path = Path(start=g.source, steps=tuple(steps))
    return path if member(path_yield(g, path)) else None
