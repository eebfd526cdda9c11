"""Reachability solvers for language-constrained walks.

The question answered throughout: does some walk from ``g.source`` to
``g.target`` have a yield inside the constraint language?  Walks may repeat
vertices and edges, and the empty walk counts when source equals target.

Four solver families live here:

* :func:`regular_reach` / :func:`bounded_enum_reach` — one breadth-first
  search of the product of graph vertices and online recognizer states: a
  DFA's states without a bound, or any recognizer's under a length bound.
  Either returns the first accepted walk by length, then edge order.
* :func:`cfl_reach_table` / :func:`cfl_reach` — the least fixpoint of facts
  ``(u, A, v)`` meaning "some u-to-v walk derives from nonterminal A", run
  one round at a time over bitmask rows.  A fact's round is one less than
  its minimum derivation height, and that is all the table keeps about how
  it was derived: :func:`witness_derivation` rebuilds a derivation, shared
  across facts, from the rounds on demand.  Since a derivation reads only
  facts of earlier rounds, :func:`cfl_reach` stops the fixpoint in the round
  its root ``(source, start, target)`` is born.  On cyclic graphs the flattened
  walk can be exponentially longer than the derivation; :func:`expand_witness`
  flattens under an explicit step budget, and :func:`check_derivation`
  checks a derivation rule by rule in linear time.  :func:`cfl_member`
  decides the membership of a word by the same fixpoint on the chain that
  spells it.
* :func:`dag_enum_reach` — exhaustive path enumeration of an acyclic graph
  against a black-box membership predicate.
* :func:`tree_reach` — on trees there is exactly one candidate walk; find it
  and run the predicate on its yield.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import compress, count
from operator import itemgetter
from typing import Callable, Iterator, Optional, Union

from .errors import (
    AlphabetMismatchError,
    CorruptWitnessError,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
)
from .graph import DIRECTED, UNDIRECTED, Edge, LabeledGraph, Path, Step, adjacency, is_dag, path_yield
from .grammar import Dfa, NormalForm, normalize
from .languages import Recognizer, dfa_recognizer

Fact = tuple[int, str, int]
Member = Callable[[str], bool]


class FactSet(Set):
    """The facts ``(u, A, v)`` of a :class:`ReachTable`, read off its rows.

    ``rows[i][u]`` is the bitmask of the ``v`` with ``(u, names[i], v)``.  A
    read-only set: membership, ``len``, iteration ordered by nonterminal name,
    then ``u``, then ``v``, and equality with any other set.  When the start
    symbol is nullable, every ``(u, start, u)`` is a fact for the empty walk
    whether or not the rows hold it too.
    """

    def __init__(
        self, names: tuple[str, ...], rows: list[list[int]], nullable_start: Optional[int], size: int
    ):
        self.names = names
        self.ids = {a: i for i, a in enumerate(names)}
        self.rows = rows
        self._empty = nullable_start  # id of the start symbol when it is nullable
        self._len = size

    def __len__(self) -> int:
        return self._len

    def __contains__(self, fact) -> bool:
        try:
            u, a, v = fact
            i = self.ids[a]
        except (TypeError, ValueError, KeyError):
            return False
        if not (type(u) is int and type(v) is int and 0 <= u < len(self.rows[i]) and v >= 0):
            return False
        return bool(self.rows[i][u] >> v & 1) or (i == self._empty and u == v)

    def __iter__(self) -> Iterator[Fact]:
        for i, a in enumerate(self.names):  # names are sorted
            for u, row in enumerate(self.rows[i]):
                if i == self._empty:
                    row |= 1 << u
                for v in _bits(row):
                    yield (u, a, v)

    def __repr__(self) -> str:
        return f"FactSet({len(self)} facts)"


@dataclass(frozen=True)
class ReachTable:
    """Least fixpoint of derivation facts, as bit rows with birth rounds.

    A table stopped at a goal holds the facts of the rounds up to the goal's.
    ``facts`` is the read-only set of facts.  ``births[i][u]`` lists
    ``(round, bits)`` pairs in round order: the ``v`` whose fact ``(u, A,
    v)`` was born in that round, for ``A = facts.names[i]``.  Round 0 reads
    one edge; round ``r`` joins two facts born before ``r``, so a fact's
    round is its minimum derivation height minus one.  Empty-walk facts are
    never joined and have no round.  The table keeps no provenance:
    :func:`witness_derivation` rebuilds a derivation from the rounds.
    ``pops`` counts the row deltas, at most one per fact.
    """

    graph: LabeledGraph
    normal_form: NormalForm
    facts: FactSet
    births: list[dict[int, list[tuple[int, int]]]]
    pops: int

    def born(self, fact: Fact) -> Optional[int]:
        """The round in which ``fact`` was derived, or None (empty walk or no fact)."""
        u, a, v = fact
        i = self.facts.ids.get(a)
        return None if i is None else _born(self.births[i].get(u, ()), v)


@dataclass
class Witness:
    """A reachability certificate: a root fact plus the table deriving it.

    ``nodes`` caches the derivation once :func:`witness_derivation` built it.
    """

    root: Fact
    table: ReachTable
    nodes: Optional[list[tuple]] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ExpansionLimitExceeded:
    """Returned when flattening a witness would exceed the step budget.

    ``shared_size`` is the exact number of distinct facts in the derivation;
    ``expanded_steps`` is the exact length the flattened walk would have.
    """

    shared_size: int
    expanded_steps: int


def _bits(x: int) -> list[int]:
    """The positions of the set bits of ``x >= 0``, lowest first.

    Rows of deep sparse graphs are long ints with a few bits, so the top
    bits are peeled one at a time; a mask still left after four is read off
    its binary digits instead.
    """
    top = []
    while x:
        if len(top) == 4:
            rest = [i for i, ch in enumerate(bin(x)[:1:-1]) if ch == "1"]
            top.reverse()
            return rest + top
        high = x.bit_length() - 1
        top.append(high)
        x ^= 1 << high
    top.reverse()
    return top


def _born(chunks, v: int) -> Optional[int]:
    """The round of the first ``(round, bits)`` chunk holding bit ``v``."""
    for rnd, bits in chunks:
        if bits >> v & 1:
            return rnd
    return None


def _born_before(chunks, rnd: int) -> int:
    """The bits of the chunks born before round ``rnd``."""
    acc = 0
    for r, bits in chunks:
        if r >= rnd:
            break
        acc |= bits
    return acc


def cfl_reach_table(g: LabeledGraph, nf: NormalForm, goal: Optional[Fact] = None) -> ReachTable:
    """Least fixpoint of facts ``(u, A, v)`` over ``g`` and ``nf``, a round at a time.

    Round 0 holds ``(u, A, v)`` for every rule ``A -> a`` and edge ``u -a->
    v`` (both traversal directions when ``g`` is undirected).  Round ``r``
    joins the facts born in round ``r - 1`` under every rule ``A -> B C``:
    a new row ``(B, u)`` ORs in the ``C``-rows of its new bits, and a new row
    ``(C, w)`` is ORed into the ``A``-row of every ``u`` with an older fact
    ``(u, B, w)``.  Work per round follows the new bits, never the vertex
    count.  When the start symbol is nullable, ``(u, start, u)`` is a fact
    for every vertex, but it is never joined: the normal form already
    derives every non-empty walk.

    With a ``goal`` fact, the rounds stop right after the one in which the
    goal is born, before any join; an empty-walk goal stops them before
    round 0.  A fact's derivation reads only facts born in earlier rounds,
    so every fact of the stopped table has the round it has in the full
    one, and the goal's derivation is the same.  A goal that is never born
    leaves the full fixpoint.
    """
    if not g.alphabet <= nf.terminals:
        extra = "".join(sorted(g.alphabet - nf.terminals))
        raise AlphabetMismatchError(
            f"graph labels {extra!r} are outside the grammar's alphabet"
        )
    names = tuple(sorted(nf.nonterminals))
    ids = {a: i for i, a in enumerate(names)}
    n = g.vertex_count
    by_first: list[list[tuple[int, int]]] = [[] for _ in names]  # B -> [(A, C)]
    by_second: list[list[tuple[int, int]]] = [[] for _ in names]  # C -> [(A, B)]
    for a, b, c in nf.binary_rules:
        by_first[ids[b]].append((ids[a], ids[c]))
        by_second[ids[c]].append((ids[a], ids[b]))
    heads: dict[str, list[int]] = {}
    for a, ch in nf.terminal_rules:
        heads.setdefault(ch, []).append(ids[a])

    rows = [[0] * n for _ in names]
    # cols[B][w] lists the u of the facts (u, B, w) born before the last
    # round, for the symbols B that lead a rule body.
    cols: list[defaultdict[int, list[int]]] = [defaultdict(list) for _ in names]
    births: list[dict[int, list[tuple[int, int]]]] = [{} for _ in names]
    found: defaultdict[int, dict[int, int]] = defaultdict(dict)  # A -> {u: bits found}
    undirected = g.kind == UNDIRECTED
    for e in g.edges:
        for a in heads.get(e.label, ()):
            fa = found[a]
            fa[e.u] = fa.get(e.u, 0) | 1 << e.v
            if undirected:
                fa[e.v] = fa.get(e.v, 0) | 1 << e.u

    goal_row, goal_u, goal_bit = [0], 0, 1  # without a goal, a bit never set
    if goal is not None:
        goal_u, a, v = goal
        goal_row, goal_bit = rows[ids[a]], 1 << v
        if nf.start_nullable and a == nf.start and goal_u == v:
            found.clear()  # the empty walk needs no round
    size = pops = rnd = 0
    while True:
        # The bits found that are new were born in this round.
        delta: dict[int, dict[int, int]] = {}
        for a, fa in found.items():
            da: dict[int, int] = {}
            rows_a, births_a = rows[a], births[a]
            for u, bits in fa.items():
                row = rows_a[u]
                old = bits & row
                if old:
                    bits ^= old
                    if not bits:
                        continue
                da[u] = bits
                rows_a[u] = row | bits
                chunks = births_a.get(u)
                if chunks is None:
                    births_a[u] = [(rnd, bits)]
                else:
                    chunks.append((rnd, bits))
            if da:
                delta[a] = da
                pops += len(da)
        if not delta:
            break
        if goal_row[goal_u] & goal_bit:  # the goal was born in this round
            size += sum(bits.bit_count() for da in delta.values() for bits in da.values())
            break
        rnd += 1
        found = defaultdict(dict)
        for c, dc in delta.items():
            for a, b in by_second[c]:  # every older (u, B, w) joined with new (w, C, v)
                cols_b, fa = cols[b], found[a]
                for w, bits in dc.items():
                    for u in cols_b.get(w, ()):
                        prev = fa.get(u)
                        fa[u] = bits if prev is None else prev | bits
        for b, db in delta.items():
            rules, cols_b = by_first[b], cols[b]
            if not rules:
                size += sum(bits.bit_count() for bits in db.values())
                continue
            for u, bits in db.items():
                ws = _bits(bits)
                size += len(ws)
                for w in ws:  # new (u, B, w) joined with every (w, C, v)
                    cols_b[w].append(u)
                for a, c in rules:
                    rows_c = rows[c]
                    acc = rows_c[ws[0]]
                    for w in ws[1:]:
                        acc |= rows_c[w]
                    if acc:
                        fa = found[a]
                        prev = fa.get(u)
                        fa[u] = acc if prev is None else prev | acc

    start = ids[nf.start] if nf.start_nullable else None
    if start is not None:
        size += sum(not row >> u & 1 for u, row in enumerate(rows[start]))
    return ReachTable(g, nf, FactSet(names, rows, start, size), births, pops)


def cfl_reach(
    g: LabeledGraph, grammar, stats: Optional[dict] = None
) -> Optional[Witness]:
    """Grammar-constrained reachability against a ``Cfg`` or a ``NormalForm``.

    A ``Cfg`` is normalized first.  Returns a witness rooted at ``(source,
    start, target)`` when the fact is derivable, else None.  When source
    equals target and the start symbol is nullable, the empty-walk witness is
    the one returned.  The fixpoint has that root as its goal, so it stops
    in the round the root is born.  ``stats`` receives the table size and
    the row deltas: up to the root's round when it is derivable, over the
    whole least fixpoint when it is not.
    """
    nf = grammar if isinstance(grammar, NormalForm) else normalize(grammar)
    root = (g.source, nf.start, g.target)
    table = cfl_reach_table(g, nf, goal=root)
    if stats is not None:
        stats.update(facts=len(table.facts), pops=table.pops)
    if root not in table.facts:
        return None
    return Witness(root=root, table=table)


def cfl_member(nf: NormalForm, w: str) -> bool:
    """Membership of ``w`` in the language of ``nf``, decided by :func:`cfl_reach` on a chain.

    ``w`` is in the language exactly when the directed chain ``0 -w[0]-> 1
    ... -> len(w)`` has a walk from its first vertex to its last whose yield
    is in it.  The empty word is the chain's empty walk.  A symbol outside
    ``nf.terminals`` answers False, since no rule reads it.
    """
    if not nf.terminals.issuperset(w):
        return False
    n = len(w)
    chain = LabeledGraph(DIRECTED, n + 1, tuple(map(Edge, count(), count(1), w)), 0, n, nf.terminals)
    return cfl_reach(chain, nf) is not None


def witness_derivation(w: Witness) -> list[tuple]:
    """The witness derivation as nodes in postorder, for :func:`check_derivation`.

    Every node is a fact ``(u, A, v)`` followed by how it is derived:
    ``(u, A, v, "b", left, right)`` splits it by a rule ``A -> B C`` into the
    nodes at indices ``left`` and ``right``, ``(u, A, v, "t", edge,
    reverse)`` reads one edge, and ``(u, A, v, "e")`` is the empty walk, only
    ever the whole derivation.  Children come before their parents and the
    root is last.

    The derivation is rebuilt from the table's birth rounds alone.  A fact
    born in round 0 reads the lowest-numbered edge that spells it.  Any other
    fact takes the first rule of the normal form, then the lowest split
    vertex, whose two children were both born in earlier rounds, so the
    rebuild always ends.  It costs about the derivation's size times the
    row width.  The nodes are cached on ``w``.
    """
    if w.nodes is None:
        w.nodes = _derive(w.table, w.root)
    return w.nodes


def _derive(table: ReachTable, root: Fact) -> list[tuple]:
    facts, nf = table.facts, table.normal_form
    if root not in facts:
        raise CorruptWitnessError(f"root fact {root} is not in the table")
    if nf.start_nullable and root[1] == nf.start and root[0] == root[2]:
        return [(*root, "e")]
    names, ids, births = facts.names, facts.ids, table.births
    splits: list[list[tuple[int, int]]] = [[] for _ in names]  # A -> [(B, C)] in rule order
    for a, b, c in nf.binary_rules:
        splits[ids[a]].append((ids[b], ids[c]))

    index: dict[tuple[int, int, int], int] = {}
    reads: list[int] = []  # the round-0 nodes, whose edges are looked up below
    nodes: list = []
    # Entries are (fact, None) to expand a fact, (fact, children) to emit it.
    stack: list[tuple] = [((root[0], ids[root[1]], root[2]), None)]
    while stack:
        key, kids = stack.pop()
        u, a, v = key
        if kids is not None:
            index[key] = len(nodes)
            nodes.append((u, names[a], v, "b", index[kids[0]], index[kids[1]]))
            continue
        if key in index:
            continue
        rnd = _born(births[a].get(u, ()), v)
        if rnd is None:
            raise CorruptWitnessError(f"fact {(u, names[a], v)} has no birth round")
        if rnd == 0:
            index[key] = len(nodes)
            reads.append(len(nodes))
            nodes.append((u, names[a], v))
            continue
        kids = _split(table, splits[a], key, rnd)
        stack += ((key, kids), (kids[1], None), (kids[0], None))
    _read_edges(table.graph, nf, nodes, reads)
    return nodes


def _split(table: ReachTable, rules, key, rnd: int) -> tuple:
    """Children of ``key``: the first rule, then the lowest split vertex, both born before ``rnd``."""
    u, a, v = key
    births, rows = table.births, table.facts.rows
    for b, c in rules:
        rows_c, births_c = rows[c], births[c]
        for w in _bits(_born_before(births[b].get(u, ()), rnd)):
            if rows_c[w] >> v & 1:
                born = _born(births_c.get(w, ()), v)
                if born is not None and born < rnd:
                    return (u, b, w), (w, c, v)
    raise CorruptWitnessError(
        f"fact {(u, table.facts.names[a], v)} has no split into facts born before round {rnd}"
    )


def _read_edges(g: LabeledGraph, nf: NormalForm, nodes: list, reads: list[int]) -> None:
    """Complete each round-0 node ``(u, A, v)`` with the lowest-numbered edge spelling it.

    Only the edges leaving a vertex some node starts from are looked at; a
    forward reading of an edge comes before its reverse.
    """
    chars: dict[str, set[str]] = {}
    for a, ch in nf.terminal_rules:
        chars.setdefault(a, set()).add(ch)
    todo: dict[int, list[int]] = {}  # u -> the round-0 nodes that start at u
    for at in reads:
        todo.setdefault(nodes[at][0], []).append(at)
    edges, undirected = g.edges, g.kind == UNDIRECTED

    def leaving(end: int):  # indices of the edges whose end ``end`` is a tail in todo
        return compress(count(), map(todo.__contains__, map(itemgetter(end), edges)))

    hits = sorted({*leaving(0), *leaving(1)}) if undirected else leaving(0)
    left = len(reads)
    for edge in hits:
        e = edges[edge]
        for reverse, tail, head in ((False, e.u, e.v), (True, e.v, e.u))[: 1 + undirected]:
            waiting = todo.get(tail)
            for at in list(waiting or ()):
                u, a, v = nodes[at]
                if v == head and e.label in chars.get(a, ()):
                    nodes[at] = (u, a, v, "t", edge, reverse)
                    waiting.remove(at)
                    left -= 1
        if not left:
            return
    raise CorruptWitnessError("a fact born in round 0 reads no edge")


def _flatten(nodes) -> tuple[Step, ...]:
    """The steps a postorder derivation spells, read from its root, the last node."""
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


def expand_witness(w: Witness, step_limit: int = 10**6) -> Union[Path, ExpansionLimitExceeded]:
    """Flatten a witness derivation into an explicit walk.

    The flattened walk of a shared derivation can be exponentially long, so
    the exact length is computed first; if it exceeds ``step_limit`` the
    result reports both the shared-derivation size and that exact length
    instead of materializing the walk.
    """
    nodes = witness_derivation(w)
    sizes: list[int] = []
    for node in nodes:  # children precede parents
        kind = node[3]
        sizes.append(1 if kind == "t" else 0 if kind == "e" else sizes[node[4]] + sizes[node[5]])
    if sizes[-1] > step_limit:
        return ExpansionLimitExceeded(shared_size=len(nodes), expanded_steps=sizes[-1])
    return Path(start=w.root[0], steps=_flatten(nodes))


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

    return _flatten(nodes)


def _product_search(
    g: LabeledGraph, rec: Recognizer, max_len: Optional[int], stats: Optional[dict]
) -> Optional[Path]:
    """Breadth-first search of (vertex, recognizer state) pairs from ``(source, start)``.

    Walks are taken by length, then edge order, and only the first walk to
    reach a pair is extended: two prefixes in one state accept the same
    suffixes, so the walk returned is the first accepted one.  Dead states
    are dropped, and under a bound so are walks that cannot reach the
    target in the steps left.  ``stats`` receives the pairs reached
    (``states``) and examined (``states_examined``).
    """
    adj = adjacency(g)
    if max_len is None:
        max_len, dist = math.inf, [0] * g.vertex_count
    else:  # steps from each vertex to the target
        dist = [math.inf] * g.vertex_count
        dist[g.target] = 0
        back: list[list[int]] = [[] for _ in adj]
        for u, hops in enumerate(adj):
            for hop in hops:
                back[hop[1]].append(u)
        queue = deque([g.target])
        while queue:
            v = queue.popleft()
            for u in back[v]:
                if dist[u] == math.inf:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    step, accepts, target = rec.step, rec.accepts, g.target
    parent: dict = {(g.source, rec.start): None} if dist[g.source] <= max_len else {}
    frontier, examined, length, found = list(parent), 0, 0, None
    while frontier and found is None:
        reached = []
        for key in frontier:
            examined += 1
            v, q = key
            if v == target and accepts(q):
                found = key
                break
            for edge, head, label, reverse in adj[v]:
                if dist[head] + length < max_len:
                    nxt = (head, step(q, label))
                    if nxt[1] is not None and nxt not in parent:
                        parent[nxt] = (key, edge, reverse)
                        reached.append(nxt)
        frontier = reached
        length += 1
    if stats is not None:
        stats.update(states=len(parent), states_examined=examined)
    if found is None:
        return None
    steps: list[Step] = []
    while parent[found] is not None:
        found, edge, reverse = parent[found]
        steps.append(Step(edge, reverse))
    return Path(start=g.source, steps=tuple(reversed(steps)))


def regular_reach(
    g: LabeledGraph, d: Dfa, stats: Optional[dict] = None, rec: Optional[Recognizer] = None
) -> Optional[Path]:
    """A minimum-length walk whose yield ``d`` accepts: the product search, unbounded.

    ``rec`` is ``dfa_recognizer(d)`` when the caller has built it already.
    """
    if not g.alphabet <= d.alphabet:
        extra = "".join(sorted(g.alphabet - d.alphabet))
        raise AlphabetMismatchError(f"graph labels {extra!r} are outside the DFA alphabet")
    return _product_search(g, dfa_recognizer(d) if rec is None else rec, None, stats)


def iter_st_paths(g: LabeledGraph) -> Iterator[tuple[Path, str]]:
    """All source-to-target paths of a DAG with their yields, in lexicographic edge order.

    In an acyclic graph no walk revisits a vertex, so these are exactly the
    source-to-target walks, and none of them passes through the target twice.
    """
    if is_dag(g) is None:
        raise NotADagError("walk enumeration without a bound needs an acyclic graph")
    adj = adjacency(g)
    steps: list[Step] = []
    labels: list[str] = []

    def rec(v: int):
        if v == g.target:
            yield Path(start=g.source, steps=tuple(steps)), "".join(labels)
            return
        for edge, head, label, reverse in adj[v]:
            steps.append(Step(edge, reverse))
            labels.append(label)
            yield from rec(head)
            steps.pop()
            labels.pop()

    yield from rec(g.source)


def dag_enum_reach(
    g: LabeledGraph, member: Member, stats: Optional[dict] = None
) -> Optional[Path]:
    """Exhaustively test every source-to-target path of an acyclic graph."""
    found, examined = None, 0
    for examined, (p, text) in enumerate(iter_st_paths(g), 1):
        if member(text):
            found = p
            break
    if stats is not None:
        stats.update(paths_examined=examined)
    return found


def bounded_enum_reach(
    g: LabeledGraph, rec: Recognizer, max_len: int, stats: Optional[dict] = None
) -> Optional[Path]:
    """The first walk of at most ``max_len`` steps that ``rec`` accepts; None means none within the bound."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return _product_search(g, rec, max_len, stats)


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
    for i, (u, v, _) in enumerate(g.edges):
        nbrs[u].append((i, v))
        nbrs[v].append((i, u))
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
        u, v, _ = g.edges[edge]
        if g.kind == DIRECTED:
            if (u, v) != (tail, head):
                raise NoRespectingPathError(f"tree edge {u}->{v} points against the unique path")
            steps.append(Step(edge, False))
        else:
            steps.append(Step(edge, u != tail))
    path = Path(start=g.source, steps=tuple(steps))
    return path if member(path_yield(g, path)) else None
