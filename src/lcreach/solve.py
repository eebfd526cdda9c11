"""Reachability solvers for language-constrained walks.

The question answered throughout: does some walk from ``g.source`` to
``g.target`` have a yield inside the constraint language?  Walks may repeat
vertices and edges, and the empty walk counts when source equals target.

Four solver families live here.  All of them read one index of the graph,
:func:`lcreach.graph.edge_ends`, built once per solve:

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
  facts of earlier rounds, :func:`cfl_reach` stops the fixpoint as soon as
  those split its root ``(source, start, target)``, before the join of the
  root's round.  When no edge into the target can end a derivation of the
  root, it runs no round at all, and reports 0 facts and 0 row deltas.
  Otherwise, when the rows the root can read are few, it seeds the fixpoint
  only from the vertices of those rows: the magic-sets rewrite applied to
  CFL reachability.  On cyclic graphs the flattened walk can be exponentially
  longer than the derivation; :func:`expand_witness` flattens under an
  explicit step budget, and :func:`check_derivation` checks a derivation
  rule by rule in linear time.  :func:`cfl_member` decides the
  membership of a word by the same fixpoint on the chain that spells it.
* :func:`dag_enum_reach` — a depth-first search of the paths of an acyclic
  graph that steps an online recognizer and drops a prefix once it is dead.
* :func:`tree_reach` — on trees there is exactly one candidate walk; find it
  and run the predicate on its yield.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from collections.abc import Set
from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    AlphabetMismatchError,
    CorruptWitnessError,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
)
from .graph import DIRECTED, UNDIRECTED, LabeledGraph, Path, Step, edge_ends, is_dag, path_yield
from .grammar import Dfa, NormalForm, _least_fixpoint, normalize
from .languages import Recognizer, dfa_recognizer

Fact = tuple[int, str, int]


class _Rules(NamedTuple):
    """A normal form's nonterminals, numbered by sorted name, and its rules by symbol.

    Every solve on the normal form shares one (:func:`_rules`), so it is read-only.
    """

    names: tuple[str, ...]
    ids: dict[str, int]
    by_head: list[list[tuple[int, int]]]  # A -> [(B, C)], in rule order
    by_first: list[list[tuple[int, int]]]  # B -> [(A, C)]
    by_second: list[list[tuple[int, int]]]  # C -> [(A, B)]
    heads: dict[str, list[int]]  # a -> the X of the rules X -> a
    reads: list[set[str]]  # A -> the a of the rules A -> a


@lru_cache(maxsize=16)
def _rules(nf: NormalForm) -> _Rules:
    """The rule index of ``nf``, built once per normal form for every stage of a ``cfl`` solve."""
    names = tuple(sorted(nf.nonterminals))
    ids = {a: i for i, a in enumerate(names)}
    by_head, by_first, by_second = ([[] for _ in names] for _ in range(3))
    for a, b, c in nf.binary_rules:
        a, b, c = ids[a], ids[b], ids[c]
        by_head[a].append((b, c))
        by_first[b].append((a, c))
        by_second[c].append((a, b))
    heads: dict[str, list[int]] = {}
    reads: list[set[str]] = [set() for _ in names]
    for a, ch in nf.terminal_rules:
        heads.setdefault(ch, []).append(ids[a])
        reads[ids[a]].add(ch)
    return _Rules(names, ids, by_head, by_first, by_second, heads, reads)


class FactSet(Set):
    """The facts ``(u, A, v)`` of a :class:`ReachTable`, read off its rows.

    ``rows[i][u]`` is the bitmask of the ``v`` with ``(u, names[i], v)``.  A
    read-only set: membership, ``len``, iteration ordered by nonterminal name,
    then ``u``, then ``v``, and equality with any other set.  When the start
    symbol is nullable, every ``(u, start, u)`` is a fact for the empty walk
    whether or not the rows hold it too.
    """

    def __init__(self, rules: _Rules, rows: list[list[int]], nullable_start: Optional[int], size: int):
        self.names, self.ids = rules.names, rules.ids
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

    A table stopped at a goal holds the facts born before the goal's round
    and the goal itself, or all of round 0 when the goal is born there.
    When the goal's demand probe closes (:func:`cfl_reach_table`), it holds
    only those facts at the vertices the goal demands, and a fact of a row
    the goal does not demand may be missing or have a later round.  When
    no edge into the goal's target can end a derivation of it, the table
    holds no fact and no row delta: only the empty-walk facts of a
    nullable start.  ``facts`` is the read-only set of facts.
    ``births[i][u]`` lists ``(round, bits)`` pairs in round order: the
    ``v`` whose fact ``(u, A, v)`` was born in that round, for ``A =
    facts.names[i]``.  Round 0 reads one edge; round ``r`` joins two facts
    born before ``r``, so a fact's round is its minimum derivation height
    minus one.  Empty-walk facts are never joined and have no round.  The
    table keeps no provenance: :func:`witness_derivation` rebuilds a
    derivation from the rounds.  ``pops`` counts the row deltas, at most
    one per fact.  ``edge_ends`` is the fixpoint's ``(ends, heads)`` index
    of ``graph`` (:func:`lcreach.graph.edge_ends`), read again by the rebuild.
    """

    graph: LabeledGraph
    normal_form: NormalForm
    facts: FactSet
    births: list[dict[int, list[tuple[int, int]]]]
    pops: int
    edge_ends: tuple[list[list[int]], list[int]] = field(compare=False, repr=False)

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

    With a ``goal`` fact ``(u, A, v)``, a round from round 1 on whose last
    round gave new bits to a ``B``-row of ``u`` or ended a ``C``-row at
    ``v``, for a rule ``A -> B C``, starts by testing whether the facts born
    before it split the goal by such a rule, at the cost of ``A``'s rules
    times the width of ``u``'s row.  If they do, the goal is born in that
    round: it is added as one fact and one row delta, and the rounds stop
    before the join.  A goal born in round 0 stops them after that round,
    and an empty-walk goal before it.  A fact's derivation reads only facts
    born in earlier rounds, so every fact of the stopped table has the round
    it has in the full one, and the goal's derivation is the same.  A goal
    that is never born leaves the full fixpoint.

    Round 0 reads the edges leaving the seed vertices, by the table's
    :func:`lcreach.graph.edge_ends` index.  Without a goal, all are seeds.
    An empty-walk goal, or one dead at its target (:func:`_dead_target`),
    has none: the table holds no fact and no row delta but the empty-walk
    facts of a nullable start.  Any other goal goes to a demand probe,
    :func:`_demand`, for the rows the goal's row can read.  When it closes
    within its budget, the seeds are the vertices of those rows, and the
    table holds facts there alone.  The demanded rows are whole up to the
    stop and keep their full-table rounds, so the goal is born in the same
    round with the same derivation; other rows may lack facts or hold them
    from later rounds.  When the probe gives up, all vertices are seeds.
    """
    if not g.alphabet <= nf.terminals:
        extra = "".join(sorted(g.alphabet - nf.terminals))
        raise AlphabetMismatchError(
            f"graph labels {extra!r} are outside the grammar's alphabet"
        )
    rules = _rules(nf)
    ids, by_first, by_second, heads = rules.ids, rules.by_first, rules.by_second, rules.heads
    n, labels = g.vertex_count, g.labels
    ends, tips = index = edge_ends(g)

    rows = [[0] * n for _ in ids]
    # cols[B][w] lists the u of the facts (u, B, w) born before the last
    # round, for the symbols B that lead a rule body.
    cols: list[defaultdict[int, list[int]]] = [defaultdict(list) for _ in ids]
    births: list[dict[int, list[tuple[int, int]]]] = [{} for _ in ids]
    found: defaultdict[int, dict[int, int]] = defaultdict(dict)  # A -> {u: bits found}
    if goal is None:
        seeds: Iterable[int] = range(n)
    elif nf.start_nullable and goal[1] == nf.start and goal[0] == goal[2] or _dead_target(g, nf, goal):
        seeds = ()  # no round is needed
    else:
        demanded = _demand(g, nf, goal, index)
        seeds = range(n) if demanded is None else set().union(*demanded)
    for u in seeds:  # round 0: the edges leaving the seeds
        for k in ends[u]:
            for a in heads.get(labels[k >> 1], ()):
                fa = found[a]
                fa[u] = fa.get(u, 0) | 1 << tips[k]

    goal_row, goal_births, goal_u, goal_v = [0], {}, 0, 0  # without a goal, a bit never set
    goal_rules: list[tuple[int, int]] = []  # the (B, C) of the goal's rules A -> B C, in rule order
    if goal is not None:
        goal_u, a, goal_v = goal
        goal_row, goal_births, goal_rules = rows[ids[a]], births[ids[a]], rules.by_head[ids[a]]
    goal_bs, goal_cs = {b for b, _ in goal_rules}, {c for _, c in goal_rules}
    goal_bit = 1 << goal_v
    size = pops = rnd = 0
    while True:
        # The bits found that are new were born in this round.
        delta: dict[int, dict[int, int]] = {}
        child = False  # whether a fact (goal_u, B, w) or (w, C, goal_v) of a goal rule was born
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
                size += sum(map(int.bit_count, da.values()))
                if a in goal_bs and goal_u in da or a in goal_cs and any(map(goal_bit.__and__, da.values())):
                    child = True
        if not delta or goal_row[goal_u] & goal_bit:  # a goal born here is born in round 0
            break
        rnd += 1
        # rows now holds the facts born before this round, so the goal is
        # born in it exactly when they split it: stop before the join.  A
        # split with no child born in the last round would have been found
        # in an earlier round, so only a round after such a birth tests.
        if child and _first_split(goal_rules, rows, births, goal_u, goal_v, rnd) is not None:
            goal_row[goal_u] |= goal_bit
            goal_births.setdefault(goal_u, []).append((rnd, goal_bit))
            size += 1
            pops += 1
            break
        found = defaultdict(dict)
        for c, dc in delta.items():
            for a, b in by_second[c]:  # every older (u, B, w) joined with new (w, C, v)
                cols_b, fa = cols[b], found[a]
                for w, bits in dc.items():
                    for u in cols_b.get(w, ()):
                        prev = fa.get(u)
                        fa[u] = bits if prev is None else prev | bits
        for b, db in delta.items():
            b_rules, cols_b = by_first[b], cols[b]
            if not b_rules:
                continue
            for u, bits in db.items():
                ws = _bits(bits)
                for w in ws:  # new (u, B, w) joined with every (w, C, v)
                    cols_b[w].append(u)
                for a, c in b_rules:
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
    return ReachTable(g, nf, FactSet(rules, rows, start, size), births, pops, index)


def _dead_target(g: LabeledGraph, nf: NormalForm, goal: Fact) -> bool:
    """Whether no walk to the target ``v`` of ``goal = (u, A, v)`` derives from ``A``.

    The last leaf of a derivation of ``(u, A, v)`` reads an edge entering
    ``v`` (on an undirected graph, any edge at ``v``) by a rule ``X -> a``,
    and ``X`` is reached from ``A`` through right children only.  So ``A``
    must be in the closure of those ``X`` under "``A`` if ``A -> B C`` and
    ``C`` is in it".  The empty walk is not a derivation and is not asked.
    """
    _, a, v = goal
    chars = set()
    for column in (g.vs, g.us) if g.kind == UNDIRECTED else (g.vs,):
        i = -1
        try:
            while True:  # C-level scans for the edges at v
                i = column.index(v, i + 1)
                chars.add(g.labels[i])
        except ValueError:  # no later edge is at v
            pass
    last = {x for x, ch in nf.terminal_rules if ch in chars}
    return a not in _least_fixpoint(last, [(x, (c,)) for x, _, c in nf.binary_rules])


def _demand(g: LabeledGraph, nf: NormalForm, root: Fact, index, budget: Optional[tuple[float, float]] = None):
    """The demand closure of the row of ``root = (u, A, v)`` with its facts, or None past the budget.

    The closure is the least set ``D`` of pairs ``(u, A)`` that holds the
    root's pair and, for every ``(u, A)`` in it and rule ``A -> B C``, holds
    ``(u, B)`` and ``(w, C)`` for every fact ``(u, B, w)``.  A worklist of
    row deltas, with no rounds, derives the facts of the rows in ``D`` while
    it grows ``D``.  Every derivation of a demanded fact reads only demanded
    rows, and a fact's leftmost leaf reads an edge leaving its first vertex,
    so a fixpoint seeded from the edges leaving the vertices of ``D`` gives
    each demanded fact its full-table round and holds no fact at any other
    vertex.

    The probe gives up once its rows hold more than ``m / 3`` facts or ``D``
    more than ``n / 8`` vertices, for ``m`` edges and ``n`` vertices;
    ``budget`` replaces the pair of limits.  On the benchmark's seed-1
    graphs, closures of circuit outputs hold at most 0.26 m facts on 0.19 n
    vertices (one is over n / 8; at seeds 2 and 3 none is over 0.114 n),
    and those of random d2 graphs with a dead source at most 0.004 m facts
    on 0.03 n.  Chains hold at least 2.2 m facts on all n vertices, other
    random d2 graphs at least 31 m facts on 0.98 n, and undirected dd2
    graphs at least 20 m facts: seeding them from ``D`` would save nothing,
    so the probe stops early on them.

    ``index`` is the ``(ends, heads)`` pair :func:`lcreach.graph.edge_ends`
    built of ``g``, which the probe reads for the edges leaving a demanded
    vertex.  Returns ``rows``: ``rows[i]`` maps each ``u`` with ``(u, A)``
    in ``D``, for the ``i``-th nonterminal ``A`` by name, to the bits of the
    ``v`` with a fact ``(u, A, v)``.
    """
    max_facts, max_vertices = (len(g.us) / 3, g.vertex_count / 8) if budget is None else budget
    if max_vertices < 1:  # the root's vertex alone is over it
        return None
    (ends, heads), rules = index, _rules(nf)
    by_head, by_first, reads = rules.by_head, rules.by_first, rules.reads
    rows: list[dict[int, int]] = [{} for _ in reads]  # the bits taken in so far
    users: list[defaultdict[int, list]] = [defaultdict(list) for _ in reads]  # C -> {w: [(u, A)]}
    fresh: list[tuple[int, int]] = []  # demanded pairs whose rules are not read yet
    work: list[tuple[int, int, int]] = []  # (u, A, bits) to take into a row
    vertices: set[int] = set()
    facts = 0

    def need(u, a):
        if u not in rows[a]:
            rows[a][u] = 0
            vertices.add(u)
            fresh.append((u, a))

    def link(w, c, u, a):  # row (u, A) takes in row (w, C), now and as it grows
        need(w, c)
        users[c][w].append((u, a))
        if rows[c][w]:
            work.append((u, a, rows[c][w]))

    need(root[0], rules.ids[root[1]])
    while fresh or work:
        if facts > max_facts or len(vertices) > max_vertices:
            return None
        if fresh:  # a pair's rules are read before any delta, so no delta is linked twice
            u, a = fresh.pop()
            if reads[a]:
                bits = 0
                for k in ends[u]:
                    if g.labels[k >> 1] in reads[a]:
                        bits |= 1 << heads[k]
                if bits:
                    work.append((u, a, bits))
            for b, c in by_head[a]:
                row_b = rows[b]
                if u not in row_b:
                    row_b[u] = 0
                    fresh.append((u, b))
                elif row_b[u]:
                    for w in _bits(row_b[u]):
                        link(w, c, u, a)
            continue
        u, b, bits = work.pop()
        new = bits & ~rows[b][u]
        if not new:
            continue
        rows[b][u] |= new
        facts += new.bit_count()
        for ua in users[b].get(u, ()):
            work.append((*ua, new))
        if by_first[b]:
            for a, c in [(a, c) for a, c in by_first[b] if u in rows[a]]:
                for w in _bits(new):
                    link(w, c, u, a)
    return rows


def cfl_reach(
    g: LabeledGraph, grammar, stats: Optional[dict] = None
) -> Optional[Witness]:
    """Grammar-constrained reachability against a ``Cfg`` or a ``NormalForm``.

    A ``Cfg`` is normalized first.  Returns a witness rooted at ``(source,
    start, target)`` when the fact is derivable, else None.  When source
    equals target and the start symbol is nullable, the empty-walk witness is
    the one returned.  The fixpoint has that root as its goal, so it stops
    in the round the root is born, before that round's join.  ``stats``
    receives the table size and the row deltas.  When no edge into the
    target can end a derivation of the root, no round runs: 0 facts (or the
    vertex count, for the empty-walk facts of a nullable start) and 0 row
    deltas.  Otherwise they count the facts born before the root's round
    plus the root when it is derivable (all of round 0 when the root is born
    there), or the whole least fixpoint; when the demand probe closes, only
    the rows at the vertices the root demands.
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
    chain = LabeledGraph.from_columns(DIRECTED, n + 1, range(n), range(1, n + 1), w, 0, n, nf.terminals)
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
    born in round 0 reads the first end in the table's edge index that spells
    it: the lowest-numbered edge, forward before reverse.  Any other
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
    rules, births, rows = _rules(nf), table.births, facts.rows
    names, (ends, heads), labels = rules.names, table.edge_ends, table.graph.labels
    index: dict[tuple[int, int, int], int] = {}
    nodes: list = []
    # Entries are (fact, None) to expand a fact, (fact, children) to emit it.
    stack: list[tuple] = [((root[0], rules.ids[root[1]], root[2]), None)]
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
        if rnd == 0:  # the first end from u into v that A reads: edge k >> 1, reversed when k & 1
            reads = rules.reads[a]
            k = next((k for k in ends[u] if heads[k] == v and labels[k >> 1] in reads), None)
            if k is None:
                raise CorruptWitnessError("a fact born in round 0 reads no edge")
            index[key] = len(nodes)
            nodes.append((u, names[a], v, "t", k >> 1, bool(k & 1)))
            continue
        split = _first_split(rules.by_head[a], rows, births, u, v, rnd)
        if split is None:
            raise CorruptWitnessError(
                f"fact {(u, names[a], v)} has no split into facts born before round {rnd}"
            )
        b, c, w = split
        kids = (u, b, w), (w, c, v)
        stack += ((key, kids), (kids[1], None), (kids[0], None))
    return nodes


def _first_split(rules, rows, births, u: int, v: int, rnd: int) -> Optional[tuple[int, int, int]]:
    """The first rule, then the lowest ``w``, splitting ``(u, A, v)`` into facts born before ``rnd``.

    ``rules`` lists the ``(B, C)`` of the rules ``A -> B C`` in rule order,
    and ``rows`` and ``births`` are a table's.  Returns ``(B, C, w)`` for the
    facts ``(u, B, w)`` and ``(w, C, v)``, or None when no rule splits it.
    """
    for b, c in rules:
        left, chunks = rows[b][u], births[b].get(u)
        if not left:
            continue
        if not chunks or chunks[-1][0] >= rnd:  # some of the row may be born too late
            left = _born_before(chunks or (), rnd)
        rows_c = rows[c]
        for w in _bits(left):
            if rows_c[w] >> v & 1:
                born = _born(births[c].get(w, ()), v)
                if born is not None and born < rnd:
                    return b, c, w
    return None


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
    ends, heads = edge_ends(g)
    if max_len is None:
        max_len, dist = math.inf, [0] * g.vertex_count
    else:  # steps from each vertex to the target
        dist = [math.inf] * g.vertex_count
        dist[g.target] = 0
        undirected = g.kind == UNDIRECTED
        near = ends if undirected else edge_ends(g, both=True)[0]  # undirected ends go both ways already
        queue = deque([g.target])
        while queue:
            v = queue.popleft()
            for k in near[v]:  # end k ^ 1 enters v from heads[k]: a move if g is undirected or k ^ 1 is forward
                u = heads[k]
                if dist[u] == math.inf and (undirected or k & 1):
                    dist[u] = dist[v] + 1
                    queue.append(u)
    step, accepts, target, labels = rec.step, rec.accepts, g.target, g.labels
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
            for k in ends[v]:
                head = heads[k]
                if dist[head] + length < max_len:
                    nxt = (head, step(q, labels[k >> 1]))
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


def iter_st_paths(g: LabeledGraph, rec: Recognizer) -> Iterator[tuple[Path, Hashable]]:
    """The source-to-target paths of a DAG that ``rec`` keeps live, with their states, in edge order.

    A depth-first search that steps ``rec`` along each edge and skips an
    edge whose step is dead.  In an acyclic graph, checked on the index the
    search walks, these are all the source-to-target walks ``rec`` keeps live.
    """
    ends, heads = index = edge_ends(g)
    if is_dag(g, index) is None:
        raise NotADagError("walk enumeration without a bound needs an acyclic graph")
    labels, step, target = g.labels, rec.step, g.target
    steps: list[Step] = []

    def walk(v: int, q: Hashable):
        if v == target:
            yield Path(start=g.source, steps=tuple(steps)), q
            return
        for k in ends[v]:  # forward ends only: the graph is directed
            nxt = step(q, labels[k >> 1])
            if nxt is not None:
                steps.append(Step(k >> 1))
                yield from walk(heads[k], nxt)
                steps.pop()

    if rec.start is not None:
        yield from walk(g.source, rec.start)


def dag_enum_reach(
    g: LabeledGraph, rec: Recognizer, stats: Optional[dict] = None
) -> Optional[Path]:
    """The first path of :func:`iter_st_paths` that ``rec`` accepts, or None.

    Pruning cuts only failing branches, so it is the first accepted path of
    the full enumeration.  ``stats`` receives ``paths_examined``: the paths
    that reached the target live, up to the one returned.
    """
    found, examined = None, 0
    for examined, (p, q) in enumerate(iter_st_paths(g, rec), 1):
        if rec.accepts(q):
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


def tree_reach(g: LabeledGraph, member: Callable[[str], bool]) -> Optional[Path]:
    """Run ``member`` on the yield of the unique tree path source->target.

    The underlying undirected structure must be a tree (connected, no
    self-loops, exactly n-1 edges, parallel edges count as a cycle).  On a
    directed tree every edge of the unique path must point along it;
    otherwise no walk exists at all and NoRespectingPathError is raised.
    Only that simple path is decided.  On a directed tree it is the only
    walk, but on an undirected tree a walk may step back along an edge, and
    such walks are missed even when ``member`` accepts their yield.
    """
    n = g.vertex_count
    if len(g.us) != n - 1 or any(map(eq, g.us, g.vs)):
        raise NotATreeError("underlying structure is not a tree")
    ends, heads = edge_ends(g, both=True)
    parent: dict[int, Optional[int]] = {g.source: None}  # vertex -> the end that first reached it
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
        at = heads[k ^ 1]  # the tail of end k
    steps.reverse()
    for e, reverse in steps if g.kind == DIRECTED else ():
        if reverse:
            raise NoRespectingPathError(f"tree edge {g.us[e]}->{g.vs[e]} points against the unique path")
    path = Path(start=g.source, steps=tuple(steps))
    return path if member(path_yield(g, path)) else None
