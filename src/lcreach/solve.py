"""Reachability solvers for language-constrained walks.

The question answered throughout: does some walk from ``g.source`` to
``g.target`` have a yield inside the constraint language?  Walks may repeat
vertices and edges, and the empty walk counts when source equals target.

Four solver families live here.  All of them walk the edge-end chains
:func:`lcreach.graph.edge_ends` (flat ``first`` and ``after`` int lists, no
list per vertex), built once per solve.  :func:`tree_reach` builds the
two-way ``edge_ends(g, both=True)`` instead, and :func:`bounded_enum_reach` on
a directed graph builds it beside the forward one, to count steps to the target.

* :func:`regular_reach` / :func:`bounded_enum_reach` — one breadth-first
  search of the product of graph vertices and online recognizer states: a
  DFA's states without a bound, or any recognizer's under a length bound.
  Either returns the first accepted walk by length, then edge order.
* :func:`cfl_reach_table` / :func:`cfl_reach` — the least fixpoint of facts
  ``(u, A, v)`` meaning "some u-to-v walk derives from nonterminal A", run
  one round at a time over bitmask rows.  A fact's round is one less than
  its minimum derivation height, and that is all the table keeps about how
  it was derived: :func:`witness_derivation` rebuilds a derivation, shared
  across facts, from the rounds.  Since a derivation reads only
  facts of earlier rounds, :func:`cfl_reach` makes its root ``(source,
  start, target)`` a round of its own as soon as those split it, in place of
  that round's join, and stops.  After a dense round it looks one round
  further ahead, in the source's rows and the target's columns alone; when
  those split the root, they are the next round, in place of its join, and
  the root the round after.  One loop stores every round.  When
  no edge into the target can end a derivation of the root, it runs no
  round at all, and reports 0 facts and 0 row deltas.
  Otherwise, when the rows the root can read are few, it seeds the fixpoint
  only from the vertices of those rows: the magic-sets rewrite applied to
  CFL reachability.  :func:`cfl_reach` answers with the root's derivation,
  the postorder nodes :func:`check_derivation` checks rule by rule in linear
  time; :func:`expand_witness` flattens it under a step budget, since on
  cyclic graphs the walk can be exponentially longer.  :func:`cfl_member`
  decides the membership of a word by the same fixpoint on its chain.
* :func:`dag_enum_reach` — a depth-first search of the paths of an acyclic
  graph that steps an online recognizer and drops a prefix once it is dead.
* :func:`tree_reach` — on trees there is exactly one candidate walk; find it
  and run the predicate on its yield.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
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
    leads: list[dict[str, list[int]]]  # A -> {a: the C of the rules A -> B C with B -> a}


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
    leads: list[dict[str, list[int]]] = [{} for _ in names]
    for a, rules in enumerate(by_head):
        for b, c in rules:
            for ch in sorted(reads[b]):
                leads[a].setdefault(ch, []).append(c)
    return _Rules(names, ids, by_head, by_first, by_second, heads, reads, leads)


class FactSet:
    """The facts ``(u, A, v)`` of a :class:`ReachTable`: a count and a membership test on its rows.

    ``rows[i][u]`` is the bitmask of the ``v`` with ``(u, A, v)``, where
    ``ids[A] == i``.  When the start symbol is nullable, every ``(u, start,
    u)`` is a fact for the empty walk whether or not the rows hold it too.
    The set is not iterable: a reader of every fact reads ``rows``.
    """

    def __init__(self, rules: _Rules, rows: list[list[int]], nullable_start: Optional[int], size: int):
        self.ids, self.rows = rules.ids, rows
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


@dataclass(frozen=True)
class ReachTable:
    """Least fixpoint of derivation facts, as bit rows with birth rounds.

    A table stopped at a goal holds the facts born before the goal's round
    and the goal itself, or all of round 0 when the goal is born there.  When
    the goal ``(u, A, v)`` was found by looking ahead from a dense round, the
    round before the goal's is held only in the rows ``(u, B)`` and the
    columns ``(C, v)`` of the goal's rules ``A -> B C``.  When the goal's
    demand probe closes (:func:`cfl_reach_table`), it holds
    only those facts at the vertices the goal demands, and a fact of a row
    the goal does not demand may be missing or have a later round.  When
    no edge into the goal's target can end a derivation of it, the table
    holds no fact and no row delta: only the empty-walk facts of a
    nullable start.  ``facts`` counts the facts and tests membership;
    its ``rows`` hold them.  ``births[i][u]`` lists ``(round, bits)`` pairs
    in round order: the ``v`` whose fact ``(u, A, v)`` was born in that
    round, for the ``A`` with ``facts.ids[A] == i``.  Round 0 reads one
    edge; round ``r`` joins two facts born before ``r``, so a fact's round
    is its minimum derivation height minus one.  Empty-walk facts are never joined and have no round.  The
    table keeps no provenance: :func:`witness_derivation` rebuilds a
    derivation from the rounds.  ``pops`` counts the row deltas, at most
    one per fact.  ``edge_ends`` is the fixpoint's ``(first, after, heads)``
    chains (:func:`lcreach.graph.edge_ends`) of ``graph``, read by the rebuild.
    """

    graph: LabeledGraph
    normal_form: NormalForm
    facts: FactSet
    births: list[dict[int, list[tuple[int, int]]]]
    pops: int
    edge_ends: tuple[list[int], list[int], list[int]] = field(compare=False, repr=False)


@dataclass(frozen=True)
class ExpansionLimitExceeded:
    """Returned when flattening a derivation would exceed the step budget.

    ``expanded_steps`` is the exact length the flattened walk would have;
    the derivation's own size is the length of its node list.
    """

    expanded_steps: int


def _bits(x: int) -> list[int]:
    """The positions of the set bits of ``x >= 0``, lowest first.

    Rows of deep sparse graphs are long ints with few set bits, so the top
    one is peeled off at a time: one pass over the int per set bit.
    """
    top = []
    while x:
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
    ``(u, B, w)``.  Either join skips a rule while the side it reads holds
    no fact yet: in round 1, every ``(u, B, w)`` is new, and d2's ``_b1``
    holds no fact for ``S -> _t_( _b1``.  Work per round follows the new
    bits, never the vertex count.  When the start symbol is nullable, ``(u,
    start, u)`` is a fact for every vertex, but it is never joined: the
    normal form already derives every non-empty walk.

    With a ``goal`` fact ``(u, A, v)``, each round from round 1 on starts by
    testing whether the facts born before it split the goal: one AND per
    rule ``A -> B C`` of the row ``(u, B)`` with a bitmask of the ``w`` with
    a fact ``(w, C, v)``, kept up to date as rounds add to that column.  If
    they do, the goal is born in that round, and the goal alone is the
    round, in place of the join.  Otherwise, when the last round was dense
    (its new facts at least twice its row deltas), it looks one round ahead
    (:func:`_look_ahead`): the goal reads that round only in its rows ``(u,
    B)`` and columns ``(C, v)``, and those take far less work than the
    round's whole join.  If they split the goal, they are the round, in
    place of the join, and the goal alone is the round after.  Every round,
    whether a join, those slices or the goal, is stored by one births loop
    as facts and row deltas, and the rounds stop after the goal's.  A goal
    born in round 0 stops them after that round, and an empty-walk goal
    before it.  A fact's
    derivation reads only facts born in earlier rounds, so every fact of the
    stopped table has the round it has in the full one, and the goal's
    derivation, which reads the round before its own only through those rows
    and columns, is the same.  A goal that is never born leaves the full
    fixpoint.  A sparse round never looks ahead; most rounds of chains and
    circuit outputs are sparse, at about one new fact per row delta.

    Round 0 reads the edges leaving the seed vertices, by the table's
    :func:`lcreach.graph.edge_ends` index.  Without a goal, all are seeds.
    An empty-walk goal, or one dead at its target (:func:`_dead_target`),
    has none: the table holds no fact and no row delta but the empty-walk
    facts of a nullable start.  Any other goal goes to a demand probe,
    :func:`_demand`, for the rows the goal's row can read.  Whether it
    closes within its budget depends only on how many rows and facts those
    are, so on random graphs it gives up on the rows the edges alone
    demand, before it derives a fact.  When it closes, the seeds are the
    vertices of those rows, and the table holds facts there alone.  The
    demanded rows are whole up to the stop and keep their full-table
    rounds, so the goal is born in the same round with the same derivation;
    other rows may lack facts or hold them from later rounds.  When the
    probe gives up, all vertices are seeds.
    """
    if not g.alphabet <= nf.terminals:
        extra = "".join(sorted(g.alphabet - nf.terminals))
        raise AlphabetMismatchError(
            f"graph labels {extra!r} are outside the grammar's alphabet"
        )
    rules = _rules(nf)
    ids, by_first, by_second, heads = rules.ids, rules.by_first, rules.by_second, rules.heads
    n, labels = g.vertex_count, g.labels
    first, after, tips = index = edge_ends(g)

    rows = [[0] * n for _ in ids]
    # cols[B][w] lists the u of the facts (u, B, w) born before the last
    # round, for the symbols B that lead a rule body.
    cols: list[defaultdict[int, list[int]]] = [defaultdict(list) for _ in ids]
    births: list[dict[int, list[tuple[int, int]]]] = [{} for _ in ids]
    found: defaultdict[int, dict[int, int]] = defaultdict(dict)  # A -> {u: bits found}
    filled: set[int] = set()  # the A with a fact (u, A, v) in rows
    if goal is None:
        seeds: Iterable[int] = range(n)
    elif nf.start_nullable and goal[1] == nf.start and goal[0] == goal[2] or _dead_target(g, nf, goal):
        seeds = ()  # no round is needed
    else:
        demanded = _demand(g, nf, goal, index)
        seeds = range(n) if demanded is None else set().union(*demanded)
    for u in seeds:  # round 0: the edges leaving the seeds
        k = first[u]
        while k >= 0:
            for a in heads.get(labels[k >> 1], ()):
                fa = found[a]
                fa[u] = fa.get(u, 0) | 1 << tips[k]
            k = after[k]

    goal_row, goal_u, goal_a, goal_bit = [0], 0, 0, 1  # without a goal, a bit never set
    goal_rules: list[tuple[int, int]] = []  # the (B, C) of the goal's rules A -> B C, in rule order
    if goal is not None:
        goal_u, goal_a, goal_bit = goal[0], ids[goal[1]], 1 << goal[2]
        goal_row, goal_rules = rows[goal_a], rules.by_head[goal_a]
    # col[C] is the bitmask of the w with a fact (w, C, v) for the goal's v, for
    # each C ending a goal rule and each Z ending one of C's rules C -> Y Z.
    goal_cs = {c for _, c in goal_rules}
    col = dict.fromkeys(goal_cs.union(*({z for _, z in rules.by_head[c]} for c in goal_cs)), 0)
    # Looking ahead skips a rule A -> B C where neither B nor C heads a
    # rule: no round after round 0 adds to their rows.
    ahead_rules = [(b, c) for b, c in goal_rules if rules.by_head[b] or rules.by_head[c]]
    size = pops = rnd = 0
    while True:
        # The bits found that are new were born in this round.
        delta: dict[int, dict[int, int]] = {}
        fresh: dict[int, int] = {}  # C -> the w of the facts (w, C, v) born in this round
        round_size = round_pops = 0
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
                filled.add(a)
                round_size += sum(map(int.bit_count, da.values()))
                round_pops += len(da)
                if a in col:
                    ws = 0
                    for w, bits in da.items():
                        if bits & goal_bit:
                            ws |= 1 << w
                    if ws:
                        fresh[a] = ws
                        col[a] |= ws
        size += round_size
        pops += round_pops
        if not delta or goal_row[goal_u] & goal_bit:  # no new fact, or the goal's round
            break
        rnd += 1
        # rows now holds the facts born before this round, so the goal is
        # born in it exactly when they split it: the round is the goal alone.
        found = None
        for b, c in goal_rules:
            if rows[b][goal_u] & col[c]:
                found = {goal_a: {goal_u: goal_bit}}
                break
        if found is None and ahead_rules and round_size >= 2 * round_pops:  # a dense round
            # or the round is the slices of it the goal reads, when those split it
            found = _look_ahead(rules, rows, cols, col, fresh, delta, ahead_rules, goal_u, goal_bit)
        if found is not None:
            continue
        found = defaultdict(dict)
        for c, dc in delta.items():
            for a, b in by_second[c]:  # every older (u, B, w) joined with new (w, C, v)
                cols_b = cols[b]
                if not cols_b:  # no older B-fact
                    continue
                fa = found[a]
                for w, bits in dc.items():
                    for u in cols_b.get(w, ()):
                        prev = fa.get(u)
                        fa[u] = bits if prev is None else prev | bits
        for b, db in delta.items():
            if not by_first[b]:
                continue
            cols_b = cols[b]
            b_rules = [(a, c) for a, c in by_first[b] if c in filled]  # a C with no fact joins nothing
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


def _look_ahead(rules: _Rules, rows, cols, col, fresh, delta, goal_rules, u: int, goal_bit: int):
    """The next round's facts in the goal's source rows and target columns, if they split the goal.

    Called between rounds of :func:`cfl_reach_table`, whose ``rows`` hold the
    facts born up to the last round, ``delta`` those born in it, ``cols`` the
    column lists of the facts born before it, and ``col`` and ``fresh`` the
    goal's target columns and the bits the last round added to them.  The
    goal ``(u, A, v)`` reads the next round only through the rows ``(u, B)``
    and the columns ``(C, v)`` of its rules ``A -> B C``; ``goal_rules``
    lists those in which ``B`` or ``C`` heads a rule.  A row takes the left
    join of its rules ``B -> P Q`` over the whole row ``(u, P)``; a column,
    for each rule ``C -> Y Z``, the new ``Y``-rows that meet ``Z``'s column
    and the older ``Y``-facts ending where ``Z``'s column grew.  Returns the
    new facts as the join's ``{A: {u: bits}}``, a round of their own for the
    births loop to store: each row ``(u, B)`` with the bits of its new facts,
    and each new ``(w, C, v)`` as ``{C: {w: goal_bit}}``, where ``goal_bit``
    is ``1 << v``; or None when the rules split no fact of these or earlier
    rounds.  A row the two share (``w == u``) holds ``v`` already, since the
    row's slice holds all of the row's new facts.
    """
    by_head = rules.by_head
    ahead_rows: dict[int, int] = {}
    ahead_cols: dict[int, int] = {}
    for b, c in goal_rules:
        if b not in ahead_rows:
            acc = 0
            for p, q in by_head[b]:  # (u, P, x) with (x, Q, y)
                left = rows[p][u]
                if left:
                    rows_q = rows[q]
                    for x in _bits(left):
                        acc |= rows_q[x]
            ahead_rows[b] = acc & ~rows[b][u]
        if c not in ahead_cols:
            acc = 0
            for y, z in by_head[c]:
                col_z, delta_y = col[z], delta.get(y)
                if col_z and delta_y:  # new (w, Y, x) with any (x, Z, v)
                    for w, bits in delta_y.items():
                        if bits & col_z:
                            acc |= 1 << w
                if z in fresh:  # older (w, Y, x) with new (x, Z, v)
                    cols_y = cols[y]
                    for x in _bits(fresh[z]):
                        for w in cols_y.get(x, ()):
                            acc |= 1 << w
            ahead_cols[c] = acc & ~col[c]
    if not any((rows[b][u] | ahead_rows[b]) & (col[c] | ahead_cols[c]) for b, c in goal_rules):
        return None
    found = {c: dict.fromkeys(_bits(ws), goal_bit) for c, ws in ahead_cols.items() if ws}
    for b, bits in ahead_rows.items():
        if bits:  # with v when the column holds (u, B, v)
            found.setdefault(b, {})[u] = bits
    return found


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
    ``budget`` replaces the pair of limits.  Both counts only grow, so it
    gives up exactly when the whole closure is over a limit, whatever order
    it finds the closure in.  So it first grows a floor of ``D`` through
    edge facts alone, before it derives any fact: a demanded ``(u, A)``
    demands ``(u, B)`` and, for each edge ``u -a-> w`` with a rule ``B ->
    a``, ``(w, C)``.  Each floor pair reads its edges once, for these pairs
    and for its own edge facts, which then start the worklist.  On the
    benchmark's random ``m = 5n`` graphs the floor alone passes ``n / 8``
    vertices whenever the probe gives up; on chains and circuit outputs it
    stays under.  On the benchmark's seed-1 graphs, closures of circuit
    outputs hold at most 0.26 m facts on 0.19 n vertices (one is over n /
    8; at seeds 2 and 3 none is over 0.114 n), and those of random d2
    graphs with a dead source at most 0.004 m facts on 0.03 n.  Chains hold
    at least 2.2 m facts on all n vertices, other random d2 graphs at least
    31 m facts on 0.98 n, and undirected dd2 graphs at least 20 m facts:
    seeding them from ``D`` would save nothing, so the probe stops early on
    them.

    ``index`` is the ``(first, after, heads)`` chains of ``g``
    (:func:`lcreach.graph.edge_ends`), read for the edges leaving a demanded
    vertex.  Returns ``rows``: ``rows[i]`` maps each ``u`` with ``(u, A)``
    in ``D``, for the ``i``-th nonterminal ``A`` by name, to the bits of the
    ``v`` with a fact ``(u, A, v)``.
    """
    max_facts, max_vertices = (len(g.us) / 3, g.vertex_count / 8) if budget is None else budget
    if max_vertices < 1:  # the root's vertex alone is over it
        return None
    (first, after, heads), rules = index, _rules(nf)
    by_head, by_first, reads, leads, labels = rules.by_head, rules.by_first, rules.reads, rules.leads, g.labels
    rows: list[dict[int, int]] = [{} for _ in reads]  # the bits taken in so far
    users: list[defaultdict[int, list]] = [defaultdict(list) for _ in reads]  # C -> {w: [(u, A)]}
    no_leads: list[dict[str, list[int]]] = [{}] * len(reads)
    u, a = root[0], rules.ids[root[1]]
    rows[a][u] = 0
    vertices = {u}
    fresh = [(u, a)]  # demanded pairs whose rules are not read yet
    work: list[tuple[int, int, int]] = []  # (u, A, bits) to take into a row
    facts = 0

    def link(u, a, c, ws):  # row (u, A) takes in the rows (w, C) of the w in ws, now and as they grow
        row_c, users_c = rows[c], users[c]
        for w in _bits(ws):
            bits = row_c.get(w)
            if bits is None:
                row_c[w] = 0
                vertices.add(w)
                fresh.append((w, c))
            elif bits:
                work.append((u, a, bits))
            users_c[w].append((u, a))

    while fresh or work:
        if len(vertices) > max_vertices:
            return None
        if fresh:  # a pair's rules are read before any delta, so no delta is linked twice
            u, a = fresh.pop()
            own, lead = reads[a], leads[a]
            if own or lead:
                bits, k = 0, first[u]
                while k >= 0:
                    x = labels[k >> 1]
                    if x in own:
                        bits |= 1 << heads[k]
                    for c in lead.get(x, ()):  # the floor: an edge fact (u, B, w) demands (w, C)
                        w, row_c = heads[k], rows[c]
                        if w not in row_c:
                            row_c[w] = 0
                            vertices.add(w)
                            fresh.append((w, c))
                    k = after[k]
                if bits:
                    work.append((u, a, bits))
            for b, c in by_head[a]:
                row_b = rows[b]
                if u not in row_b:
                    row_b[u] = 0
                    fresh.append((u, b))
                elif row_b[u]:
                    link(u, a, c, row_b[u])
            continue
        leads = no_leads  # the floor is whole: later edge facts demand their pairs when taken in
        u, b, bits = work.pop()
        row_b = rows[b]
        new = bits & ~row_b[u]
        if not new:
            continue
        row_b[u] |= new
        facts += new.bit_count()
        if facts > max_facts:
            return None
        for ua in users[b].get(u, ()):
            work.append((*ua, new))
        for a, c in [(a, c) for a, c in by_first[b] if u in rows[a]]:
            link(u, a, c, new)
    return rows


def cfl_reach(
    g: LabeledGraph, grammar, stats: Optional[dict] = None
) -> Optional[list[tuple]]:
    """Grammar-constrained reachability against a ``Cfg`` or a ``NormalForm``.

    A ``Cfg`` is normalized first.  Returns the :func:`witness_derivation`
    of the root ``(source, start, target)`` when it is derivable, else None:
    the empty walk's one node when source equals target and the start
    symbol is nullable.  The fixpoint has that root as its goal, so it stops
    in the round the root is born, before that round's join, or before the
    join of the round before when a dense round looks ahead to the root.
    ``stats`` receives ``facts``, the table size, and ``row_deltas``, its
    :attr:`ReachTable.pops`.  When no edge into the target can end a
    derivation of the root, no round runs: 0 facts (or the vertex count,
    for the empty-walk facts of a nullable start) and 0 row deltas.
    Otherwise, when the root is derivable, they count the facts born before
    the root's round plus the root (all of round 0 when the root is born
    there); after a look-ahead, of the round before the root's only the
    facts in the source's rows and the target's columns that the root's
    rules read.  An unreachable root counts the whole least fixpoint.  When
    the demand probe closes, only the rows at the vertices the root demands
    count.
    """
    nf = grammar if isinstance(grammar, NormalForm) else normalize(grammar)
    root = (g.source, nf.start, g.target)
    table = cfl_reach_table(g, nf, goal=root)
    if stats is not None:
        stats.update(facts=len(table.facts), row_deltas=table.pops)
    return witness_derivation(table, root) if root in table.facts else None


def cfl_member(nf: NormalForm, w: str) -> bool:
    """Membership of ``w`` in the language of ``nf``, read from a goal-stopped ``cfl`` table.

    ``w`` is in the language exactly when the directed chain ``0 -w[0]-> 1
    ... -> len(w)`` has a walk from its first vertex to its last whose yield
    is in it; no derivation is built.  The empty word is the chain's empty
    walk.  A symbol outside ``nf.terminals`` answers False: no rule reads it.
    """
    if not nf.terminals.issuperset(w):
        return False
    n = len(w)
    chain = LabeledGraph.from_columns(DIRECTED, n + 1, range(n), range(1, n + 1), w, 0, n, nf.terminals)
    root = (0, nf.start, n)
    return root in cfl_reach_table(chain, nf, goal=root).facts


def witness_derivation(table: ReachTable, root: Fact) -> list[tuple]:
    """The derivation of ``root`` in ``table`` as nodes in postorder, for :func:`check_derivation`.

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
    row width.  A root not in the table, or a table whose rounds do not
    derive it, raises :class:`CorruptWitnessError`.
    """
    facts, nf = table.facts, table.normal_form
    if root not in facts:
        raise CorruptWitnessError(f"root fact {root} is not in the table")
    if nf.start_nullable and root[1] == nf.start and root[0] == root[2]:
        return [(*root, "e")]
    rules, births, rows = _rules(nf), table.births, facts.rows
    names, (first, after, heads), labels = rules.names, table.edge_ends, table.graph.labels
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
            reads, k = rules.reads[a], first[u]
            while k >= 0 and not (heads[k] == v and labels[k >> 1] in reads):
                k = after[k]
            if k < 0:
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
    Only :func:`witness_derivation` calls it: the fixpoint's goal test is
    one AND of a row with a target column per rule.
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


def expand_witness(nodes: list[tuple], step_limit: int = 10**6) -> Union[Path, ExpansionLimitExceeded]:
    """Flatten a postorder derivation, as :func:`cfl_reach` returns it, into an explicit walk.

    The walk starts at the root's ``u``, the first field of the last node.
    The flattened walk of a shared derivation can be exponentially long, so
    the exact length is computed first; if it exceeds ``step_limit`` the
    result reports that exact length instead of materializing the walk.
    """
    sizes: list[int] = []
    for node in nodes:  # children precede parents
        kind = node[3]
        sizes.append(1 if kind == "t" else 0 if kind == "e" else sizes[node[4]] + sizes[node[5]])
    if sizes[-1] > step_limit:
        return ExpansionLimitExceeded(expanded_steps=sizes[-1])
    return Path(start=nodes[-1][0], steps=_flatten(nodes))


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
    us, vs, labels, m, directed = g.us, g.vs, g.labels, len(g.us), g.kind == DIRECTED
    facts: list[Fact] = []
    sizes: list[int] = []
    for i, node in enumerate(nodes):
        if not isinstance(node, (list, tuple)) or len(node) < 4:
            raise CorruptWitnessError(f"derivation node {i} is not a list (u, A, v, kind, ...)")
        u, a, v, kind = node[0], node[1], node[2], node[3]
        if not (type(u) is int and u >= 0 and type(v) is int and v >= 0 and isinstance(a, str)):
            raise CorruptWitnessError(f"derivation node {i} has a malformed fact")
        if kind == "b" and len(node) == 6:
            left, right = node[4], node[5]
            if not (type(left) is int and type(right) is int and 0 <= left < i and 0 <= right < i):
                raise CorruptWitnessError(f"derivation node {i} refers to a later node")
            u1, b, w1 = facts[left]
            w2, c, v2 = facts[right]
            if (a, b, c) not in binary:
                raise CorruptWitnessError(f"derivation node {i}: no rule {a} -> {b} {c}")
            if (u1, w1, v2) != (u, w2, v):
                raise CorruptWitnessError(f"derivation node {i}: endpoints do not chain")
            size = sizes[left] + sizes[right]
            sizes.append(size if size <= step_limit else step_limit + 1)  # no huge ints
        elif kind == "t" and len(node) == 6:
            edge, reverse = node[4], node[5]
            if not (type(edge) is int and 0 <= edge < m and isinstance(reverse, bool)):
                raise CorruptWitnessError(f"derivation node {i} names no edge of the graph")
            if reverse and directed:
                raise CorruptWitnessError(f"derivation node {i} reverses a directed edge")
            if (a, labels[edge]) not in terminal:
                raise CorruptWitnessError(f"derivation node {i}: no rule {a} -> {labels[edge]!r}")
            if (u, v) != ((vs[edge], us[edge]) if reverse else (us[edge], vs[edge])):
                raise CorruptWitnessError(f"derivation node {i} does not match edge {edge}")
            sizes.append(1)
        elif kind == "e" and len(node) == 4:
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

    States are numbered as first reached, the pair (vertex ``v``, state
    ``s``) is the integer ``s * n + v``, and each state's move per label is
    cached: exact, as ``rec.step`` reads only its state and symbol.
    """
    first, after, heads = edge_ends(g)
    if max_len is None:
        max_len, dist = math.inf, [0] * g.vertex_count
    else:  # steps from each vertex to the target
        dist = [math.inf] * g.vertex_count
        dist[g.target] = 0
        undirected = g.kind == UNDIRECTED  # undirected ends go both ways already
        near_first, near_after = (first, after) if undirected else edge_ends(g, both=True)[:2]
        queue = deque([g.target])
        while queue:
            v = queue.popleft()
            k = near_first[v]
            while k >= 0:  # end k ^ 1 enters v from heads[k]: a move if g is undirected or k ^ 1 is forward
                u = heads[k]
                if dist[u] == math.inf and (undirected or k & 1):
                    dist[u] = dist[v] + 1
                    queue.append(u)
                k = near_after[k]
    step, accepts, target, labels, n = rec.step, rec.accepts, g.target, g.labels, g.vertex_count
    states, ids, moves = [rec.start], {rec.start: 0}, defaultdict(dict)  # by number, numbers, moves by label

    def move(s: int, label: str) -> int:  # state s's move on label as the key offset s' * n; -1 if dead
        q = step(states[s], label)
        if q is not None and ids.setdefault(q, len(states)) == len(states):
            states.append(q)
        t = moves[s][label] = -1 if q is None else ids[q] * n
        return t

    span = len(heads)  # a pair's parent is the pair's key * span + the end that reached it; -1 at the start
    parent: dict = {g.source: -1} if dist[g.source] <= max_len else {}
    frontier, examined, length, found = list(parent), 0, 0, None
    while frontier and found is None:
        reached, room = [], max_len - length  # steps left, this one included
        for key in frontier:
            examined += 1
            s, v = divmod(key, n)
            if v == target and accepts(states[s]):
                found = key
                break
            out, k = moves[s], first[v]
            while k >= 0:
                head = heads[k]
                if dist[head] < room:
                    label = labels[k >> 1]
                    t = out[label] if label in out else move(s, label)
                    if t >= 0 and (nxt := t + head) not in parent:
                        parent[nxt] = key * span + k
                        reached.append(nxt)
                k = after[k]
        frontier = reached
        length += 1
    if stats is not None:
        stats.update(states=len(parent), states_examined=examined)
    if found is None:
        return None
    steps: list[Step] = []
    while parent[found] >= 0:
        found, k = divmod(parent[found], span)
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
    first, after, heads = index = edge_ends(g)
    if is_dag(g, index) is None:
        raise NotADagError("walk enumeration without a bound needs an acyclic graph")
    labels, step, target = g.labels, rec.step, g.target
    steps: list[Step] = []

    def walk(v: int, q: Hashable):
        if v == target:
            yield Path(start=g.source, steps=tuple(steps)), q
            return
        k = first[v]
        while k >= 0:  # forward ends only: the graph is directed
            nxt = step(q, labels[k >> 1])
            if nxt is not None:
                steps.append(Step(k >> 1))
                yield from walk(heads[k], nxt)
                steps.pop()
            k = after[k]

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

    A breadth-first search from the source, over a queue list that grows as
    it is walked, keeps each vertex's first-reaching end in a list.
    """
    n = g.vertex_count
    if len(g.us) != n - 1 or any(map(eq, g.us, g.vs)):
        raise NotATreeError("underlying structure is not a tree")
    first, after, heads = edge_ends(g, both=True)
    reach: list[Optional[int]] = [None] * n  # vertex -> the end that first reached it; -1 at the source
    reach[g.source] = -1
    queue = [g.source]
    for v in queue:
        k = first[v]
        while k >= 0:
            if reach[w := heads[k]] is None:
                reach[w] = k
                queue.append(w)
            k = after[k]
    if len(queue) != n:
        raise NotATreeError("underlying structure is disconnected")

    steps: list[Step] = []
    at = g.target
    while (k := reach[at]) >= 0:
        steps.append(Step(k >> 1, bool(k & 1)))
        at = heads[k ^ 1]  # the tail of end k
    steps.reverse()
    for e, reverse in steps if g.kind == DIRECTED else ():
        if reverse:
            raise NoRespectingPathError(f"tree edge {g.us[e]}->{g.vs[e]} points against the unique path")
    path = Path(start=g.source, steps=tuple(steps))
    return path if member(path_yield(g, path)) else None
