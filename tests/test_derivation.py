"""Derivation certificates: witnesses checked rule by rule, CYK as the oracle."""

import contextlib
import io
import json
import math
import random
from collections import defaultdict
from functools import partial, reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach import solve
from lcreach.cli import dispatch
from lcreach.errors import CorruptWitnessError
from lcreach.generators import random_circuit, random_graph
from lcreach.grammar import Cfg, normalize, parse_cfg
from lcreach.graph import DIRECTED, UNDIRECTED, LabeledGraph, Path, edge_ends, path_yield
from lcreach.languages import d2_grammar, dd2_grammar
from lcreach.reductions import eval_circuit, mcvp_to_d2_reach
from lcreach.solve import (
    ExpansionLimitExceeded,
    cfl_reach,
    cfl_reach_table,
    check_derivation,
    expand_witness,
    witness_derivation,
)

from .helpers import (
    check_derivation_per_node, cyk_member, graph, random_cfg, round_of, table_facts, worklist_facts,
)

D2_NF = normalize(d2_grammar())


def derivation_of(g, nf):
    nodes = cfl_reach(g, nf)
    assert nodes is not None
    return nodes, expand_witness(nodes)


# --- the certificates the solver writes ------------------------------------------


@st.composite
def instances(draw):
    """A random grammar over "ab", a random small graph over the same labels, and
    a worklist order for the oracle."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cfg = random_cfg(
        rng, draw(st.integers(1, 4)), draw(st.integers(1, 7)), "ab",
        max_body=3, epsilon_bias=draw(st.sampled_from([0.0, 0.3])),
    )
    cfg = Cfg(cfg.nonterminals, frozenset("ab"), cfg.productions, cfg.start)
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    g = random_graph(rng, draw(st.integers(1, 5)), draw(st.integers(0, 9)), "ab",
                     kind=kind, self_loops=True)
    return g, normalize(cfg), draw(st.sampled_from(["fifo", "lifo"]))


@settings(max_examples=400, deadline=None)
@given(instances())
def test_every_solver_witness_passes_the_check(instance):
    g, nf, _ = instance
    nodes = cfl_reach(g, nf)
    if nodes is None:
        return
    expanded = expand_witness(nodes)
    if isinstance(expanded, ExpansionLimitExceeded):
        with pytest.raises(CorruptWitnessError, match="over the limit"):
            check_derivation(g, nf, nodes)
        return
    steps = check_derivation(g, nf, nodes)
    assert steps == expanded.steps
    assert cyk_member(nf, path_yield(g, Path(g.source, steps)))
    # the JSON form a witness file carries checks the same way
    assert check_derivation(g, nf, json.loads(json.dumps(nodes))) == steps


@settings(max_examples=300, deadline=None)
@given(instances())
def test_fact_set_equals_the_worklist_oracle(instance):
    # Random grammars (nullable ones included) on directed and undirected
    # multigraphs with self-loops, against a fact-at-a-time worklist.
    g, nf, order = instance
    table = cfl_reach_table(g, nf)
    assert table_facts(table) == worklist_facts(g, nf, order)
    assert len(table.facts) == len(table_facts(table)) >= table.pops
    for fact in table_facts(table):
        nodes = witness_derivation(table, fact)
        for node in nodes:
            if node[3] == "b":
                born = round_of(table, node[:3])
                assert round_of(table, nodes[node[4]][:3]) < born
                assert round_of(table, nodes[node[5]][:3]) < born


# --- the fixpoint stopped at its root ----------------------------------------------

DD2_NF = normalize(dd2_grammar())
NULLABLE_NF = normalize(parse_cfg("S -> '(' S ')' | '[' S ']' | S S |"))


def demand_closure(table, root):
    """The pairs ``(u, A)`` the row of ``root`` demands, read off a full table.

    The least set holding ``(u, A)`` of the root and, for each ``(u, A)`` in it
    and rule ``A -> B C``, ``(u, B)`` and every ``(w, C)`` with a fact ``(u, B,
    w)`` of some round (the empty walk is never joined).
    """
    rules, ends = defaultdict(list), defaultdict(list)
    for a, b, c in table.normal_form.binary_rules:
        rules[a].append((b, c))
    for u, a, w in table_facts(table):
        if round_of(table, (u, a, w)) is not None:
            ends[u, a].append(w)
    closure, todo = set(), [root[:2]]
    while todo:
        pair = todo.pop()
        if pair not in closure:
            closure.add(pair)
            u, a = pair
            for b, c in rules[a]:
                todo += [(u, b), *((w, c) for w in ends[u, b])]
    return closure


def check_goal_stop(g, nf):
    """``cfl_reach`` stops in the round of its root, before the join of that round.

    The stopped table is part of the full fixpoint, and none of its facts was
    born earlier there.  When the round two before the root's is dense (its
    new facts are at least twice its row deltas), the round before the
    root's is kept only in the rows ``(source, B)`` and the columns ``(C,
    target)`` of the root's rules ``start -> B C``; otherwise it is kept
    whole.  The rows the root demands keep every fact the full fixpoint
    derives in the rounds kept with its full round, so the root's witness is
    the full table's.  A root of round 0 stops after that round, and the
    empty walk stops before any round.  When the root is dead at its target,
    no round runs, whatever the demand probe would find, and the table holds
    only the empty-walk facts.  Otherwise, when the probe gives up, the
    table holds exactly the facts the full fixpoint derives in the rounds
    kept, and the root.  In both tables, each row is the disjoint union of
    its birth chunks.
    """
    full = cfl_reach_table(g, nf)
    root = (g.source, nf.start, g.target)
    stats = {}
    w = cfl_reach(g, nf, stats=stats)
    assert (w is None) == (root not in full.facts)
    stopped = cfl_reach_table(g, nf, goal=root)
    deltas = sum(len(chunks) for rows in stopped.births for chunks in rows.values())
    assert all(x[0] < y[0] for rows in stopped.births for chunks in rows.values() for x, y in zip(chunks, chunks[1:]))
    assert stats == {"facts": len(stopped.facts), "row_deltas": stopped.pops}
    assert len(stopped.facts) == len(table_facts(stopped)) >= stopped.pops == deltas
    assert table_facts(stopped) <= table_facts(full)
    for table in (full, stopped):  # each row is the disjoint union of its birth chunks
        for rows, births in zip(table.facts.rows, table.births):
            for u, row in enumerate(rows):
                chunks = [bits for _, bits in births.get(u, ())]
                assert sum(map(int.bit_count, chunks)) == row.bit_count() and reduce(or_, chunks, 0) == row

    def empty_walk(fact):  # a fact of every table when the start is nullable
        return nf.start_nullable and fact[1] == nf.start and fact[0] == fact[2]

    last = None  # the root's round; None for an empty walk, and while the root is not born
    if w is not None:
        assert w == witness_derivation(stopped, root) == witness_derivation(full, root)
        last = None if empty_walk(root) else round_of(full, root)
        assert round_of(stopped, root) == last
        if last is None:
            assert stopped.pops == 0

    root_rules = [(b, c) for a, b, c in nf.binary_rules if a == nf.start]

    def sliced(fact):  # in a source row or target column of a root rule
        x, a, y = fact
        return any(x == g.source and a == b or y == g.target and a == c for b, c in root_rules)

    dense = False  # whether the round two before the root's is dense
    if last is not None and last >= 2:
        chunks = [bits for rows in stopped.births for row in rows.values() for r, bits in row if r == last - 2]
        dense = sum(map(int.bit_count, chunks)) >= 2 * len(chunks)

    def kept(fact, born):  # born in a round the stopped fixpoint keeps
        if w is None or last is None:
            return w is None
        return born < last - 1 or born == last == 0 or born == last - 1 and (not dense or sliced(fact))

    for fact in table_facts(stopped):
        born = round_of(stopped, fact)
        if born is None:  # only empty-walk facts have no round
            assert empty_walk(fact)
        else:
            assert born >= round_of(full, fact) and (fact == root or kept(fact, born))
    if not empty_walk(root) and solve._dead_target(g, nf, root):  # no edge was seeded
        assert w is None and stopped.pops == 0
        assert table_facts(stopped) == {f for f in table_facts(full) if empty_walk(f)}
        return
    gave_up = empty_walk(root) or solve._demand(g, nf, root, edge_ends(g)) is None
    demanded = demand_closure(full, root)
    for fact in table_facts(full):
        born = round_of(full, fact)
        if fact[:2] in demanded and born is not None and kept(fact, born):
            assert round_of(stopped, fact) == born
    if gave_up:  # every edge was seeded
        whole = {f for f in table_facts(full) if empty_walk(f) or kept(f, round_of(full, f))}
        assert table_facts(stopped) == (whole if w is None else whole | {root})


@st.composite
def bracket_graphs(draw):
    """A random graph for ``d2`` or ``dd2``, directed or undirected."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nf, alphabet = draw(st.sampled_from([(D2_NF, "()[]"), (DD2_NF, "()[]abcd")]))
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    n = draw(st.integers(1, 9))
    g = random_graph(rng, n, draw(st.integers(0, 5 * n)), alphabet, kind=kind, self_loops=True)
    return g, nf


@settings(max_examples=300, deadline=None)
@given(bracket_graphs())
def test_goal_stop_is_a_prefix_of_the_full_fixpoint(instance):
    check_goal_stop(*instance)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([DIRECTED, UNDIRECTED]))
def test_goal_stop_on_a_nullable_start_from_source_to_itself(seed, kind):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    g = random_graph(rng, n, rng.randint(0, 4 * n), "()[]", kind=kind, self_loops=True)
    g = LabeledGraph(g.kind, n, g.edges, g.source, g.source, g.alphabet)
    check_goal_stop(g, NULLABLE_NF)
    stats = {}
    w = cfl_reach(g, NULLABLE_NF, stats=stats)
    assert w == [(g.source, "S", g.source, "e")]
    assert stats == {"facts": n, "row_deltas": 0}


def test_goal_stop_ends_in_the_round_of_the_root():
    # "()()" on a chain: (0, S, 2) and (2, S, 4) are both born in round 1,
    # and (0, S, 4) in round 2.
    g = graph(DIRECTED, 5, [(0, 1, "("), (1, 2, ")"), (2, 3, "("), (3, 4, ")")], 0, 2, "()")
    full, stats = cfl_reach_table(g, D2_NF), {}
    assert cfl_reach(g, D2_NF, stats=stats) is not None
    stopped = cfl_reach_table(g, D2_NF, goal=(0, "S", 2))
    assert round_of(full, (0, "S", 2)) == round_of(full, (2, "S", 4)) == round_of(stopped, (0, "S", 2)) == 1
    assert round_of(full, (0, "S", 4)) == 2
    assert (2, "S", 4) not in stopped.facts and (0, "S", 4) not in stopped.facts
    assert table_facts(stopped) == {f for f in table_facts(full) if round_of(full, f) == 0} | {(0, "S", 2)}
    assert stats == {"facts": 5, "row_deltas": 5}
    check_goal_stop(g, D2_NF)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_goal_stop_with_random_grammars(instance):
    g, nf, _ = instance
    check_goal_stop(g, nf)


def test_a_dense_round_looks_ahead_to_the_root():
    # "()()" from 0 to 4, with each "(" tail opening twice, and each ")" tail
    # closing twice, so round 0 holds 10 facts on 5 row deltas.  The root
    # (0, S, 4) is born in round 2.  Of round 1, the stop keeps (0, S, 2) and
    # (0, S, 6) in the source row and (2, S, 4) in the target column, and
    # never derives (2, S, 6), (7, S, 2) or (7, S, 6).
    edges = [(0, 1, "("), (0, 5, "("), (1, 2, ")"), (1, 6, ")"), (2, 3, "("),
             (2, 5, "("), (3, 4, ")"), (3, 6, ")"), (7, 1, "("), (7, 5, "(")]
    g = graph(DIRECTED, 8, edges, 0, 4, "()")
    full, stats, root = cfl_reach_table(g, D2_NF), {}, (0, "S", 4)
    w = cfl_reach(g, D2_NF, stats=stats)
    stopped = cfl_reach_table(g, D2_NF, goal=root)
    assert round_of(full, root) == round_of(stopped, root) == 2
    assert {f for f in table_facts(full) if round_of(full, f) == 1} == {
        (0, "S", 2), (0, "S", 6), (2, "S", 4), (2, "S", 6), (7, "S", 2), (7, "S", 6)
    }
    assert {f for f in table_facts(stopped) if round_of(stopped, f) == 1} == {(0, "S", 2), (0, "S", 6), (2, "S", 4)}
    assert stats == {"facts": 14, "row_deltas": 8}  # 10 + 3 + the root, on 5 + 2 + 1 row deltas
    assert expand_witness(w).steps == ((0, False), (2, False), (4, False), (6, False))
    check_goal_stop(g, D2_NF)


@st.composite
def dense_graphs(draw):
    """``d2``, ``dd2`` or a random grammar over "ab" on a multigraph with
    self-loops and up to 8 edges per vertex, directed or undirected."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    choice = draw(st.sampled_from(["d2", "dd2", "random"]))
    if choice == "random":
        alphabet = "ab"
        cfg = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 7), alphabet, max_body=3,
                         epsilon_bias=draw(st.sampled_from([0.0, 0.3])))
        nf = normalize(Cfg(cfg.nonterminals, frozenset(alphabet), cfg.productions, cfg.start))
    else:
        nf, alphabet = (D2_NF, "()[]") if choice == "d2" else (DD2_NF, "()[]abcd")
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    n = rng.randint(1, 10)  # drawn by rng, not shrunk toward small graphs that never look ahead
    g = random_graph(rng, n, rng.randint(0, 8 * n), alphabet, kind=kind, self_loops=True)
    return g, nf


@settings(max_examples=300, deadline=None)
@given(dense_graphs())
def test_the_stop_decides_as_the_worklist_oracle(instance):
    # Whether or not a dense round looked ahead, the answer is the oracle's,
    # and the stopped table holds only facts of the least fixpoint.
    g, nf = instance
    oracle = worklist_facts(g, nf)
    root = (g.source, nf.start, g.target)
    w = cfl_reach(g, nf)
    assert (w is not None) == (root in oracle)
    stopped = cfl_reach_table(g, nf, goal=root)
    assert table_facts(stopped) <= oracle
    check_goal_stop(g, nf)


# --- the fixpoint skipped at a dead target ------------------------------------------


@st.composite
def dead_target_graphs(draw):
    """A grammar (``d2``, ``dd2``, or random with or without a nullable start) and a
    random multigraph with self-loops, directed or undirected, whose edges at the
    target lose a random set of labels; sometimes the source is the target."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    choice = draw(st.sampled_from(["d2", "dd2", "random", "nullable"]))
    if choice == "d2":
        nf, alphabet = D2_NF, "()[]"
    elif choice == "dd2":
        nf, alphabet = DD2_NF, "()[]abcd"
    else:
        alphabet = "ab"
        cfg = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 7), alphabet, max_body=3,
                         epsilon_bias=0.3 if choice == "nullable" else 0.0)
        nf = normalize(Cfg(cfg.nonterminals, frozenset(alphabet), cfg.productions, cfg.start))
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    n = draw(st.integers(1, 9))
    g = random_graph(rng, n, draw(st.integers(0, 5 * n)), alphabet, kind=kind, self_loops=True)
    t = g.source if draw(st.booleans()) else g.target
    cut = set(draw(st.sets(st.sampled_from(alphabet))))
    at_t = (lambda u, v: v == t) if kind == DIRECTED else (lambda u, v: t in (u, v))
    edges = [e for e in g.edges if not (at_t(e[0], e[1]) and e[2] in cut)]
    return LabeledGraph(kind, n, edges, g.source, t, g.alphabet), nf


@settings(max_examples=400, deadline=None)
@given(dead_target_graphs())
def test_a_dead_target_runs_no_round(instance):
    # Whenever the check calls a goal (u, A, v) dead, the full fixpoint holds no
    # derived fact (x, A, v), and the goal's table is empty but for empty walks,
    # even where the demand probe would close.
    g, nf = instance
    oracle, full = worklist_facts(g, nf), cfl_reach_table(g, nf)
    root = (g.source, nf.start, g.target)
    stats = {}
    assert (cfl_reach(g, nf, stats=stats) is not None) == (root in oracle)
    for a in solve._rules(nf).names:
        goal = (g.source, a, g.target)
        if nf.start_nullable and a == nf.start and g.source == g.target or not solve._dead_target(g, nf, goal):
            continue
        derived = (round_of(full, (x, b, v)) is not None for x, b, v in table_facts(full) if b == a and v == g.target)
        assert not any(derived)
        table = cfl_reach_table(g, nf, goal=goal)
        assert table.pops == 0 and not any(round_of(table, f) is not None for f in table_facts(table))
        assert len(table.facts) == (g.vertex_count if nf.start_nullable else 0)
        if a == nf.start:
            assert stats == {"facts": len(table.facts), "row_deltas": 0}
    check_goal_stop(g, nf)


def test_a_target_with_only_opening_in_edges_runs_no_round():
    # Every edge into vertex 3 opens a bracket, so no d2 walk ends there,
    # though the full fixpoint derives facts elsewhere.
    g = graph(DIRECTED, 4, [(0, 1, "("), (1, 0, ")"), (1, 3, "("), (0, 3, "["), (3, 3, "[")], 0, 3, "()[]")
    assert len(cfl_reach_table(g, D2_NF).facts) > 0
    stats = {}
    assert cfl_reach(g, D2_NF, stats=stats) is None
    assert stats == {"facts": 0, "row_deltas": 0}
    undirected = LabeledGraph(UNDIRECTED, 4, g.edges, 0, 3, g.alphabet)  # (1, 0, ")") is not at 3
    assert solve._dead_target(undirected, D2_NF, (0, "S", 3))
    closing = LabeledGraph(UNDIRECTED, 4, tuple(g.edges) + ((3, 1, ")"),), 0, 3, g.alphabet)
    assert not solve._dead_target(closing, D2_NF, (0, "S", 3))
    assert cfl_reach(closing, D2_NF) is not None  # 0 -(-> 1 -)-> 3, the last step reversed


# --- the fixpoint seeded from the root's demand -------------------------------------

UNLIMITED = (math.inf, math.inf)  # a probe budget that never gives up
NO_PROBE = (-1, -1)  # one that gives up at once, so every edge is seeded


def probe_budget(budget):
    """Run ``cfl_reach_table``'s demand probe under ``budget`` instead of its own rule."""
    return mock.patch.object(solve, "_demand", partial(solve._demand, budget=budget))


def check_demand(g, nf):
    """With its budget lifted, the probe closes on every root, and the fixpoint
    seeded from the edges leaving the demanded vertices keeps the full
    fixpoint's demanded rows, rounds and witness (``check_goal_stop``)."""
    root = (g.source, nf.start, g.target)
    full = cfl_reach_table(g, nf)
    rows = solve._demand(g, nf, root, edge_ends(g), budget=UNLIMITED)
    names = solve._rules(nf).names
    demanded = {(u, names[i]) for i, row in enumerate(rows) for u in row}
    assert demanded == demand_closure(full, root)
    for i, row in enumerate(rows):  # a demanded row holds all its facts
        assert row == {u: full.facts.rows[i][u] for u in row}
    with probe_budget(UNLIMITED):
        check_goal_stop(g, nf)
        seeded = cfl_reach_table(g, nf, goal=root)
    oracle = worklist_facts(g, nf)
    vertices = {u for u, _ in demanded}
    for fact in table_facts(seeded):
        assert fact in oracle
        assert fact[0] in vertices or round_of(seeded, fact) is None  # or an empty walk


@settings(max_examples=300, deadline=None)
@given(bracket_graphs())
def test_demand_seeded_fixpoint_on_bracket_graphs(instance):
    check_demand(*instance)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_demand_seeded_fixpoint_with_random_grammars(instance):
    g, nf, _ = instance
    check_demand(g, nf)


def test_a_circuit_output_takes_the_demand_path():
    circuit = random_circuit(random.Random(11), 27, 100)
    assert eval_circuit(circuit)
    g = mcvp_to_d2_reach(circuit)
    root = (g.source, D2_NF.start, g.target)
    assert solve._demand(g, D2_NF, root, edge_ends(g)) is not None  # under the probe's own budget
    w, table = cfl_reach(g, D2_NF), cfl_reach_table(g, D2_NF, goal=root)
    with probe_budget(NO_PROBE):
        everywhere, everywhere_table = cfl_reach(g, D2_NF), cfl_reach_table(g, D2_NF, goal=root)
    assert table_facts(table) < table_facts(everywhere_table)
    assert table.pops < everywhere_table.pops
    assert w == everywhere
    assert expand_witness(w) == expand_witness(everywhere)
    check_goal_stop(g, D2_NF)


def test_empty_walk_certificate():
    nf = normalize(parse_cfg("S -> '(' S ')' |"))
    g = graph(DIRECTED, 2, [(0, 1, "(")], 1, 1, "()")
    nodes, expanded = derivation_of(g, nf)
    assert nodes == [(1, "S", 1, "e")]
    assert check_derivation(g, nf, nodes) == expanded.steps == ()


def test_reversed_steps_check_on_undirected_graphs():
    g = graph(UNDIRECTED, 3, [(1, 2, "("), (0, 1, ")")], 2, 0, "()")
    nodes, expanded = derivation_of(g, D2_NF)
    assert [n[5] for n in nodes if n[3] == "t"] == [True, True]
    assert check_derivation(g, D2_NF, nodes) == expanded.steps


def test_flattening_respects_the_step_limit():
    g = graph(DIRECTED, 5, [(0, 1, "("), (1, 2, ")"), (2, 3, "["), (3, 4, "]")], 0, 4, "()[]")
    nodes, _ = derivation_of(g, D2_NF)
    assert len(check_derivation(g, D2_NF, nodes, step_limit=4)) == 4
    with pytest.raises(CorruptWitnessError, match="over the limit"):
        check_derivation(g, D2_NF, nodes, step_limit=3)


def test_exponential_derivation_is_rejected_without_flattening():
    nf = normalize(parse_cfg("S -> S S | 'a'"))
    g = graph(DIRECTED, 1, [(0, 0, "a")], 0, 0, "a")
    doubling = [(0, "S", 0, "t", 0, False)] + [(0, "S", 0, "b", i, i) for i in range(5000)]
    with pytest.raises(CorruptWitnessError, match="over the limit of 1000000"):
        check_derivation(g, nf, doubling)


# --- single mutations are rejected -------------------------------------------------

# "()()" on a chain: two S facts joined at vertex 2 by S -> S S at the root.
CHAIN = graph(DIRECTED, 5, [(0, 1, "("), (1, 2, ")"), (2, 3, "("), (3, 4, ")")], 0, 4, "()")
BASE, _ = derivation_of(CHAIN, D2_NF)


def _where(kind):
    return next(i for i, n in enumerate(BASE) if n[3] == kind)


def _replace(i, node):
    nodes = list(BASE)
    nodes[i] = node
    return nodes


def _first_terminal_reversed():
    i = _where("t")
    u, a, v, _, edge, _ = BASE[i]
    return _replace(i, (v, a, u, "t", edge, True))


ROOT = len(BASE) - 1
MUTATIONS = {
    "unknown binary rule": (
        lambda: _replace(ROOT, (0, "_b1", 4, *BASE[ROOT][3:])), "no rule _b1 -> S S"),
    "unknown terminal rule": (
        lambda: _replace(_where("t"), (*BASE[_where("t")][:1], "S", *BASE[_where("t")][2:])),
        "no rule"),
    "broken split vertex": (
        lambda: _replace(ROOT, (*BASE[ROOT][:4], BASE[ROOT][4], BASE[ROOT][4])),
        "do not chain"),
    "forward reference": (
        lambda: _replace(0, (*BASE[ROOT][:4], 1, 2)), "later node"),
    "self reference": (
        lambda: _replace(ROOT, (*BASE[ROOT][:4], ROOT, BASE[ROOT][5])), "later node"),
    "edge out of range": (
        lambda: _replace(_where("t"), (*BASE[_where("t")][:4], len(CHAIN.edges), False)),
        "names no edge"),
    "negative edge": (
        lambda: _replace(_where("t"), (*BASE[_where("t")][:4], -1, False)), "names no edge"),
    "edge endpoints swapped": (
        lambda: _replace(_where("t"), (*BASE[_where("t")][:4], 2, False)), "does not match edge"),
    "reversed step on a directed graph": (_first_terminal_reversed, "reverses a directed edge"),
    "wrong root": (lambda: BASE[:-1], "root"),
    "epsilon without a nullable start": (
        lambda: [(0, "S", 0, "e")], "misplaced empty walk"),
    "unknown kind": (lambda: _replace(ROOT, (*BASE[ROOT][:3], "x")), "unknown kind"),
    "float child index": (lambda: _replace(ROOT, (*BASE[ROOT][:4], 0.0, BASE[ROOT][5])), "later node"),
    "bool child index": (lambda: _replace(ROOT, (*BASE[ROOT][:4], True, BASE[ROOT][5])), "later node"),
    "empty walk with an edge": (lambda: [(0, "S", 4, "e", 0)], "unknown kind"),
    "float edge index": (
        lambda: _replace(_where("t"), (*BASE[_where("t")][:4], 0.0, False)), "names no edge"),
}


def test_the_unmutated_base_passes():
    assert BASE[ROOT][:4] == (0, "S", 4, "b")
    assert len(check_derivation(CHAIN, D2_NF, BASE)) == 4


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_single_mutation_is_rejected(name):
    mutate, reason = MUTATIONS[name]
    g = CHAIN if name != "epsilon without a nullable start" else graph(DIRECTED, 1, [], 0, 0, "()")
    for nodes in (mutate(), json.loads(json.dumps(mutate()))):  # as built, and as a witness file reads back
        with pytest.raises(CorruptWitnessError, match=reason):
            check_derivation(g, D2_NF, nodes)


def test_epsilon_below_the_root_is_rejected_even_when_nullable():
    nf = normalize(parse_cfg("S -> '(' S ')' | S S |"))
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    nodes, _ = derivation_of(g, nf)
    eps_first = [(0, "S", 0, "e")] + [
        (*n[:4], n[4] + 1, n[5] + 1) if n[3] == "b" else n for n in nodes
    ]
    with pytest.raises(CorruptWitnessError, match="misplaced empty walk"):
        check_derivation(g, nf, eps_first)


# --- arbitrary shapes never escape as anything but CorruptWitnessError --------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["S", "b", "t", "e", "_t_("]),
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_arbitrary_json_is_rejected_cleanly(nodes):
    try:
        check_derivation(CHAIN, D2_NF, nodes)
    except CorruptWitnessError:
        pass


def checked(check, *args):
    """The steps ``check(*args)`` returns, or the message of its CorruptWitnessError."""
    try:
        return check(*args)
    except CorruptWitnessError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_arbitrary_json_fails_as_the_per_node_oracle_fails(nodes):
    assert checked(check_derivation, CHAIN, D2_NF, nodes) == checked(check_derivation_per_node, CHAIN, D2_NF, nodes)


@settings(max_examples=300, deadline=None)
@given(instances(), st.data())
def test_mutated_witness_derivations_check_as_the_per_node_oracle_checks_them(instance, data):
    # unmutated, as tuples and as JSON lists, then with a few fields replaced
    g, nf, _ = instance
    nodes = cfl_reach(g, nf)
    if nodes is None:
        return
    assert checked(check_derivation, g, nf, nodes) == checked(check_derivation_per_node, g, nf, nodes)
    nodes = json.loads(json.dumps(nodes))
    for _ in range(data.draw(st.integers(0, 3))):
        node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        node[data.draw(st.integers(0, len(node) - 1))] = data.draw(json_values | st.integers(-1, len(nodes)))
    limit = data.draw(st.sampled_from([10**6, 1, 3]))
    want = checked(check_derivation_per_node, g, nf, nodes, limit)
    assert checked(check_derivation, g, nf, nodes, limit) == want


@pytest.mark.parametrize(
    "nodes",
    ["()()", [[]], [[[0, "S", 4, "b", 0, 0]]], [[0, "S", 4, "b", -1, -2]], [[0, ["S"], 4, "t", 0, False]],
     [[0, "S", 4, "t", 0, 0]], [[0, "S", 4, "t", True, False]], [[0.0, "S", 4, "e"]], {"0": 1}, []],
)
def test_malformed_shapes_are_rejected(nodes):
    with pytest.raises(CorruptWitnessError):
        check_derivation(CHAIN, D2_NF, nodes)


@settings(max_examples=60, deadline=None)
@given(json_values)
def test_verify_falls_back_on_any_derivation_shape(tmp_path_factory, nodes):
    workdir = tmp_path_factory.mktemp("verify")
    (workdir / "g.graph").write_text("directed 5 4\n()\n0 1 (\n1 2 )\n2 3 (\n3 4 )\n0 4\n")
    (workdir / "d2.cfg").write_text("S -> '(' S ')' | '(' ')' | S S\n")
    payload = {"format": "lcreach-witness", "version": 2, "start": 0, "derivation": nodes,
               "steps": [[0, False], [1, False], [2, False], [3, False]]}
    (workdir / "w.json").write_text(json.dumps(payload))
    argv = ["verify", "--graph", str(workdir / "g.graph"), "--grammar", str(workdir / "d2.cfg"),
            "--witness", str(workdir / "w.json")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert dispatch(argv) == 0
    assert out.getvalue().startswith("decision: verified\n")
