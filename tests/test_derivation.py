"""Derivation certificates: witnesses checked rule by rule, CYK as the oracle."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach import (
    DIRECTED,
    UNDIRECTED,
    Cfg,
    CorruptWitnessError,
    Edge,
    ExpansionLimitExceeded,
    LabeledGraph,
    Path,
    Witness,
    cfl_reach,
    cfl_reach_table,
    d2_grammar,
    dd2_grammar,
    expand_witness,
    normalize,
    parse_cfg,
    path_yield,
    random_graph,
)
from lcreach.cli import dispatch
from lcreach.solve import check_derivation, witness_derivation

from .helpers import cyk_member, random_cfg, worklist_facts

D2_NF = normalize(d2_grammar())


def graph(kind, n, edges, s, t, alphabet):
    return LabeledGraph(kind, n, tuple(Edge(*e) for e in edges), s, t, frozenset(alphabet))


def derivation_of(g, nf):
    w = cfl_reach(g, nf)
    assert w is not None
    return witness_derivation(w), expand_witness(w)


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
    w = cfl_reach(g, nf)
    if w is None:
        return
    expanded = expand_witness(w)
    nodes = witness_derivation(w)
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
    assert table.facts == worklist_facts(g, nf, order)
    assert len(table.facts) == len(list(table.facts)) >= table.pops
    for fact in table.facts:
        nodes = witness_derivation(Witness(fact, table))
        for node in nodes:
            if node[3] == "b":
                born = table.born(node[:3])
                assert table.born(nodes[node[4]][:3]) < born
                assert table.born(nodes[node[5]][:3]) < born


# --- the fixpoint stopped at its root ----------------------------------------------

DD2_NF = normalize(dd2_grammar())
NULLABLE_NF = normalize(parse_cfg("S -> '(' S ')' | '[' S ']' | S S |"))


def check_goal_stop(g, nf):
    """``cfl_reach`` stops at its root: a prefix of the full fixpoint's rounds."""
    full = cfl_reach_table(g, nf)
    root = (g.source, nf.start, g.target)
    stats = {}
    w = cfl_reach(g, nf, stats=stats)
    if root not in full.facts:
        assert w is None
        assert stats == {"facts": len(full.facts), "pops": full.pops}
        return
    stopped = w.table
    assert stats == {"facts": len(stopped.facts), "pops": stopped.pops}
    assert len(stopped.facts) == len(list(stopped.facts)) >= stopped.pops >= 0
    assert witness_derivation(w) == witness_derivation(Witness(root, full))
    oracle = worklist_facts(g, nf)
    last = stopped.born(root)  # None for the empty walk, which needs no round
    if last is None:
        assert nf.start_nullable and g.source == g.target and stopped.pops == 0
    for fact in stopped.facts:
        assert fact in oracle
        born = stopped.born(fact)
        if born is None:  # only empty-walk facts have no round
            assert nf.start_nullable and fact[1] == nf.start and fact[0] == fact[2]
        else:
            assert born == full.born(fact) <= last
    for fact in full.facts:
        born = full.born(fact)
        if born is not None and last is not None and born <= last:
            assert fact in stopped.facts and stopped.born(fact) == born


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
    assert witness_derivation(w) == [(g.source, "S", g.source, "e")]
    assert stats == {"facts": n, "pops": 0}


def test_goal_stop_ends_in_the_round_of_the_root():
    g = graph(DIRECTED, 5, [(0, 1, "("), (1, 2, ")"), (2, 3, "("), (3, 4, ")")], 0, 2, "()")
    full, w = cfl_reach_table(g, D2_NF), cfl_reach(g, D2_NF)
    last = w.table.born((0, "S", 2))
    assert full.born((0, "S", 4)) > last
    assert (0, "S", 4) not in w.table.facts
    assert {f for f in full.facts if full.born(f) <= last} == set(w.table.facts)
    check_goal_stop(g, D2_NF)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_goal_stop_with_random_grammars(instance):
    g, nf, _ = instance
    check_goal_stop(g, nf)


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
}


def test_the_unmutated_base_passes():
    assert BASE[ROOT][:4] == (0, "S", 4, "b")
    assert len(check_derivation(CHAIN, D2_NF, BASE)) == 4


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_single_mutation_is_rejected(name):
    mutate, reason = MUTATIONS[name]
    g = CHAIN if name != "epsilon without a nullable start" else graph(DIRECTED, 1, [], 0, 0, "()")
    with pytest.raises(CorruptWitnessError, match=reason):
        check_derivation(g, D2_NF, mutate())


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
