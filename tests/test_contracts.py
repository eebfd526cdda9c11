"""The solvers' counter bounds, checked as laws: the cost each solver's method allows.

Counters are deterministic, so each bound is exact: a ``cfl`` table holds at
most one fact per nonterminal and vertex pair, a ``regular`` product search
at most one state per vertex and DFA state, and ``dag-enum`` should examine
a number of paths that the language, not the graph's path count, forces.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach import solve
from lcreach.cli import dispatch
from lcreach.generators import random_graph
from lcreach.grammar import normalize, parse_dfa
from lcreach.graph import DIRECTED, UNDIRECTED
from lcreach.languages import d2_grammar, dd2_grammar
from lcreach.solve import cfl_reach, regular_reach

from .helpers import random_cfg

BRACKETS = {"d2": (normalize(d2_grammar()), "()[]"), "dd2": (normalize(dd2_grammar()), "()[]ab")}


@st.composite
def cfl_instances(draw):
    """A normal form (``d2``, ``dd2`` or a random grammar over "ab") and a small random graph over its labels."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["d2", "dd2", "random"]))
    if name == "random":
        cfg = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 7), "ab", max_body=3, epsilon_bias=0.2)
        nf, alphabet = normalize(cfg), "".join(sorted(cfg.terminals))
    else:
        nf, alphabet = BRACKETS[name]
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    return random_graph(rng, n, draw(st.integers(0, 4 * n)), alphabet, kind=kind, self_loops=True), nf


@settings(max_examples=150, deadline=None)
@given(cfl_instances())
def test_cfl_facts_are_bounded_by_nonterminals_times_vertex_pairs(instance):
    g, nf = instance
    stats = {}
    cfl_reach(g, nf, stats=stats)
    n = g.vertex_count
    assert stats["row_deltas"] <= stats["facts"] <= len(solve._rules(nf).names) * n**2


@st.composite
def dfa_files(draw):
    """A DFA file over "ab" with 1-4 states, any accepting set and a partial transition table."""
    q = draw(st.integers(1, 4))
    accept = draw(st.sets(st.integers(0, q - 1)))
    moves = [
        f"{s} {ch} {draw(st.integers(0, q - 1))}\n"
        for s in range(q) for ch in "ab" if draw(st.booleans())
    ]
    return f"dfa {q}\nab\nstart {draw(st.integers(0, q - 1))}\naccept {' '.join(map(str, sorted(accept)))}\n" + "".join(moves)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from([DIRECTED, UNDIRECTED]), dfa_files())
def test_regular_states_are_bounded_by_vertices_times_dfa_states(seed, n, kind, text):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(0, 4 * n), "ab", kind=kind, self_loops=True)
    dfa = parse_dfa(text)
    stats = {}
    regular_reach(g, dfa, stats=stats)
    assert stats["states_examined"] <= stats["states"] <= n * dfa.state_count


def diamond_chain(k: int) -> str:
    """A graph file: k diamonds ``v -a-> m -b-> v+1`` (two per step), then one ``a`` edge to the target.

    Its 2**k source-to-target paths all spell ``(ab)**k a``: every prefix
    stays live under ``(ab)*`` and none is accepted.
    """
    edges = []
    for v in range(k):
        for m in (k + 1 + 2 * v, k + 2 + 2 * v):
            edges += [f"{v} {m} a", f"{m} {v + 1} b"]
    target = 3 * k + 1
    edges.append(f"{k} {target} a")
    return f"directed {target + 1} {len(edges)}\nab\n" + "\n".join(edges) + f"\n0 {target}\n"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5: dag-enum re-explores every (vertex, state) pair once per path that reaches it"
))
def test_dag_enum_examines_a_diamond_chain_in_linear_paths(tmp_path, capsys):
    for k in (8, 12):
        graph_file = tmp_path / f"diamonds-{k}.graph"
        graph_file.write_text(diamond_chain(k))
        code = dispatch(["solve", "--graph", str(graph_file), "--builtin", "abstar", "--mode", "dag-enum", "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["stats"]["paths_examined"] <= 4 * k
