"""Desk-scale acceptance checks: oracle equivalences, transformation fidelity,
determinacy, and performance floors.  Each check prints one PASS line; budgets
are asserted so regressions in the solver's complexity show up as failures.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""

import itertools
import json
import random
import time

from lcreach.generators import (
    random_balanced_string,
    random_circuit,
    random_dag,
    random_graph,
    random_nbc_string,
)
from lcreach.grammar import normalize
from lcreach.graph import DIRECTED, Edge, LabeledGraph, Path, path_endpoints, path_yield
from lcreach.languages import (
    abstar_dfa,
    builtin_language,
    d2_grammar,
    d2_member,
    dd2_grammar,
    lang_a_member,
    nbc_d2_member,
    yield_recognizer,
)
from lcreach.reductions import (
    d2reach_to_dd2_ureach,
    decode_vc_witness,
    eval_circuit,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    reach_to_abstar_ureach,
    vc_brute,
    vc_to_a_dagreach,
)
from lcreach.solve import (
    bounded_enum_reach,
    cfl_reach,
    cfl_reach_table,
    dag_enum_reach,
    expand_witness,
    regular_reach,
)

from .helpers import (
    all_vc_instances, cyk_member, random_cfg, table_facts, universal_dfa, walk_budget, worklist_facts,
)

D2 = d2_grammar()
DD2 = dd2_grammar()


def _report(number: int, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_01_cfl_matches_enumeration_on_dags():
    started = time.perf_counter()
    rng = random.Random(101)
    outcomes = set()
    for _ in range(500):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, rng.randint(0, 12), "()[]")
        expected = dag_enum_reach(g, yield_recognizer(d2_member)) is not None
        assert (cfl_reach(g, D2) is not None) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    _report(1, started, 30.0)


def test_criterion_02_bounded_search_never_beats_the_fixpoint():
    started = time.perf_counter()
    rng = random.Random(102)
    positives = 0
    checked = 0
    while checked < 300:
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8), "()[]")
        if checked % 2:
            # plant a balanced walk through random waypoints so positive
            # cases occur; waypoint reuse makes these instances cyclic
            word = random_balanced_string(rng, 6)
            stops = (
                [g.source]
                + [rng.randrange(g.vertex_count) for _ in range(len(word) - 1)]
                + [g.target]
            )
            planted = tuple(
                Edge(stops[i], stops[i + 1], word[i]) for i in range(len(word))
            )
            g = LabeledGraph(
                DIRECTED, g.vertex_count, tuple(g.edges) + planted, g.source, g.target, g.alphabet
            )
        if walk_budget(g, 12, cap=20000) > 20000:
            continue  # enumeration at this bound would be infeasible; redraw
        checked += 1
        enum = bounded_enum_reach(g, builtin_language("d2").recognizer, 12)
        witness = cfl_reach(g, D2)
        if enum is not None:
            positives += 1
            assert witness is not None, "enumeration found a walk the fixpoint missed"
        if witness is not None:
            expanded = expand_witness(witness, step_limit=10**6)
            if isinstance(expanded, Path):
                assert path_endpoints(g, expanded) == (g.source, g.target)
                assert d2_member(path_yield(g, expanded))
    assert positives > 20
    _report(2, started, 60.0)


def test_criterion_03_subdivision_preserves_plain_reachability():
    started = time.perf_counter()
    rng = random.Random(103)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, 2 * n), "xy")
        plain = regular_reach(g, universal_dfa("xy")) is not None
        constrained = regular_reach(reach_to_abstar_ureach(g), abstar_dfa()) is not None
        assert plain == constrained
        outcomes.add(plain)
    assert outcomes == {True, False}
    _report(3, started, 10.0)


def test_criterion_04_circuit_value_matches_bracket_reachability():
    started = time.perf_counter()
    rng = random.Random(104)
    outcomes = set()
    for _ in range(200):
        n_inputs = rng.randint(1, 5)
        c = random_circuit(rng, n_inputs, rng.randint(0, 15 - n_inputs))
        expected = eval_circuit(c) == 1
        assert (cfl_reach(mcvp_to_d2_reach(c), D2) is not None) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    _report(4, started, 20.0)


def test_criterion_05_direction_forgetting_preserves_the_answer():
    started = time.perf_counter()
    rng = random.Random(105)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 12), "()[]")
        before = cfl_reach(g, D2) is not None
        after = cfl_reach(d2reach_to_dd2_ureach(g), DD2) is not None
        assert before == after
        outcomes.add(before)
    assert outcomes == {True, False}
    _report(5, started, 30.0)


def test_criterion_06_vertex_cover_exhaustive_to_five_vertices():
    started = time.perf_counter()
    outcomes = set()
    count = 0
    for inst in all_vc_instances(5):
        count += 1
        expected = vc_brute(inst)
        out = vc_to_a_dagreach(inst)
        found = dag_enum_reach(out, yield_recognizer(lang_a_member))
        assert (found is not None) == expected, inst
        outcomes.add(expected)
        if found is not None:
            cover = decode_vc_witness(found, inst)
            assert len(cover) <= inst.k
            assert all(i in cover or j in cover for i, j in inst.edges)
    assert count == 6504
    assert outcomes == {True, False}
    _report(6, started, 120.0)


def test_criterion_07_block_choice_strings_match_series_parallel_search():
    started = time.perf_counter()
    rng = random.Random(107)
    outcomes = set()
    for _ in range(200):
        w = random_nbc_string(rng, rng.randint(0, 8))
        expected = nbc_d2_member(w)
        assert (cfl_reach(nbc_to_d2_dagreach(w), D2) is not None) == expected, w
        outcomes.add(expected)
    assert outcomes == {True, False}
    _report(7, started, 20.0)


def test_criterion_08_worklist_order_does_not_change_the_fixpoint():
    started = time.perf_counter()
    rng = random.Random(108)
    d2_nf = normalize(D2)
    for i in range(100):
        if i % 2:
            g = random_graph(rng, rng.randint(2, 7), rng.randint(0, 12), "()[]")
            nf = d2_nf
        else:
            cfg = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 8), "ab")
            nf = normalize(cfg)
            alpha = "".join(sorted(cfg.terminals))
            g = random_graph(rng, rng.randint(2, 7), rng.randint(0, 12), alpha)
        # The round-at-a-time fixpoint against the fact-at-a-time oracle
        # under two different worklist schedules.
        facts = table_facts(cfl_reach_table(g, nf))
        assert facts == worklist_facts(g, nf, "fifo")
        assert facts == worklist_facts(g, nf, "lifo")
    _report(8, started, 10.0)


def test_criterion_09_large_instance_stays_fast():
    rng = random.Random(2)
    g = random_graph(rng, 200, 1000, "()[]")
    started = time.perf_counter()
    witness = cfl_reach(g, D2)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"n=200 m=1000 took {elapsed:.1f}s"
    assert witness is not None
    expanded = expand_witness(witness)
    assert isinstance(expanded, Path)
    assert d2_member(path_yield(g, expanded))
    print(f"ACCEPTANCE 9 PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_10_recognizer_against_parser():
    started = time.perf_counter()
    nf = normalize(D2)
    total = 0
    for length in range(0, 9):
        for combo in itertools.product("()[]", repeat=length):
            w = "".join(combo)
            assert cyk_member(nf, w) == d2_member(w), w
            total += 1
    # stratified sample of longer strings up to the 1e5 mark
    rng = random.Random(110)
    agreements = {True: 0, False: 0}
    while total < 100_000:
        length = rng.choice((9, 10))
        w = "".join(rng.choice("()[]") for _ in range(length))
        verdict = d2_member(w)
        assert cyk_member(nf, w) == verdict, w
        agreements[verdict] += 1
        total += 1
    assert agreements[False] > 0  # odd lengths are always rejected
    _report(10, started, 120.0)


def test_criterion_11_grammar_certificate_round_trip_on_a_long_chain(tmp_path, capsys):
    from lcreach.cli import dispatch

    word = "(" * 500 + ")" * 500
    edges = "".join(f"{i} {i + 1} {ch}\n" for i, ch in enumerate(word))
    graph = tmp_path / "chain.graph"
    graph.write_text(f"directed 1001 1000\n()\n{edges}0 1000\n")
    grammar = tmp_path / "d2.cfg"
    grammar.write_text("S -> '(' S ')' | '[' S ']' | '(' ')' | '[' ']' | S S\n")
    witness = tmp_path / "w.json"
    started = time.perf_counter()
    lang = ["--graph", str(graph), "--grammar", str(grammar)]
    assert dispatch(["solve", *lang, "--witness-out", str(witness), "--json"]) == 0
    assert dispatch(["verify", *lang, "--witness", str(witness), "--json"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert reports[0]["yield"] == reports[1]["yield"] == word
    with capsys.disabled():
        _report(11, started, 5.0)
