"""Instance transformations and their brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach.errors import (
    BlockSyntaxError,
    EmptyChoiceError,
    ForeignSymbolError,
    KindError,
    LcreachError,
    ParseError,
    PathMismatchError,
    PortConflictError,
    SemanticError,
    TooLargeError,
)
from lcreach.generators import random_circuit, random_graph, random_nbc_string, random_vc_instance
from lcreach.graph import DIRECTED, UNDIRECTED, LabeledGraph, Path, Step, is_dag, path_yield, render_graph
from lcreach.languages import (
    abstar_dfa,
    d2_grammar,
    d2_member,
    dd2_grammar,
    lang_a_member,
    nbc_d2_member,
    yield_recognizer,
)
from lcreach.reductions import (
    Circuit,
    VcInstance,
    d2reach_to_dd2_ureach,
    decode_vc_witness,
    eval_circuit,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_vc,
    reach_to_abstar_ureach,
    render_circuit,
    render_vc,
    vc_brute,
    vc_to_a_dagreach,
)
from lcreach.solve import (
    bounded_enum_reach,
    cfl_reach,
    dag_enum_reach,
    expand_witness,
    regular_reach,
)

from .helpers import graph, mcvp_to_d2_per_edge, parse_circuit_per_line, parse_lang_a, universal_dfa

D2 = d2_grammar()
DD2 = dd2_grammar()


# --- midpoint subdivision ----------------------------------------------------------


def test_single_edge_becomes_a_two_step_alternation():
    g = graph(DIRECTED, 2, [(0, 1, "x")], 0, 1, "x")
    out = reach_to_abstar_ureach(g)
    assert out.kind == UNDIRECTED
    assert out.vertex_count == 3
    assert len(out.edges) == 2
    p = regular_reach(out, abstar_dfa())
    assert p is not None
    assert path_yield(out, p) == "ab"


def test_backwards_edge_does_not_become_reachable():
    g = graph(DIRECTED, 2, [(1, 0, "x")], 0, 1, "x")
    out = reach_to_abstar_ureach(g)
    assert regular_reach(out, abstar_dfa()) is None
    assert bounded_enum_reach(out, yield_recognizer(lambda w: w in ("", "ab", "abab")), 4) is None


def test_two_hop_chain_reads_two_alternations():
    g = graph(DIRECTED, 3, [(0, 1, "x"), (1, 2, "x")], 0, 2, "x")
    out = reach_to_abstar_ureach(g)
    p = regular_reach(out, abstar_dfa())
    assert p is not None
    assert path_yield(out, p) == "abab"


def test_subdivision_size_is_vertices_plus_edges():
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(2, 10), rng.randint(0, 15)
        g = random_graph(rng, n, m, "xy")
        out = reach_to_abstar_ureach(g)
        assert out.vertex_count == n + m
        assert len(out.edges) == 2 * m


def test_subdivision_requires_directed_input():
    g = graph(UNDIRECTED, 2, [(0, 1, "x")], 0, 1, "x")
    with pytest.raises(KindError):
        reach_to_abstar_ureach(g)


def test_subdivision_preserves_plain_reachability():
    rng = random.Random(20260817)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.randint(0, 2 * n), "x")
        plain = regular_reach(g, universal_dfa("x")) is not None
        constrained = regular_reach(reach_to_abstar_ureach(g), abstar_dfa()) is not None
        assert plain == constrained
        outcomes.add(plain)
    assert outcomes == {True, False}


# --- block-choice strings to series-parallel DAGs -------------------------------------


def test_blockless_string_becomes_a_chain():
    out = nbc_to_d2_dagreach("()")
    assert is_dag(out) is not None
    assert out.vertex_count == 3
    assert cfl_reach(out, D2) is not None


def test_choice_block_becomes_a_diamond():
    out = nbc_to_d2_dagreach("({(#)}")
    assert is_dag(out) is not None
    assert cfl_reach(out, D2) is not None


def test_unbalanced_choices_stay_unreachable():
    out = nbc_to_d2_dagreach("{(#(}")
    assert cfl_reach(out, D2) is None


def test_branch_count_follows_choice_count():
    out = nbc_to_d2_dagreach("{(#)#[}")
    # three single-symbol branches between the two junctions
    assert out.vertex_count == 2
    assert len(out.edges) == 3


def test_block_choice_graph_is_pinned():
    # Spine 0 -(- 1; block 1 ends at 2, its "[])" branch through 3 and 4;
    # block 2 ends at 5, its "()]" branch through 6 and 7.  Witness files name
    # edges by index, so vertex numbers and edge order must not drift.
    assert render_graph(nbc_to_d2_dagreach("({)#[])}{]#()]}")) == (
        "directed 8 9\n()[]\n0 1 (\n1 2 )\n1 3 [\n3 4 ]\n4 2 )\n2 5 ]\n2 6 (\n6 7 )\n7 5 ]\n0 5\n"
    )


def test_empty_choices_cannot_be_built():
    with pytest.raises(EmptyChoiceError):
        nbc_to_d2_dagreach("({#)}")


def test_malformed_block_strings_error_out():
    with pytest.raises(BlockSyntaxError):
        nbc_to_d2_dagreach("({()}")


def test_series_parallel_instances_match_brute_force():
    rng = random.Random(20260817)
    outcomes = set()
    for _ in range(60):
        w = random_nbc_string(rng, rng.randint(0, 8))
        expected = nbc_d2_member(w)
        out = nbc_to_d2_dagreach(w)
        assert is_dag(out) is not None
        witness = cfl_reach(out, D2)
        assert (witness is not None) == expected, w
        outcomes.add(expected)
        if witness is not None:
            p = expand_witness(witness)
            assert isinstance(p, Path)
            assert d2_member(path_yield(out, p))
    assert outcomes == {True, False}


# --- circuits ---------------------------------------------------------------------


def test_constant_true_input_circuit():
    c = Circuit((("input", 1),), 0)
    assert eval_circuit(c) == 1
    out = mcvp_to_d2_reach(c)
    w = cfl_reach(out, D2)
    assert w is not None
    assert path_yield(out, expand_witness(w)) == "()"


def test_and_with_false_operand_is_unreachable():
    c = Circuit((("input", 1), ("input", 0), ("and", 0, 1, 1, 1)), 2)
    assert eval_circuit(c) == 0
    assert cfl_reach(mcvp_to_d2_reach(c), D2) is None


def test_or_with_one_true_operand_is_reachable():
    c = Circuit((("input", 0), ("input", 1), ("or", 0, 1, 1, 1)), 2)
    assert eval_circuit(c) == 1
    assert cfl_reach(mcvp_to_d2_reach(c), D2) is not None


def test_nested_evaluation():
    c = Circuit(
        (("input", 1), ("input", 0), ("and", 0, 1, 1, 1), ("input", 0), ("or", 2, 1, 3, 1)),
        4,
    )
    assert eval_circuit(c) == 0


def test_port_one_wraps_round_port_two_wraps_square():
    c = Circuit((("input", 1), ("input", 1), ("and", 0, 1, 1, 2)), 2)
    out = mcvp_to_d2_reach(c)
    w = cfl_reach(out, D2)
    assert path_yield(out, expand_witness(w)) == "(())[()]"
    c2 = Circuit((("input", 1), ("input", 1), ("and", 0, 2, 1, 1)), 2)
    out2 = mcvp_to_d2_reach(c2)
    w2 = cfl_reach(out2, D2)
    assert path_yield(out2, expand_witness(w2)) == "[()](())"


def test_shared_gate_is_walked_twice():
    c = Circuit((("input", 1), ("and", 0, 1, 0, 2)), 1)
    out = mcvp_to_d2_reach(c)
    w = cfl_reach(out, D2)
    assert w is not None
    p = expand_witness(w)
    assert path_yield(out, p) == "(())[()]"
    # the walk passes through the shared operand gadget twice
    visited = [p.start] + [out.edges[s.edge].v for s in p.steps]
    assert len(visited) != len(set(visited))


def test_port_reuse_is_rejected():
    with pytest.raises(PortConflictError):
        Circuit((("input", 1), ("and", 0, 1, 0, 1)), 1)


def test_gate_references_must_point_backwards():
    with pytest.raises(ValueError):
        Circuit((("and", 0, 1, 1, 2), ("input", 1)), 0)


def test_ports_must_be_one_or_two():
    with pytest.raises(ValueError):
        Circuit((("input", 1), ("input", 1), ("and", 0, 3, 1, 1)), 2)


def test_input_values_are_bits():
    with pytest.raises(ValueError):
        Circuit((("input", 7),), 0)


def test_gates_are_file_line_tuples():
    for gate in (("not", 1), ("input",), ("input", 1, 0), ("and", 0, 1, 0), ["input", 1], ()):
        with pytest.raises(ValueError, match="^gate 0: unknown gate type"):
            Circuit((gate,), 0)


def test_circuit_file_round_trip():
    rng = random.Random(6)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 10))
        assert parse_circuit(render_circuit(c)) == c


def test_circuit_parse_errors():
    with pytest.raises(ParseError):
        parse_circuit("circuit x\ninput 1\noutput 0")
    with pytest.raises(ParseError):
        parse_circuit("circuit 2\ninput 1\noutput 0")
    with pytest.raises(SemanticError):
        parse_circuit("circuit 1\ninput 5\noutput 0")


def test_blank_gate_line_is_a_parse_error():
    with pytest.raises(ParseError, match="^line 2: bad gate line"):
        parse_circuit("circuit 2\n\ninput 1\noutput 0\n")


def test_circuit_value_matches_bracket_reachability():
    rng = random.Random(20260817)
    outcomes = set()
    for _ in range(60):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 10))
        expected = eval_circuit(c) == 1
        witness = cfl_reach(mcvp_to_d2_reach(c), D2)
        assert (witness is not None) == expected
        outcomes.add(expected)
        if witness is not None:
            out = mcvp_to_d2_reach(c)
            p = expand_witness(witness)
            assert isinstance(p, Path)
            assert d2_member(path_yield(out, p))
    assert outcomes == {True, False}


def test_operands_must_be_integers():
    # a float index, a bool value or port, and an int subclass would all slip past a range check
    faulty = {
        ("and", 0.0, 1, 1, 1): "gate 2: operands must be integers",
        ("or", 0, True, 1, 1): "gate 2: operands must be integers",
        ("and", 0, 1, 1, 2.0): "gate 2: operands must be integers",
    }
    for gate, message in faulty.items():
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit((("input", 1), ("input", 0), gate), 2)
    with pytest.raises(ValueError, match="^gate 1: operands must be integers$"):
        Circuit((("input", 1), ("input", True)), 0)
    for output in (0.0, True, "0"):
        with pytest.raises(ValueError, match="^output gate out of range$"):
            Circuit((("input", 1),), output)


def test_the_first_gate_at_fault_is_named():
    gates = (("input", 1), ("and", 0, 1, 0, 3), ("input", 1.0), ("or", 0, 1, 1, 1))
    with pytest.raises(ValueError, match="^gate 1: port must be 1 or 2, got 3$"):
        Circuit(gates, 3)
    with pytest.raises(PortConflictError, match="^port 1 of gate 0 already feeds another consumer$"):
        Circuit((("input", 1), ("and", 0, 2, 0, 1), ("and", 0, 1, 1, 1), ("input", 5)), 2)


# --- circuits by columns, against the per-line and per-edge oracles --------------------

# Tokens a mutation may insert or put in place of another: words, operands in
# and out of range, and what no integer parser of this package reads.
TOKENS = ["input", "and", "or", "not", "0", "1", "2", "3", "-1", "007", "x", "1.0", "+1", "1_0", "\u0661", "\0"]


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except (LcreachError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def mutated_circuit_files(draw):
    """A random circuit file with one to three token or line faults, or none."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c = random_circuit(rng, rng.randint(1, 6), rng.randint(0, 40))
    lines = render_circuit(c).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines) - 2), label="gate line")
        tokens = lines[at].split()
        fault = draw(st.sampled_from(["drop", "swap", "insert", "replace", "blank", "swap lines", "spaces"]))
        if not tokens and fault in ("drop", "swap", "replace"):
            fault = "insert"
        if fault == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif fault == "swap":
            i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif fault == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKENS)))
        elif fault == "replace":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        elif fault == "blank":
            tokens = []
        elif fault == "swap lines":
            other = draw(st.integers(1, len(lines) - 2), label="other gate line")
            lines[at], lines[other] = lines[other], lines[at]
            tokens = lines[at].split()
        lines[at] = draw(st.sampled_from([" ", "\t", "  ", "\u2003"])).join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_circuit_files())
def test_mutated_circuit_files_parse_as_the_per_line_oracle_parses_them(text):
    got, want = outcome(parse_circuit, text), outcome(parse_circuit_per_line, text)
    assert got == want
    if isinstance(got, tuple) and issubclass(got[0], ParseError) and got[1].startswith("line "):
        assert got[1].split(":")[0] == want[1].split(":")[0]


def test_a_circuit_file_with_non_ascii_spaces_parses_line_by_line():
    text = "circuit 3\ninput\u20031\ninput 0\nand\u00a00 1 1 1\noutput 2\n"
    assert parse_circuit(text) == parse_circuit_per_line(text) == Circuit(
        (("input", 1), ("input", 0), ("and", 0, 1, 1, 1)), 2
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 60))
def test_random_circuits_reduce_to_the_per_edge_columns(seed, inputs, gates):
    c = random_circuit(random.Random(seed), inputs, gates)
    got, want = mcvp_to_d2_reach(c), mcvp_to_d2_per_edge(c)
    assert (got.vertex_count, got.us, got.vs, got.labels, got.source, got.target) == (
        want.vertex_count, want.us, want.vs, want.labels, want.source, want.target
    )
    assert got == want


# --- direction forgetting --------------------------------------------------------------


def test_matched_pair_survives_direction_forgetting():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    out = d2reach_to_dd2_ureach(g)
    assert out.kind == UNDIRECTED
    assert out.vertex_count == 5
    assert len(out.edges) == 4
    w = cfl_reach(out, DD2)
    assert w is not None
    assert path_yield(out, expand_witness(w)) == "(ab)"


def test_disconnected_pair_stays_unreachable():
    g = graph(DIRECTED, 2, [], 0, 1, "()")
    assert cfl_reach(d2reach_to_dd2_ureach(g), DD2) is None


def test_single_closing_edge_stays_unreachable():
    g = graph(DIRECTED, 2, [(0, 1, ")")], 0, 1, "()")
    assert cfl_reach(d2reach_to_dd2_ureach(g), DD2) is None


def test_direction_forgetting_requires_bracket_labels():
    g = graph(DIRECTED, 2, [(0, 1, "z")], 0, 1, "z")
    with pytest.raises(ForeignSymbolError):
        d2reach_to_dd2_ureach(g)


def test_direction_forgetting_requires_directed_input():
    g = graph(UNDIRECTED, 2, [(0, 1, "(")], 0, 1, "()")
    with pytest.raises(KindError):
        d2reach_to_dd2_ureach(g)


def test_direction_forgetting_preserves_the_answer():
    rng = random.Random(20260817)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, 12), "()[]")
        before = cfl_reach(g, D2) is not None
        out = d2reach_to_dd2_ureach(g)
        assert out.vertex_count == n + len(g.edges)
        assert len(out.edges) == 2 * len(g.edges)
        after = cfl_reach(out, DD2) is not None
        assert before == after
        outcomes.add(before)
    assert outcomes == {True, False}


# --- vertex cover ------------------------------------------------------------------


def triangle(k):
    return VcInstance(3, frozenset({(1, 2), (1, 3), (2, 3)}), k)


def test_triangle_with_budget_two_is_coverable():
    assert vc_brute(triangle(2))
    assert dag_enum_reach(vc_to_a_dagreach(triangle(2)), yield_recognizer(lang_a_member)) is not None


def test_triangle_with_budget_one_is_not_coverable():
    assert not vc_brute(triangle(1))
    assert dag_enum_reach(vc_to_a_dagreach(triangle(1)), yield_recognizer(lang_a_member)) is None


def test_single_vertex_no_edges_zero_budget():
    inst = VcInstance(1, frozenset(), 0)
    assert vc_brute(inst)
    out = vc_to_a_dagreach(inst)
    p = dag_enum_reach(out, yield_recognizer(lang_a_member))
    assert p is not None
    assert path_yield(out, p) == "0##0"


def test_construction_size_is_exact():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 7)
        inst = random_vc_instance(rng, n, rng.randint(0, n * (n - 1) // 2), rng.randint(0, n))
        out = vc_to_a_dagreach(inst)
        pairs = n * (n - 1) // 2
        assert len(out.edges) == pairs + 4 * n + 1
        assert out.vertex_count == pairs + 3 * n + 2
        assert is_dag(out) is not None


def test_vertex_cover_graph_is_pinned():
    # Budget "100#", adjacency "101#", then one diamond per vertex at 8, 10, 12.
    assert render_graph(vc_to_a_dagreach(VcInstance(3, frozenset({(1, 2), (2, 3)}), 1))) == (
        "directed 14 16\n#01\n0 1 1\n1 2 0\n2 3 0\n3 4 #\n4 5 1\n5 6 0\n6 7 1\n7 8 #\n"
        "8 9 1\n8 9 0\n9 10 #\n10 11 1\n10 11 0\n11 12 #\n12 13 1\n12 13 0\n0 13\n"
    )


def test_every_path_spells_a_wellformed_certificate():
    from lcreach.solve import iter_st_paths

    inst = VcInstance(3, frozenset({(1, 2)}), 1)
    out = vc_to_a_dagreach(inst)
    count = 0
    for p, text in iter_st_paths(out, yield_recognizer(bool)):
        count += 1
        assert text == path_yield(out, p)
        view = parse_lang_a(text)
        assert view is not None
        assert view.n == 3
        assert view.k == 1
        assert view.adjacency == "100"
    assert count == 8  # one free bit per vertex


def test_decoding_reads_the_diamond_choices():
    inst = triangle(2)
    out = vc_to_a_dagreach(inst)
    want = {"110": {1, 2}, "000": set(), "100": {1}}
    seen = {}
    from lcreach.solve import iter_st_paths

    for p, text in iter_st_paths(out, yield_recognizer(bool)):
        view = parse_lang_a(text)
        if view.cover_bits in want:
            seen[view.cover_bits] = decode_vc_witness(p, inst)
    assert seen == want
    assert not lang_a_member("110#111#1#0#0")  # {1} does not cover the triangle


def test_found_paths_decode_to_real_covers():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 5)
        inst = random_vc_instance(rng, n, rng.randint(0, n * (n - 1) // 2), rng.randint(0, n))
        out = vc_to_a_dagreach(inst)
        p = dag_enum_reach(out, yield_recognizer(lang_a_member))
        assert (p is not None) == vc_brute(inst)
        if p is not None:
            cover = decode_vc_witness(p, inst)
            assert len(cover) <= inst.k
            assert all(i in cover or j in cover for i, j in inst.edges)


def test_foreign_paths_are_rejected_by_the_decoder():
    inst = triangle(2)
    other = vc_to_a_dagreach(VcInstance(2, frozenset({(1, 2)}), 1))
    from lcreach.solve import iter_st_paths

    p, _ = next(iter_st_paths(other, yield_recognizer(bool)))
    with pytest.raises(PathMismatchError):
        decode_vc_witness(p, inst)
    with pytest.raises(PathMismatchError):
        decode_vc_witness(Path(0, (Step(0),)), inst)


def test_brute_force_guard():
    with pytest.raises(TooLargeError):
        vc_brute(VcInstance(21, frozenset(), 0))


def test_brute_force_basics():
    assert vc_brute(VcInstance(4, frozenset(), 0))
    assert vc_brute(VcInstance(2, frozenset({(1, 2)}), 1))
    assert not vc_brute(VcInstance(2, frozenset({(1, 2)}), 0))


def test_vc_instance_validation():
    with pytest.raises(ValueError):
        VcInstance(2, frozenset({(1, 1)}), 1)  # self-loop
    with pytest.raises(ValueError):
        VcInstance(2, frozenset({(1, 5)}), 1)  # out of range
    with pytest.raises(ValueError):
        VcInstance(2, frozenset(), 3)  # budget exceeds n


def test_vc_file_round_trip():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 8)
        inst = random_vc_instance(rng, n, rng.randint(0, n * (n - 1) // 2), rng.randint(0, n))
        assert parse_vc(render_vc(inst)) == inst
    with pytest.raises(ParseError):
        parse_vc("vc 2 1 1\n1 2\n1 2")
    with pytest.raises(SemanticError):
        parse_vc("vc 2 1 5\n1 2")


def test_random_vc_draws_equal_sampling_the_list_of_all_pairs():
    # the generator samples indices of the row-major pairs instead of the pairs
    for seed in range(40):
        for n, m in ((1, 0), (2, 1), (5, 10), (9, 4), (12, 30), (40, 100)):
            rng, ref = random.Random(seed), random.Random(seed)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            expected = frozenset(ref.sample(pairs, min(m, len(pairs))))
            assert random_vc_instance(rng, n, m, 0).edges == expected, (seed, n, m)
            assert rng.random() == ref.random()


def test_random_vc_instance_with_many_vertices_lists_no_pairs():
    # all C(n, 2) pairs would be 5 * 10**9 tuples
    inst = random_vc_instance(random.Random(1), 100_000, 5, 3)
    assert len(inst.edges) == 5


def test_reachability_matches_brute_force_exhaustively_small():
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            for k in range(n + 1):
                inst = VcInstance(n, edges, k)
                found = dag_enum_reach(vc_to_a_dagreach(inst), yield_recognizer(lang_a_member))
                assert (found is not None) == vc_brute(inst), (n, edges, k)
