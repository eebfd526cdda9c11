"""Grammar parsing, normalization, membership by chain reachability, and DFAs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach.errors import ParseError, SemanticError, UndeclaredSymbolError
from lcreach.grammar import Cfg, Dfa, normalize, parse_cfg, parse_dfa, render_cfg
from lcreach.languages import abstar_dfa, d2_grammar, dd2_grammar, dfa_recognizer
from lcreach.solve import cfl_member

from .helpers import cyk_member, derivable_strings, is_linear, language_upto, random_cfg


# --- parsing -------------------------------------------------------------------


def test_parse_simple_grammar():
    g = parse_cfg("S -> '(' S ')' | '(' ')'")
    assert g.nonterminals == frozenset({"S"})
    assert g.terminals == frozenset("()")
    assert len(g.productions) == 2
    assert g.start == "S"


def test_start_symbol_is_first_head():
    g = parse_cfg("A -> 'a'\nB -> 'b'")
    assert g.start == "A"


def test_undeclared_nonterminal_is_rejected():
    with pytest.raises(UndeclaredSymbolError):
        parse_cfg("S -> T")


def test_empty_alternative_is_epsilon():
    g = parse_cfg("S -> 'a' |")
    assert ("S", ()) in g.productions
    assert ("S", ("a",)) in g.productions


def test_parse_rejects_garbage_tokens():
    with pytest.raises(ParseError):
        parse_cfg("S -> $")


def test_grammar_render_round_trip_on_builtins():
    for g in (d2_grammar(), dd2_grammar()):
        assert parse_cfg(render_cfg(g)) == g


def test_grammar_render_round_trip_on_random_grammars():
    rng = random.Random(11)
    for _ in range(50):
        g = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 8), rng.choice(["ab", "()"]))
        assert parse_cfg(render_cfg(g)) == g


def test_cfg_validation_rejects_undeclared_symbols():
    with pytest.raises(ValueError):
        Cfg(frozenset({"S"}), frozenset("a"), (("S", ("b",)),), "S")
    with pytest.raises(ValueError):
        Cfg(frozenset({"S"}), frozenset("a"), (("S", ("a",)),), "T")
    with pytest.raises(ValueError, match="non-space"):  # no edge label, and so no chain, can spell it
        Cfg(frozenset({"S"}), frozenset(" "), (("S", (" ",)),), "S")


# --- normalization ---------------------------------------------------------------


def test_bracket_grammar_normal_form_is_epsilon_free():
    nf = normalize(d2_grammar())
    assert nf.start_nullable is False
    for _, a in nf.terminal_rules:
        assert a in "()[]"
    for _, b, c in nf.binary_rules:
        assert b in nf.nonterminals and c in nf.nonterminals


def test_epsilon_only_grammar_normalizes_to_nullable_flag():
    g = parse_cfg("S ->")
    nf = normalize(g)
    assert nf.start_nullable is True
    assert nf.binary_rules == ()
    assert nf.terminal_rules == ()


def test_normalization_is_deterministic():
    g = random_cfg(random.Random(5), 3, 10, "ab")
    assert normalize(g) == normalize(g)


def test_unit_chains_are_eliminated():
    g = parse_cfg("A -> B\nB -> C\nC -> 'c'")
    nf = normalize(g)
    assert cfl_member(nf, "c")
    assert not cfl_member(nf, "cc")


def test_nullable_elimination_keeps_inner_epsilon_derivations():
    g = parse_cfg("S -> A 'b'\nA -> 'a' |")
    nf = normalize(g)
    assert cfl_member(nf, "ab")
    assert cfl_member(nf, "b")
    assert not cfl_member(nf, "")
    assert nf.start_nullable is False


def test_normal_form_on_random_grammars_matches_string_enumeration():
    rng = random.Random(20260817)
    for i in range(50):
        g = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 10), "ab", max_body=3)
        nf = normalize(g)
        expected = language_upto(g, 6)
        for length in range(0, 7):
            for word in _all_words("ab", length):
                assert cyk_member(nf, word) == (word in expected), (i, word)


def _all_words(alphabet, length):
    import itertools

    for combo in itertools.product(sorted(alphabet), repeat=length):
        yield "".join(combo)


# The names normalize invents reach version 2 witness files, so each case pins
# the exact rules: (binary_rules, terminal_rules, start_nullable).
GOLDEN_NORMAL_FORMS = {
    "d2": (
        d2_grammar(),
        (
            ("S", "S", "S"),
            ("S", "_t_(", "_b1"),
            ("S", "_t_(", "_t_)"),
            ("S", "_t_[", "_b2"),
            ("S", "_t_[", "_t_]"),
            ("_b1", "S", "_t_)"),
            ("_b2", "S", "_t_]"),
        ),
        (("_t_(", "("), ("_t_)", ")"), ("_t_[", "["), ("_t_]", "]")),
        False,
    ),
    "dd2": (
        dd2_grammar(),
        (
            ("S", "S", "S"),
            ("S", "_t_(", "_b1"),
            ("S", "_t_(", "_b7"),
            ("S", "_t_[", "_b4"),
            ("S", "_t_[", "_b9"),
            ("_b1", "_t_a", "_b2"),
            ("_b10", "_t_d", "_t_]"),
            ("_b2", "S", "_b3"),
            ("_b3", "_t_b", "_t_)"),
            ("_b4", "_t_c", "_b5"),
            ("_b5", "S", "_b6"),
            ("_b6", "_t_d", "_t_]"),
            ("_b7", "_t_a", "_b8"),
            ("_b8", "_t_b", "_t_)"),
            ("_b9", "_t_c", "_b10"),
        ),
        (
            ("_t_(", "("),
            ("_t_)", ")"),
            ("_t_[", "["),
            ("_t_]", "]"),
            ("_t_a", "a"),
            ("_t_b", "b"),
            ("_t_c", "c"),
            ("_t_d", "d"),
        ),
        False,
    ),
    "nullable pair halves": (
        parse_cfg("S -> A B\nA -> 'a' |\nB -> 'b' |"),
        (("S", "A", "B"),),
        (("A", "a"), ("B", "b"), ("S", "a"), ("S", "b")),
        True,
    ),
    "unit cycle": (parse_cfg("S -> T\nT -> S | 'a'"), (), (("S", "a"),), False),
    "own nonterminals with reserved names": (
        Cfg(
            frozenset({"S", "_b1", "_t_a"}),
            frozenset("ab"),
            (
                ("S", ("a", "_b1", "_t_a", "b")),
                ("_b1", ("a",)),
                ("_t_a", ("b", "S")),
                ("_t_a", ("b",)),
            ),
            "S",
        ),
        (
            ("S", "_t_a2", "_b12"),
            ("_b12", "_b1", "_b2"),
            ("_b2", "_t_a", "_t_b"),
            ("_t_a", "_t_b", "S"),
        ),
        (("_b1", "a"), ("_t_a", "b"), ("_t_a2", "a"), ("_t_b", "b")),
        False,
    ),
}


@pytest.mark.parametrize(
    "g, binary, terminal, nullable", GOLDEN_NORMAL_FORMS.values(), ids=GOLDEN_NORMAL_FORMS.keys()
)
def test_golden_normal_form(g, binary, terminal, nullable):
    nf = normalize(g)
    assert (nf.binary_rules, nf.terminal_rules, nf.start_nullable) == (binary, terminal, nullable)
    assert (nf.start, nf.terminals) == (g.start, g.terminals)


def test_shipped_grammars_survive_normalization():
    # positive side: every enumerable derivation; negative side: random strings
    rng = random.Random(3)
    for g, max_len in ((d2_grammar(), 8), (dd2_grammar(), 8)):
        nf = normalize(g)
        members = language_upto(g, max_len)
        for w in members:
            assert cyk_member(nf, w), w
        symbols = sorted(g.terminals)
        for _ in range(2000):
            w = "".join(rng.choice(symbols) for _ in range(rng.randint(0, max_len)))
            assert cyk_member(nf, w) == (w in members), w


# --- membership: reachability on the chain that spells the word ---------------------


def test_bracket_membership_basics():
    nf = normalize(d2_grammar())
    assert cfl_member(nf, "()")
    assert not cfl_member(nf, "")
    assert not cfl_member(nf, "([)]")
    assert cfl_member(nf, "([])()")


def test_membership_is_false_on_foreign_symbols():
    nf = normalize(d2_grammar())
    assert not cfl_member(nf, "(x)")


def test_membership_of_the_empty_word_follows_nullable_flag():
    g = parse_cfg("S -> 'a' S |")
    nf = normalize(g)
    assert nf.start_nullable is True
    assert cfl_member(nf, "")
    assert cfl_member(nf, "aaa")
    assert not cfl_member(nf, "b")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.text("ab", max_size=10) | st.text("abx", max_size=10), min_size=1, max_size=8),
)
def test_chain_membership_equals_the_cyk_oracle(seed, words):
    # "x" is never a terminal, and "b" is not one when no rule reads it
    rng = random.Random(seed)
    nf = normalize(random_cfg(rng, rng.randint(1, 4), rng.randint(1, 8), "ab", epsilon_bias=0.3))
    for w in words:
        assert cfl_member(nf, w) == cyk_member(nf, w), w


# --- linearity --------------------------------------------------------------------


def test_one_nonterminal_per_body_is_linear():
    assert is_linear(parse_cfg("S -> 'a' S 'b' | 'a' 'b'"))
    assert is_linear(parse_cfg("S -> 'a' T\nT -> 'b'"))


def test_concatenation_rule_is_not_linear():
    assert not is_linear(d2_grammar())


# --- DFAs -----------------------------------------------------------------------


def test_alternating_pair_dfa_examples():
    d = abstar_dfa()
    assert dfa_recognizer(d).member("")
    assert dfa_recognizer(d).member("ab")
    assert dfa_recognizer(d).member("abab")
    assert not dfa_recognizer(d).member("a")
    assert not dfa_recognizer(d).member("ba")


def test_dfa_recognizer_treats_foreign_symbols_as_dead():
    rec = dfa_recognizer(abstar_dfa())
    assert rec.step(rec.start, "x") is None
    assert not rec.member("abx")
    assert not rec.member("x")


def test_dfa_accepts_a_partial_delta():
    d = Dfa(2, frozenset("ab"), {(0, "a"): 1}, 0, frozenset({1}))
    assert d.delta == {(0, "a"): 1}
    assert dfa_recognizer(d).member("a")
    assert not dfa_recognizer(d).member("b")  # (0, "b") is missing, so "b" is rejected


def test_parse_dfa_basic():
    d = parse_dfa("dfa 2\nab\nstart 0\naccept 0\n0 a 1\n1 b 0\n0 b 0\n1 a 1")
    assert d.state_count == 2
    assert dfa_recognizer(d).member("ab")
    assert not dfa_recognizer(d).member("a")


def test_parse_dfa_keeps_partial_tables():
    d = parse_dfa("dfa 2\nab\nstart 0\naccept 1\n0 a 1")
    assert (d.state_count, d.delta) == (2, {(0, "a"): 1})
    assert dfa_recognizer(d).member("a")
    assert not dfa_recognizer(d).member("ab")
    assert not dfa_recognizer(d).member("aa")


def test_parse_dfa_reports_the_line_of_a_bad_state():
    with pytest.raises(ParseError, match="^line 3: states must be integers"):
        parse_dfa("dfa 2\nab\nstart x\naccept 0\n")
    with pytest.raises(ParseError, match="^line 4: states must be integers"):
        parse_dfa("dfa 2\nab\nstart 0\naccept 0 y\n")
    with pytest.raises(ParseError, match="^line 5: states must be integers"):
        parse_dfa("dfa 2\nab\nstart 0\naccept 0\nq a 1\n")
    # only ASCII integers: no sign "+", no "_", no other digits
    with pytest.raises(ParseError, match="^line 1: state count must be an integer"):
        parse_dfa("dfa \u0662\nab\nstart 0\naccept 0\n")
    with pytest.raises(ParseError, match="^line 3: states must be integers"):
        parse_dfa("dfa 2\nab\nstart +0\naccept 0\n")
    with pytest.raises(ParseError, match="^line 5: states must be integers"):
        parse_dfa("dfa 20\nab\nstart 0\naccept 0\n0 a 1_0\n")


def test_parse_dfa_rejects_duplicate_transitions():
    with pytest.raises(SemanticError):
        parse_dfa("dfa 2\nab\nstart 0\naccept 1\n0 a 1\n0 a 0")


def test_dfa_acceptance_is_stable_across_calls():
    d = abstar_dfa()
    assert all(dfa_recognizer(d).member("ab" * 5) for _ in range(3))
