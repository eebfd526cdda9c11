"""Grammar parsing, normalization, CYK membership, and DFAs."""

import random

import pytest

from lcreach import (
    Cfg,
    Dfa,
    ParseError,
    SemanticError,
    UndeclaredSymbolError,
    abstar_dfa,
    cyk_member,
    d2_grammar,
    dd2_grammar,
    is_linear,
    normalize,
    parse_cfg,
    parse_dfa,
    random_cfg,
    render_cfg,
)
from lcreach.languages import dfa_recognizer

from .helpers import derivable_strings, language_upto


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
    assert cyk_member(nf, "c")
    assert not cyk_member(nf, "cc")


def test_nullable_elimination_keeps_inner_epsilon_derivations():
    g = parse_cfg("S -> A 'b'\nA -> 'a' |")
    nf = normalize(g)
    assert cyk_member(nf, "ab")
    assert cyk_member(nf, "b")
    assert not cyk_member(nf, "")
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


# --- CYK ------------------------------------------------------------------------


def test_bracket_membership_basics():
    nf = normalize(d2_grammar())
    assert cyk_member(nf, "()")
    assert not cyk_member(nf, "")
    assert not cyk_member(nf, "([)]")
    assert cyk_member(nf, "([])()")


def test_cyk_returns_false_on_foreign_symbols():
    nf = normalize(d2_grammar())
    assert not cyk_member(nf, "(x)")


def test_cyk_epsilon_follows_nullable_flag():
    g = parse_cfg("S -> 'a' S |")
    nf = normalize(g)
    assert nf.start_nullable is True
    assert cyk_member(nf, "")
    assert cyk_member(nf, "aaa")
    assert not cyk_member(nf, "b")


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


def test_dfa_must_be_total():
    with pytest.raises(ValueError):
        Dfa(2, frozenset("ab"), {(0, "a"): 1}, 0, frozenset({1}))


def test_parse_dfa_basic():
    d = parse_dfa("dfa 2\nab\nstart 0\naccept 0\n0 a 1\n1 b 0\n0 b 0\n1 a 1")
    assert d.state_count == 2
    assert dfa_recognizer(d).member("ab")
    assert not dfa_recognizer(d).member("a")


def test_parse_dfa_completes_partial_tables_with_dead_state():
    d = parse_dfa("dfa 2\nab\nstart 0\naccept 1\n0 a 1")
    assert d.state_count == 3
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
