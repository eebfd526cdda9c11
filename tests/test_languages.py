"""Built-in recognizers: brackets, doubled brackets, block choice, covers."""

import itertools
import random

import pytest

from lcreach.errors import BlockSyntaxError
from lcreach.grammar import normalize
from lcreach.languages import (
    BUILTIN_NAMES,
    LANG_A,
    Language,
    abstar_dfa,
    abstar_member,
    adjacency_bits,
    builtin_language,
    d2_grammar,
    d2_member,
    dd2_grammar,
    dd2_member,
    dfa_recognizer,
    lang_a_member,
    nbc_d2_member,
    parse_nbc,
)
from lcreach.reductions import VcInstance, vc_brute

from .helpers import (
    all_vc_instances,
    cyk_member,
    dd2_decode_member,
    encode_lang_a,
    lang_a_decode_member,
    language_upto,
    parse_lang_a,
    random_total_dfa,
    run_dfa,
    strings_over,
)


# --- plain brackets -----------------------------------------------------------


def test_bracket_matcher_basics():
    assert d2_member("()")
    assert not d2_member("")
    assert d2_member("([])()")
    assert not d2_member("([)]")
    assert not d2_member("(")
    assert not d2_member(")(")


def test_bracket_matcher_treats_foreign_symbols_as_nonmembers():
    assert not d2_member("(x)")
    assert not d2_member("ab")


def test_bracket_grammar_shape():
    g = d2_grammar()
    assert len(g.productions) == 5
    assert g.terminals == frozenset("()[]")
    assert not cyk_member(normalize(g), "")


def test_bracket_matcher_agrees_with_parser_on_short_strings():
    nf = normalize(d2_grammar())
    for length in range(0, 8):
        for w in strings_over("()[]", length):
            assert d2_member(w) == cyk_member(nf, w), w


# --- doubled brackets -----------------------------------------------------------


def test_doubled_bracket_examples():
    assert dd2_member("(ab)")
    assert dd2_member("(a[cd]b)")
    assert not dd2_member("(ba)")
    assert not dd2_member("")
    assert not dd2_member("(ab")
    assert not dd2_member("(axb)")


def test_doubled_bracket_grammar_shape():
    g = dd2_grammar()
    assert len(g.productions) == 5
    assert g.terminals == frozenset("()[]abcd")


def test_doubled_brackets_agree_with_pair_decoding():
    rng = random.Random(13)
    symbols = "()[]abcd"
    members = sorted(language_upto(dd2_grammar(), 12))
    checked = 0
    for w in members:
        assert dd2_member(w) == dd2_decode_member(w) == True, w
        checked += 1
    while checked < 1000:
        if rng.random() < 0.4 and members:
            # mutate a member: usually breaks membership, sometimes not
            w = list(rng.choice(members))
            w[rng.randrange(len(w))] = rng.choice(symbols)
            w = "".join(w)
        else:
            w = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 12)))
        assert dd2_member(w) == dd2_decode_member(w), w
        checked += 1


def test_doubled_bracket_matcher_equals_cyk_up_to_length_5():
    nf = normalize(dd2_grammar())
    for length in range(6):
        for w in strings_over("()[]abcdx", length):  # x is foreign
            assert dd2_member(w) == cyk_member(nf, w), w


# --- online recognizer states ---------------------------------------------------


def state_after(rec, w):
    """The state ``rec`` reaches on ``w``, or None once it is dead."""
    state = rec.start
    for ch in w:
        state = rec.step(state, ch)
        if state is None:
            return None
    return state


def dfa_members(d, max_len):
    alphabet = "".join(d.alphabet)
    return {w for k in range(max_len + 1) for w in strings_over(alphabet, k) if run_dfa(d, w)}


def random_dfas():
    return [random_total_dfa(random.Random(seed), 1 + seed % 4, "ab") for seed in range(8)]


@pytest.mark.parametrize(
    "rec, alphabet, members, prefix_len, suffix_len",
    [
        (builtin_language("d2").recognizer, "()[]", language_upto(d2_grammar(), 10), 5, 5),
        (builtin_language("dd2").recognizer, "()[]abcd", language_upto(dd2_grammar(), 8), 4, 4),
        (builtin_language("abstar").recognizer, "ab", {"ab" * i for i in range(7)}, 6, 6),
    ]
    + [(dfa_recognizer(d), "ab", dfa_members(d, 10), 5, 5) for d in random_dfas()],
)
def test_inputs_in_one_state_get_one_verdict_on_every_suffix(rec, alphabet, members, prefix_len, suffix_len):
    # ``members`` holds every member of length up to prefix_len + suffix_len,
    # from a source that shares no code with the recognizer.
    heads = {w[:i] for w in members for i in range(len(w) + 1)}
    suffixes = [s for k in range(suffix_len + 1) for s in strings_over(alphabet, k)]
    verdicts: dict = {}
    for length in range(prefix_len + 1):
        for u in strings_over(alphabet + "x", length):  # x is foreign
            state = state_after(rec, u)
            if state is None:  # dead: no member starts with u
                assert u not in heads, u
                continue
            assert u in heads, u  # live: some member within the bound starts with u
            assert rec.accepts(state) == (u in members), u
            row = tuple(u + s in members for s in suffixes)
            assert verdicts.setdefault(state, row) == row, u


def test_empty_input_and_a_bracket_pair_are_different_d2_states():
    rec = builtin_language("d2").recognizer
    assert state_after(rec, "") != state_after(rec, "()")
    assert not rec.accepts(state_after(rec, "")) and rec.accepts(state_after(rec, "()"))
    assert not d2_member("") and d2_member("()") and d2_member("()()")


# --- alternating pairs ------------------------------------------------------------


def test_alternating_pair_language():
    d = dfa_recognizer(abstar_dfa())
    assert d.member("abab")
    assert not d.member("ba")
    assert abstar_member("")
    assert abstar_member("ab")
    assert not abstar_member("a")
    assert not abstar_member("abx")  # foreign symbol, total recognizer


def test_alternating_pair_dfa_matches_direct_recognizer():
    d = dfa_recognizer(abstar_dfa())
    for length in range(0, 10):
        for w in strings_over("abx", length):
            assert d.member(w) == abstar_member(w) == (w == "ab" * (length // 2)), w


# --- block choice ------------------------------------------------------------------


def test_block_free_string_reduces_to_bracket_matching():
    assert nbc_d2_member("()")
    assert not nbc_d2_member("(]")


def test_block_choice_picks_the_balancing_option():
    assert nbc_d2_member("({(#)}")
    assert not nbc_d2_member("{(#(}")


def test_block_choice_searches_all_combinations():
    # choices ( or [ then ) or ]: both matched pairs exist
    assert nbc_d2_member("{(#[}{)#]}")
    # every combination of ( or [ twice stays unbalanced
    assert not nbc_d2_member("{(#[}{(#[}")


def test_block_syntax_violations_raise():
    with pytest.raises(BlockSyntaxError):
        nbc_d2_member("{()}")  # no '#'
    with pytest.raises(BlockSyntaxError):
        nbc_d2_member("{(#)")  # unclosed
    with pytest.raises(BlockSyntaxError):
        nbc_d2_member("{{(#)}}")  # nested brace
    with pytest.raises(BlockSyntaxError):
        nbc_d2_member("{(#)}()")  # content after a block
    with pytest.raises(BlockSyntaxError):
        nbc_d2_member("(a{(#)}")  # foreign symbol in prefix


def test_parse_nbc_structure():
    prefix, blocks = parse_nbc("(({)#]}{)#)}")
    assert prefix == "(("
    assert blocks == ((")", "]"), (")", ")"))
    assert parse_nbc("()") == ("()", ())
    assert parse_nbc("{##}") == ("", (("", "", ""),))


def test_registry_recognizer_is_total_for_block_strings():
    member = builtin_language("nbc-d2").member
    assert member("({(#)}")
    assert not member("{()}")  # malformed, not an error


def test_builtin_registry_names():
    assert set(BUILTIN_NAMES) == {"d2", "dd2", "nbc-d2", "lang-a", "abstar"}
    for name in BUILTIN_NAMES:
        lang = builtin_language(name)
        assert builtin_language(name) is lang  # built once per process
        assert callable(lang.member)
    assert builtin_language("abstar").dfa is not None
    # the bracket languages carry their normal form, which proves their cfl witnesses
    assert builtin_language("d2").normal_form == normalize(d2_grammar())
    assert builtin_language("dd2").normal_form == normalize(dd2_grammar())
    assert not hasattr(builtin_language("d2"), "grammar")
    assert all(builtin_language(name).normal_form is None for name in ("nbc-d2", "lang-a", "abstar"))
    assert isinstance(builtin_language("d2"), Language)


# --- cover certificates --------------------------------------------------------------


def test_cover_certificate_examples():
    assert lang_a_member("10#1#1#0")
    assert not lang_a_member("10#1#0#0")
    assert lang_a_member("00#0#0#0")


def test_malformed_certificates_are_nonmembers_not_errors():
    for w in ("", "#", "01#1#1#0", "10#11#1#0", "10#1#1", "10#1#1#0#0", "1x#1#1#0", "10#1#10#0"):
        assert lang_a_member(w) is False, w


def test_adjacency_bits_row_major_order():
    # pairs in order (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    bits = adjacency_bits(4, {(1, 2), (2, 4), (3, 4)})
    assert bits == "100011"
    assert adjacency_bits(1, set()) == ""


def test_certificate_bits_sit_at_odd_positions():
    w = encode_lang_a(3, 1, {(1, 2)}, "100")
    tail = w.split("#", 2)[2]
    for i in range(1, 4):
        assert tail[2 * i - 2] in "01"  # 1-indexed symbol 2i-1
    assert tail == "1#0#0"


def test_parse_inverts_encode():
    view = parse_lang_a(encode_lang_a(4, 2, {(1, 2), (3, 4)}, "1010"))
    assert view is not None
    assert view.n == 4
    assert view.k == 2
    assert view.adjacency == "100001"
    assert view.cover_bits == "1010"


def test_certificates_match_cover_checking_exhaustively():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(pairs)):
            edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
            for k in range(n + 1):
                for cover_bits in itertools.product("01", repeat=n):
                    chosen = {i + 1 for i in range(n) if cover_bits[i] == "1"}
                    is_cover = all(i in chosen or j in chosen for i, j in edges)
                    expected = is_cover and len(chosen) <= k
                    w = encode_lang_a(n, k, edges, "".join(cover_bits))
                    assert lang_a_member(w) == expected, (n, k, edges, cover_bits)


def test_certificate_membership_implies_brute_force_satisfiability():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = {p for p in pairs if rng.random() < 0.4}
        k = rng.randint(0, n)
        inst = VcInstance(n, frozenset(edges), k)
        any_member = any(
            lang_a_member(encode_lang_a(n, k, edges, "".join(bits)))
            for bits in itertools.product("01", repeat=n)
        )
        assert any_member == vc_brute(inst)


# --- the cover-certificate recognizer --------------------------------------------------


def certificates(max_n):
    """``encode_lang_a`` of every vertex-cover instance with n <= max_n, under every cover-bit string."""
    for inst in all_vc_instances(max_n):
        for bits in itertools.product("01", repeat=inst.n):
            yield encode_lang_a(inst.n, inst.k, inst.edges, "".join(bits))


def test_lang_a_fold_agrees_with_the_decoder_on_every_short_string():
    members = 0
    for length in range(10):
        for w in strings_over("01#", length):
            assert lang_a_member(w) == lang_a_decode_member(w), w
            members += lang_a_member(w)
    assert members > 0


def test_lang_a_fold_agrees_with_the_decoder_on_every_small_certificate():
    members = 0
    for w in certificates(4):
        assert lang_a_member(w) == lang_a_decode_member(w), w
        members += lang_a_member(w)
    assert 0 < members


def test_every_prefix_of_a_lang_a_member_is_live():
    short = (w for length in range(10) for w in strings_over("01#", length))
    for w in itertools.chain(short, certificates(4)):
        if lang_a_decode_member(w):
            assert all(state_after(LANG_A, w[:i]) is not None for i in range(len(w))), w


@pytest.mark.parametrize("w", [
    "#",  # an empty budget
    "01",  # a 1 after a 0 in the budget
    "1x",  # a foreign symbol
    "1#1",  # an adjacency run longer than n(n-1)/2 = 0
    "11#11",  # longer than 1
    "11##",  # a run shorter than 1 ends
    "11#0##",  # an empty cover piece
    "11#0#11",  # a cover piece of two bits
    "1##1#",  # a cover piece after the last vertex
    "10#0#1#1",  # more than k ones
    "11#1#0#0",  # a 0 bit for a vertex whose earlier neighbour's bit is 0
])
def test_lang_a_declares_a_prefix_dead_at_its_last_symbol(w):
    assert state_after(LANG_A, w[:-1]) is not None
    assert state_after(LANG_A, w) is None
    assert not any(lang_a_decode_member(w + s) for length in range(7) for s in strings_over("01#", length))


def test_lang_a_prefixes_in_one_state_accept_the_same_suffixes():
    # Group the live prefixes of small certificates and of short strings by
    # state; each group's prefixes must agree on the tails that follow any
    # of them in a certificate, and on every short suffix.
    strings = [*certificates(3), *(w for length in range(8) for w in strings_over("01#", length))]
    groups: dict = {}
    for w in strings:
        for i in range(len(w) + 1):
            state = state_after(LANG_A, w[:i])
            if state is None:
                break
            heads, tails = groups.setdefault(state, (set(), set()))
            heads.add(w[:i])
            tails.add(w[i:])
    short = [s for length in range(4) for s in strings_over("01#", length)]
    shared = 0
    for state, (heads, tails) in groups.items():
        if len(heads) < 2:
            continue
        shared += 1
        suffixes = sorted(tails) + short
        rows = {tuple(lang_a_decode_member(u + s) for s in suffixes) for u in heads}
        assert len(rows) == 1, sorted(heads)
        assert LANG_A.accepts(state) == lang_a_decode_member(min(heads))
    assert shared > 10  # the test groups distinct prefixes
