"""Solvers: product BFS, grammar fixpoint, enumeration, trees, witnesses."""

import collections.abc
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach.errors import (
    AlphabetMismatchError,
    CorruptWitnessError,
    KindError,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
)
from lcreach.generators import random_dag, random_graph, random_vc_instance
from lcreach.grammar import Cfg, Dfa, normalize, parse_cfg
from lcreach.graph import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabeledGraph,
    Path,
    Step,
    parse_graph,
    path_endpoints,
    path_yield,
)
from lcreach.languages import (
    LANG_A,
    abstar_dfa,
    abstar_member,
    builtin_language,
    d2_grammar,
    d2_member,
    dd2_grammar,
    dfa_recognizer,
    yield_recognizer,
)
from lcreach.reductions import vc_brute, vc_to_a_dagreach
from lcreach.solve import (
    ExpansionLimitExceeded,
    Witness,
    bounded_enum_reach,
    cfl_reach,
    cfl_reach_table,
    dag_enum_reach,
    expand_witness,
    iter_st_paths,
    regular_reach,
    tree_reach,
    witness_derivation,
)

from .helpers import (
    cyk_derives,
    cyk_member,
    first_accepted_walk,
    fragment_graph,
    is_linear,
    lang_a_decode_member,
    random_cfg,
    random_total_dfa,
    run_dfa,
    universal_dfa,
    walk_budget,
    worklist_facts,
)

D2 = d2_grammar()
D2_NF = normalize(D2)
D2_REC = builtin_language("d2").recognizer
DD2_NF = normalize(dd2_grammar())


def graph(kind, n, edges, s, t, alphabet):
    return LabeledGraph(kind, n, tuple(Edge(*e) for e in edges), s, t, frozenset(alphabet))


# --- regular reachability -------------------------------------------------------


def test_empty_walk_accepted_when_source_is_target():
    g = graph(DIRECTED, 2, [(0, 1, "a")], 0, 0, "ab")
    p = regular_reach(g, abstar_dfa())
    assert p == Path(0)


def test_two_step_alternating_walk():
    g = fragment_graph("ab", alphabet="ab")
    p = regular_reach(g, abstar_dfa())
    assert p is not None
    assert path_yield(g, p) == "ab"


def test_single_letter_is_rejected():
    g = fragment_graph("a", alphabet="ab")
    assert regular_reach(g, abstar_dfa()) is None


def test_returned_walk_has_minimum_length_among_accepted():
    # direct 1-step route is not accepted; 2-step route is; 4-step also exists
    g = graph(
        DIRECTED,
        4,
        [(0, 3, "a"), (0, 1, "a"), (1, 3, "b"), (0, 2, "a"), (2, 1, "b")],
        0,
        3,
        "ab",
    )
    p = regular_reach(g, abstar_dfa())
    assert p is not None
    assert len(p.steps) == 2
    assert path_yield(g, p) == "ab"


def test_alphabet_mismatch_is_an_error():
    g = fragment_graph("x", alphabet="x")
    with pytest.raises(AlphabetMismatchError):
        regular_reach(g, abstar_dfa())


def test_undirected_edges_walk_both_ways():
    g = graph(UNDIRECTED, 3, [(1, 0, "a"), (1, 2, "b")], 0, 2, "ab")
    p = regular_reach(g, abstar_dfa())
    assert p is not None
    assert path_yield(g, p) == "ab"
    # the reverse direction reads "ba", which the language rejects
    rev = LabeledGraph(UNDIRECTED, 3, g.edges, 2, 0, g.alphabet)
    assert regular_reach(rev, abstar_dfa()) is None
    # but with an all-accepting automaton the backwards walk is fine
    q = regular_reach(rev, universal_dfa("ab"))
    assert q is not None
    assert path_yield(rev, q) == "ba"


def test_stats_report_product_exploration():
    g = fragment_graph("ab", alphabet="ab")
    stats = {}
    regular_reach(g, abstar_dfa(), stats=stats)
    assert stats["states"] >= 3
    assert stats["states_examined"] >= 1


def test_product_bfs_agrees_with_bounded_walk_enumeration():
    rng = random.Random(20260817)
    positives = 0
    for i in range(100):
        if i % 2 == 0:
            alphabet, n_states, n, m = "a", rng.randint(1, 4), rng.randint(1, 6), rng.randint(0, 8)
        else:
            alphabet, n_states, n, m = "ab", 2, rng.randint(2, 4), rng.randint(1, 5)
        kind = UNDIRECTED if i % 5 == 0 else DIRECTED
        g = random_graph(rng, n, m, alphabet, kind=kind, self_loops=(n == 1))
        d = random_total_dfa(rng, n_states, alphabet)
        max_len = n * n_states
        found = regular_reach(g, d)
        accepts = partial(run_dfa, d)
        assert found == first_accepted_walk(g, accepts, max_len), i
        if found is not None:
            positives += 1
            assert accepts(path_yield(g, found))
            assert path_endpoints(g, found) == (g.source, g.target)
    assert positives > 10  # the comparison must exercise both outcomes


# --- grammar fixpoint -----------------------------------------------------------


def test_matched_pair_fact_is_derived():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    table = cfl_reach_table(g, D2_NF)
    assert (0, "S", 2) in table.facts


def test_mismatched_pair_fact_is_not_derived():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, "]")], 0, 2, "(]")
    table = cfl_reach_table(g, D2_NF)
    assert (0, "S", 2) not in table.facts


def test_facts_are_a_read_only_view_of_the_rows():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    table = cfl_reach_table(g, D2_NF)
    facts = table.facts
    assert isinstance(facts, collections.abc.Set) and not hasattr(facts, "add")
    assert facts == {(0, "_t_(", 1), (1, "_t_)", 2), (0, "S", 2)} and len(facts) == 3
    assert list(facts) == [(0, "S", 2), (0, "_t_(", 1), (1, "_t_)", 2)]
    for absent in [(2, "S", 0), (0, "Z", 2), (0, "S", -1), (9, "S", 2), ("0", "S", 2), (0, "S"), None]:
        assert absent not in facts
    facts.rows[facts.ids["S"]][2] |= 1 << 0  # membership reads the rows, not a copy
    assert (2, "S", 0) in facts


def test_edgeless_graph_yields_no_facts():
    g = graph(DIRECTED, 3, [], 0, 2, "()")
    table = cfl_reach_table(g, D2_NF)
    assert table.facts == frozenset()


def test_nullable_start_seeds_every_vertex():
    nf = normalize(parse_cfg("S -> 'a' S |"))
    g = graph(DIRECTED, 3, [], 0, 2, "a")
    table = cfl_reach_table(g, nf)
    for u in range(3):
        assert (u, "S", u) in table.facts
        assert table.born((u, "S", u)) is None  # an empty walk is never joined
    assert len(table.facts) == 3 and table.pops == 0


def test_empty_walk_facts_are_never_joined():
    # The helper _b1 -> S S of S -> S S S derives no empty walk, but joining
    # two empty walks (u, S, u) would claim (u, _b1, u).
    nf = normalize(parse_cfg("S -> S S S | '(' S ')' |"))
    assert ("_b1", "S", "S") in nf.binary_rules
    g = graph(DIRECTED, 2, [(0, 1, "(")], 0, 1, "()")
    facts = cfl_reach_table(g, nf).facts
    assert facts == {(0, "S", 0), (1, "S", 1), (0, "_t_(", 1)}
    assert facts == worklist_facts(g, nf)


def test_undirected_edges_seed_both_directions():
    g = graph(UNDIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    table = cfl_reach_table(g, D2_NF)
    assert (0, "S", 2) in table.facts
    assert (2, "S", 0) not in table.facts  # backwards reading is ")("


def test_fixpoint_rejects_foreign_graph_labels():
    g = fragment_graph("z", alphabet="z")
    with pytest.raises(AlphabetMismatchError):
        cfl_reach_table(g, D2_NF)


def test_worklist_order_does_not_change_the_fact_set():
    rng = random.Random(42)
    for i in range(30):
        kind = UNDIRECTED if i % 3 == 0 else DIRECTED
        g = random_graph(rng, rng.randint(2, 6), rng.randint(0, 10), "()[]", kind=kind)
        facts = cfl_reach_table(g, D2_NF).facts
        assert facts == worklist_facts(g, D2_NF, "fifo") == worklist_facts(g, D2_NF, "lifo"), i


def test_provenance_references_only_earlier_facts():
    # A rebuilt derivation is in the version 2 node layout, every binary
    # node splits its fact into two facts born in strictly earlier rounds,
    # and every terminal node reads the smallest (edge, reverse) spelling
    # its fact, among parallel edges and self-loops too.
    nullable_nf = normalize(parse_cfg("S -> '(' S ')' S | '[' S ']' S |"))
    rng = random.Random(43)
    roots = 0
    for i in range(40):
        kind = UNDIRECTED if i % 3 == 0 else DIRECTED
        nf = nullable_nf if i % 2 else D2_NF
        g = random_graph(rng, rng.randint(2, 6), rng.randint(0, 10), "()[]", kind=kind, self_loops=i >= 20)
        readings = (False, True) if kind == UNDIRECTED else (False,)
        table = cfl_reach_table(g, nf)
        for fact in table.facts:
            nodes = witness_derivation(Witness(fact, table))
            assert nodes[-1][:3] == fact
            if nodes[-1][3] == "e":
                assert nodes == [(*fact, "e")] and fact[1] == nf.start and fact[0] == fact[2]
                continue
            for at, node in enumerate(nodes):
                born = table.born(node[:3])
                if node[3] == "b":
                    u, a, v, _, left, right = node
                    assert left < at and right < at
                    (u1, b, w1), (w2, c, v2) = nodes[left][:3], nodes[right][:3]
                    assert (a, b, c) in nf.binary_rules and (u1, w1, v2) == (u, w2, v)
                    assert table.born((u1, b, w1)) < born and table.born((w2, c, v2)) < born
                else:
                    u, a, v, tag, edge, reverse = node
                    assert tag == "t" and born == 0 and isinstance(reverse, bool)
                    e = g.edges[edge]
                    assert (u, v) == ((e.v, e.u) if reverse else (e.u, e.v))
                    assert (a, e.label) in nf.terminal_rules
                    spelling = [
                        (x, r) for x in range(len(g.us)) for r in readings
                        if (u, v) == ((g.vs[x], g.us[x]) if r else (g.us[x], g.vs[x]))
                        and (a, g.labels[x]) in nf.terminal_rules
                    ]
                    assert (edge, reverse) == min(spelling)
        roots += (g.source, nf.start, g.target) in table.facts
    assert roots, "no reachable root was checked"


def test_every_fact_expands_to_a_path_its_nonterminal_derives():
    # Nullable grammars included: only the start symbol may spell the empty walk.
    rng = random.Random(44)
    nullable = 0
    for i in range(80):
        kind = UNDIRECTED if i % 4 == 0 else DIRECTED
        if i % 2:
            nf, alphabet = D2_NF, "()[]"
        else:
            cfg = random_cfg(rng, rng.randint(1, 4), rng.randint(1, 8), "ab", epsilon_bias=0.3)
            nf, alphabet = normalize(cfg), "".join(sorted(cfg.terminals))
            nullable += nf.start_nullable
        g = random_graph(rng, rng.randint(2, 5), rng.randint(0, 8), alphabet, kind=kind)
        table = cfl_reach_table(g, nf)
        for fact in table.facts:
            u, sym, v = fact
            p = expand_witness(Witness(fact, table), step_limit=10**6)
            assert isinstance(p, Path)
            assert path_endpoints(g, p) == (u, v)
            if p.steps:
                assert cyk_derives(nf, path_yield(g, p), sym), fact
            else:
                assert sym == nf.start and nf.start_nullable, fact
    assert nullable > 5


def test_solver_is_deterministic_across_runs():
    rng = random.Random(45)
    g = random_graph(rng, 6, 12, "()[]")
    t1 = cfl_reach_table(g, D2_NF)
    t2 = cfl_reach_table(g, D2_NF)
    assert t1.facts == t2.facts
    assert list(t1.facts) == list(t2.facts)
    assert t1.births == t2.births
    assert t1.pops == t2.pops
    for fact in t1.facts:
        assert witness_derivation(Witness(fact, t1)) == witness_derivation(Witness(fact, t2))


def test_pops_count_row_deltas_not_facts():
    rng = random.Random(46)
    for i in range(20):
        g = random_graph(rng, rng.randint(2, 8), rng.randint(0, 20), "()[]")
        table = cfl_reach_table(g, D2_NF)
        deltas = sum(len(chunks) for rows in table.births for chunks in rows.values())
        assert table.pops == deltas <= len(table.facts)


# --- grammar reachability entry point ----------------------------------------------


def test_square_pair_witness():
    g = graph(DIRECTED, 3, [(0, 1, "["), (1, 2, "]")], 0, 2, "[]")
    w = cfl_reach(g, D2)
    assert w is not None
    p = expand_witness(w)
    assert path_yield(g, p) == "[]"


def test_mismatched_chain_is_unreachable():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, "]")], 0, 2, "(]")
    assert cfl_reach(g, D2) is None


def test_empty_walk_needs_epsilon_in_the_language():
    g = graph(DIRECTED, 1, [], 0, 0, "()")
    assert cfl_reach(g, D2) is None  # the bracket language has no empty string
    nullable = parse_cfg("S -> '(' S ')' |")
    w = cfl_reach(g, nullable)
    assert w is not None
    assert expand_witness(w) == Path(0)


def test_decision_matches_exhaustive_enumeration_on_dags():
    rng = random.Random(20260817)
    agreements_reachable = 0
    for i in range(150):
        g = random_dag(rng, rng.randint(2, 6), rng.randint(1, 10), "()[]")
        w = cfl_reach(g, D2)
        enum = dag_enum_reach(g, yield_recognizer(d2_member))
        assert (w is None) == (enum is None), i
        if w is not None:
            agreements_reachable += 1
            p = expand_witness(w)
            assert isinstance(p, Path)
            assert d2_member(path_yield(g, p))
    assert agreements_reachable > 10


def test_bounded_search_success_implies_fixpoint_reachable():
    rng = random.Random(20260818)
    positives = 0
    checked = 0
    while checked < 80:
        g = random_graph(rng, rng.randint(3, 6), rng.randint(1, 6), "()[]")
        if checked % 2:
            # plant a balanced walk through random waypoints, so both
            # outcomes of the comparison actually occur; waypoint reuse
            # makes these instances cyclic
            from lcreach.generators import random_balanced_string

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
                DIRECTED, g.vertex_count, g.edges + planted, g.source, g.target, g.alphabet
            )
        if walk_budget(g, 12, cap=20000) > 20000:
            continue  # enumeration would be infeasible; redraw
        checked += 1
        enum = bounded_enum_reach(g, D2_REC, 12)
        w = cfl_reach(g, D2)
        if enum is not None:
            positives += 1
            assert w is not None, "enumeration found a walk the fixpoint missed"
        if w is not None:
            p = expand_witness(w, step_limit=10**6)
            if isinstance(p, Path):
                assert d2_member(path_yield(g, p))
                assert path_endpoints(g, p) == (g.source, g.target)
    assert positives > 5


def test_adding_an_edge_never_removes_reachability():
    rng = random.Random(46)
    for i in range(50):
        kind = UNDIRECTED if i % 4 == 0 else DIRECTED
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.randint(1, 8), "()[]", kind=kind)
        before = cfl_reach(g, D2) is not None
        u, v = rng.randrange(n), rng.randrange(n)
        extra = Edge(u, v, rng.choice("()[]"))
        bigger = LabeledGraph(kind, n, g.edges + (extra,), g.source, g.target, g.alphabet)
        after = cfl_reach(bigger, D2) is not None
        assert after or not before, i


# --- witness expansion ---------------------------------------------------------------


def _doubling_grammar(height: int) -> Cfg:
    names = [f"L{i}" for i in range(height + 1)]
    productions = [(names[i], (names[i + 1], names[i + 1])) for i in range(height)]
    productions.append((names[height], ("a",)))
    return Cfg(
        nonterminals=frozenset(names),
        terminals=frozenset("a"),
        productions=tuple(productions),
        start=names[0],
    )


def _loop_graph() -> LabeledGraph:
    return graph(DIRECTED, 1, [(0, 0, "a")], 0, 0, "a")


def test_expansion_limit_zero_trips_on_any_real_derivation():
    g = graph(DIRECTED, 3, [(0, 1, "["), (1, 2, "]")], 0, 2, "[]")
    w = cfl_reach(g, D2)
    out = expand_witness(w, step_limit=0)
    assert isinstance(out, ExpansionLimitExceeded)
    assert out.expanded_steps == 2


def test_small_witness_expands_within_limit():
    g = graph(DIRECTED, 3, [(0, 1, "["), (1, 2, "]")], 0, 2, "[]")
    w = cfl_reach(g, D2)
    p = expand_witness(w, step_limit=10)
    assert isinstance(p, Path)
    assert len(p.steps) == 2


def test_shared_derivation_expands_exponentially():
    w = cfl_reach(_loop_graph(), _doubling_grammar(30))
    assert w is not None
    out = expand_witness(w, step_limit=10**6)
    assert isinstance(out, ExpansionLimitExceeded)
    assert out.expanded_steps == 2**30
    assert out.shared_size == 31


def test_exponential_expansion_is_exact_at_the_boundary():
    w = cfl_reach(_loop_graph(), _doubling_grammar(10))
    p = expand_witness(w, step_limit=2**10)
    assert isinstance(p, Path)
    assert len(p.steps) == 1024
    assert path_yield(_loop_graph(), p) == "a" * 1024
    assert isinstance(expand_witness(w, step_limit=2**10 - 1), ExpansionLimitExceeded)


def _corrupted(table, fact, rnd):
    """``table`` with ``fact`` claimed to be born in round ``rnd``."""
    u, a, v = fact
    facts = table.facts
    facts.rows[facts.ids[a]][u] |= 1 << v
    table.births[facts.ids[a]][u] = [(rnd, 1 << v)]
    return table


def test_dangling_provenance_is_reported():
    # A fact claimed by a later round with no split into earlier facts, or
    # claimed by round 0 with no edge to read.
    g = graph(DIRECTED, 2, [(0, 1, "(")], 0, 1, "()")
    table = _corrupted(cfl_reach_table(g, D2_NF), (0, "S", 1), 1)
    with pytest.raises(CorruptWitnessError, match="no split"):
        expand_witness(Witness((0, "S", 1), table))
    table = _corrupted(cfl_reach_table(g, D2_NF), (0, "_t_)", 1), 0)
    with pytest.raises(CorruptWitnessError, match="reads no edge"):
        expand_witness(Witness((0, "_t_)", 1), table))


def test_cyclic_provenance_is_reported():
    # (0, S, 0) -> S S splits only into itself; a split must come from
    # strictly earlier rounds, so the rebuild rejects it instead of looping.
    nf = normalize(parse_cfg("S -> S S | 'a'"))
    g = graph(DIRECTED, 1, [(0, 0, "a")], 0, 0, "a")
    table = _corrupted(cfl_reach_table(g, nf), (0, "S", 0), 1)
    with pytest.raises(CorruptWitnessError, match="no split into facts born before round 1"):
        expand_witness(Witness((0, "S", 0), table))


def test_missing_root_is_reported():
    table = cfl_reach_table(graph(DIRECTED, 2, [(0, 1, "(")], 0, 1, "()"), D2_NF)
    for root in [(9, "Z", 9), (0, "S", 1), (1, "_t_(", 0)]:
        with pytest.raises(CorruptWitnessError, match="not in the table"):
            expand_witness(Witness(root, table))


def test_linear_grammars_expand_to_the_chain_length():
    grammars = [
        parse_cfg("S -> 'a' S 'b' | 'a' 'b'"),
        parse_cfg("S -> 'a' T\nT -> 'b' | 'b' S"),
    ]
    words = {0: ["ab", "aabb", "aaabbb"], 1: ["ab", "abab", "ababab"]}
    for idx, grammar in enumerate(grammars):
        assert is_linear(grammar)
        for word in words[idx]:
            g = fragment_graph(word, alphabet="ab")
            w = cfl_reach(g, grammar)
            assert w is not None, (idx, word)
            p = expand_witness(w)
            assert isinstance(p, Path)
            assert len(p.steps) == len(word)
            assert path_yield(g, p) == word


# --- enumeration on DAGs ----------------------------------------------------------


def test_chain_is_found_by_enumeration():
    g = fragment_graph("()", alphabet="()[]")
    p = dag_enum_reach(g, yield_recognizer(d2_member))
    assert p is not None
    assert path_yield(g, p) == "()"


def test_enumeration_skips_rejecting_branch():
    # two parallel chains: "(]" on earlier edge indices, "[]" later
    g = graph(
        DIRECTED,
        4,
        [(0, 1, "("), (1, 3, "]"), (0, 2, "["), (2, 3, "]")],
        0,
        3,
        "()[]",
    )
    p = dag_enum_reach(g, yield_recognizer(d2_member))
    assert p is not None
    assert path_yield(g, p) == "[]"


def test_enumeration_visits_every_path_before_giving_up():
    edges = []
    for i in range(10):
        edges.append((i, i + 1, "a"))
        edges.append((i, i + 1, "b"))
    g = graph(DIRECTED, 11, edges, 0, 10, "ab")
    stats = {}
    assert dag_enum_reach(g, yield_recognizer(lambda w: False), stats=stats) is None
    assert stats["paths_examined"] == 2**10


def test_enumeration_order_is_lexicographic_in_edge_indices():
    edges = [(0, 1, "a"), (0, 1, "b"), (1, 2, "c"), (1, 2, "d")]
    g = graph(DIRECTED, 3, edges, 0, 2, "abcd")
    pairs = list(iter_st_paths(g, yield_recognizer(bool)))
    assert [text for _, text in pairs] == ["ac", "ad", "bc", "bd"]
    assert all(path_yield(g, p) == text for p, text in pairs)


def test_enumeration_requires_acyclic_graphs():
    g = graph(DIRECTED, 2, [(0, 1, "a"), (1, 0, "b")], 0, 1, "ab")
    with pytest.raises(NotADagError):
        dag_enum_reach(g, yield_recognizer(lambda w: True))


def test_enumeration_rejects_undirected_graphs():
    g = graph(UNDIRECTED, 2, [(0, 1, "a")], 0, 1, "a")
    with pytest.raises(KindError):
        dag_enum_reach(g, yield_recognizer(lambda w: True))


def test_source_equal_target_enumerates_only_the_empty_path():
    g = graph(DIRECTED, 2, [(0, 1, "a")], 0, 0, "a")
    assert list(iter_st_paths(g, yield_recognizer(bool))) == [(Path(0), "")]


def test_enumeration_skips_the_edges_a_recognizer_declares_dead():
    # "(]" dies at edge 1 and "[)" at edge 3; only "[]" reaches the target live
    g = graph(DIRECTED, 4, [(0, 1, "("), (1, 3, "]"), (0, 2, "["), (2, 3, ")"), (2, 3, "]")], 0, 3, "()[]")
    stats = {}
    assert list(iter_st_paths(g, D2_REC)) == [(Path(0, (Step(2), Step(4))), "$")]
    assert dag_enum_reach(g, D2_REC, stats=stats) == Path(0, (Step(2), Step(4)))
    assert stats["paths_examined"] == 1
    assert list(iter_st_paths(g, dfa_recognizer(Dfa(1, frozenset("()[]"), {}, 0, frozenset())))) == []


def test_pruned_enumeration_returns_the_first_path_of_the_full_one_on_cover_dags():
    rng = random.Random(21)
    found = 0
    for i in range(80):
        n = rng.randint(1, 6)
        inst = random_vc_instance(rng, n, rng.randint(0, n * (n - 1) // 2), rng.randint(0, n))
        g = vc_to_a_dagreach(inst)
        stats, full_stats = {}, {}
        pruned = dag_enum_reach(g, LANG_A, stats=stats)
        assert pruned == dag_enum_reach(g, yield_recognizer(lang_a_decode_member), stats=full_stats), i
        assert (pruned is not None) == vc_brute(inst), i
        # a path that reaches the target live has read every cover bit, so it is accepted
        assert stats["paths_examined"] == (pruned is not None) <= full_stats["paths_examined"], i
        found += pruned is not None
    assert 0 < found < 80


def partial_dfa(seed: int) -> Dfa:
    """A random DFA over ``()[]`` missing about a third of its moves, so that some prefixes die."""
    rng = random.Random(seed)
    d = random_total_dfa(rng, 2 + seed % 3, "()[]")
    delta = {key: r for key, r in d.delta.items() if rng.random() < 0.7}
    return Dfa(d.state_count, d.alphabet, delta, d.start, d.accepting | {d.state_count - 1})


@pytest.mark.parametrize("rec, member", [(D2_REC, partial(cyk_member, D2_NF))] + [
    (dfa_recognizer(d), partial(run_dfa, d)) for d in map(partial_dfa, range(2, 7))
], ids=["d2", *(f"dfa-{seed}" for seed in range(2, 7))])
def test_pruned_enumeration_returns_the_first_path_of_the_full_one_on_random_dags(rec, member):
    rng = random.Random(22)
    for i in range(100):
        g = random_dag(rng, rng.randint(2, 7), rng.randint(1, 14), "()[]")
        stats, full_stats = {}, {}
        pruned = dag_enum_reach(g, rec, stats=stats)
        assert pruned == dag_enum_reach(g, yield_recognizer(member), stats=full_stats), i
        assert stats["paths_examined"] <= full_stats["paths_examined"], i


# --- bounded enumeration --------------------------------------------------------------


def test_cycle_walk_is_found_within_bound():
    g = graph(DIRECTED, 2, [(0, 1, "("), (1, 0, ")")], 0, 0, "()")
    p = bounded_enum_reach(g, D2_REC, 4)
    assert p is not None
    assert path_yield(g, p) == "()"


def test_bound_zero_means_only_the_empty_walk():
    g = fragment_graph("a", alphabet="a")
    assert bounded_enum_reach(g, yield_recognizer(lambda w: True), 0) is None
    g2 = graph(DIRECTED, 2, [(0, 1, "a")], 0, 0, "a")
    p = bounded_enum_reach(g2, yield_recognizer(lambda w: w == ""), 0)
    assert p == Path(0)


def test_bound_is_tight():
    g = fragment_graph("()", alphabet="()")
    assert bounded_enum_reach(g, D2_REC, 1) is None
    assert bounded_enum_reach(g, D2_REC, 2) is not None


def test_negative_bound_is_rejected():
    g = fragment_graph("a", alphabet="a")
    with pytest.raises(ValueError):
        bounded_enum_reach(g, yield_recognizer(lambda w: True), -1)


def test_bounded_enumeration_agrees_with_exhaustive_on_dags():
    rng = random.Random(47)
    for i in range(100):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, rng.randint(1, 10), "()[]")
        exhaustive = dag_enum_reach(g, yield_recognizer(d2_member))
        bounded = bounded_enum_reach(g, D2_REC, n)
        assert (exhaustive is None) == (bounded is None), i
        if bounded is not None:
            assert d2_member(path_yield(g, bounded))
            assert path_endpoints(g, bounded) == (g.source, g.target)


def test_shorter_accepted_walk_wins():
    # both "()" (length 2) and "(())" (length 4) reach the target
    g = graph(
        DIRECTED,
        4,
        [(0, 1, "("), (1, 3, ")"), (1, 2, "("), (2, 1, ")")],
        0,
        3,
        "()",
    )
    p = bounded_enum_reach(g, D2_REC, 6)
    assert p is not None
    assert path_yield(g, p) == "()"


# Each language: the labels its graphs use, an independent membership test, and
# words worth planting so that accepted walks occur.
SEARCH_LANGUAGES = {
    "d2": ("()[]", lambda w: cyk_derives(D2_NF, w, D2_NF.start), ["()", "([])", "()[]"]),
    "dd2": ("()[]abcd", lambda w: cyk_derives(DD2_NF, w, DD2_NF.start), ["(ab)", "[c(ab)d]"]),
    "abstar": ("ab", lambda w: w == "ab" * (len(w) // 2), ["ab", "abab"]),
    "lambda": ("ab", lambda w: w.count("a") == 2 * w.count("b"), ["aab", "aba"]),
}


def planted_graph(rng, kind, n, m, alphabet, word):
    """A random multigraph with self-loops, plus ``word`` spelled along random waypoints."""
    g = random_graph(rng, n, m, alphabet, kind=kind, self_loops=True)
    stops = [g.source] + [rng.randrange(n) for _ in word[1:]] + [g.target]
    planted = tuple(Edge(stops[i], stops[i + 1], ch) for i, ch in enumerate(word))
    return LabeledGraph(kind, n, g.edges + planted, g.source, g.target, g.alphabet)


@st.composite
def bounded_searches(draw):
    """A graph, a recognizer, an independent membership test, and a bound."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["d2", "dd2", "abstar", "dfa", "lambda"]))
    if name == "dfa":
        d = random_total_dfa(rng, rng.randint(1, 4), "ab")
        alphabet, member, words = "ab", partial(run_dfa, d), ["a", "ab"]
        rec = dfa_recognizer(d)
    else:
        alphabet, member, words = SEARCH_LANGUAGES[name]
        rec = yield_recognizer(member) if name == "lambda" else builtin_language(name).recognizer
    word = draw(st.sampled_from(["", *words]))  # "" plants nothing
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    g = planted_graph(rng, kind, draw(st.integers(1, 5)), draw(st.integers(0, 9)), alphabet, word)
    return g, rec, member, draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(bounded_searches())
def test_bounded_search_returns_the_oracle_walk(case):
    g, rec, member, max_len = case
    stats = {}
    found = bounded_enum_reach(g, rec, max_len, stats=stats)
    assert found == first_accepted_walk(g, member, max_len)
    assert stats["states_examined"] <= stats["states"]


@st.composite
def regular_searches(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = random_total_dfa(rng, draw(st.integers(1, 3)), "ab")
    kind = draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    g = random_graph(rng, draw(st.integers(1, 4)), draw(st.integers(0, 8)), "ab", kind=kind, self_loops=True)
    return g, d


@settings(max_examples=200, deadline=None)
@given(regular_searches())
def test_regular_reach_returns_the_oracle_walk_at_bound_n_times_q(case):
    # A shortest accepted walk never repeats a (vertex, state) pair, so it
    # has fewer than n * |Q| steps.
    g, d = case
    found = regular_reach(g, d)
    assert found == first_accepted_walk(g, partial(run_dfa, d), g.vertex_count * d.state_count)


# --- trees ---------------------------------------------------------------------------


def test_directed_path_tree_accepts_matching_walk():
    g = fragment_graph("ab", alphabet="ab")
    p = tree_reach(g, abstar_member)
    assert p is not None
    assert path_yield(g, p) == "ab"


def test_directed_path_tree_rejecting_predicate():
    g = fragment_graph("ab", alphabet="ab")
    assert tree_reach(g, d2_member) is None


def test_star_has_one_leaf_to_leaf_path():
    edges = [(0, 1, "a"), (0, 2, "b"), (0, 3, "c"), (0, 4, "d")]
    g = graph(UNDIRECTED, 5, edges, 1, 2, "abcd")
    p = tree_reach(g, lambda w: len(w) == 2)
    assert p is not None
    assert path_yield(g, p) == "ab"  # 1 -a- 0 then 0 -b- 2
    assert tree_reach(g, lambda w: w == "ba") is None


def test_tree_walk_against_edge_direction_is_impossible():
    edges = [(0, 1, "a"), (0, 2, "b")]
    g = graph(DIRECTED, 3, edges, 1, 2, "ab")
    with pytest.raises(NoRespectingPathError):
        tree_reach(g, lambda w: True)


def test_source_equal_target_tree_walk_is_empty():
    g = fragment_graph("ab", alphabet="ab")
    g = LabeledGraph(DIRECTED, 3, g.edges, 1, 1, g.alphabet)
    assert tree_reach(g, lambda w: w == "") == Path(1)
    assert tree_reach(g, lambda w: w != "") is None


def test_cycle_is_not_a_tree():
    g = graph(DIRECTED, 2, [(0, 1, "a"), (1, 0, "b")], 0, 1, "ab")
    with pytest.raises(NotATreeError):
        tree_reach(g, lambda w: True)


def test_disconnected_forest_is_not_a_tree():
    g = graph(DIRECTED, 4, [(0, 1, "a"), (0, 1, "b"), (2, 3, "a")], 0, 3, "ab")
    with pytest.raises(NotATreeError):
        tree_reach(g, lambda w: True)


def test_self_loop_is_not_a_tree():
    g = graph(DIRECTED, 2, [(0, 0, "a")], 0, 1, "a")
    with pytest.raises(NotATreeError):
        tree_reach(g, lambda w: True)


def test_undirected_tree_path_between_any_two_vertices():
    edges = [(0, 1, "x"), (1, 2, "y"), (1, 3, "z")]
    g = graph(UNDIRECTED, 4, edges, 2, 3, "xyz")
    p = tree_reach(g, lambda w: True)
    assert p is not None
    assert path_yield(g, p) == "yz"
    assert path_endpoints(g, p) == (2, 3)
