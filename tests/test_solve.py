"""Solvers: product BFS, grammar fixpoint, enumeration, trees, witnesses."""

import random

import pytest

from lcreach import (
    DIRECTED,
    UNDIRECTED,
    AlphabetMismatchError,
    BinarySplit,
    Cfg,
    CorruptWitnessError,
    Edge,
    ExpansionLimitExceeded,
    KindError,
    LabeledGraph,
    NoRespectingPathError,
    NotADagError,
    NotATreeError,
    Path,
    ReachTable,
    Witness,
    abstar_dfa,
    abstar_member,
    bounded_enum_reach,
    cfl_reach,
    cfl_reach_table,
    cyk_derives,
    d2_grammar,
    d2_member,
    dag_enum_reach,
    expand_witness,
    is_linear,
    iter_st_paths,
    normalize,
    parse_cfg,
    parse_graph,
    path_endpoints,
    path_yield,
    random_dag,
    random_graph,
    regular_reach,
    string_path,
    tree_reach,
)

from .helpers import fragment_graph, random_total_dfa, universal_dfa, walk_budget

D2 = d2_grammar()
D2_NF = normalize(D2)


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
    assert stats["pops"] >= 1


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

        def accepts(w, d=d):
            state = d.start
            for ch in w:
                state = d.delta[(state, ch)]
            return state in d.accepting

        enum = bounded_enum_reach(g, accepts, max_len)
        assert (found is None) == (enum is None), i
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


def test_facts_are_the_provenance_keys_not_a_copy():
    g = graph(DIRECTED, 3, [(0, 1, "("), (1, 2, ")")], 0, 2, "()")
    table = cfl_reach_table(g, D2_NF)
    assert table.facts == table.provenance.keys()
    table.provenance[(2, "S", 0)] = None
    assert (2, "S", 0) in table.facts


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
        fifo = cfl_reach_table(g, D2_NF, order="fifo")
        lifo = cfl_reach_table(g, D2_NF, order="lifo")
        assert fifo.facts == lifo.facts, i


def test_provenance_references_only_earlier_facts():
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(0, 10), "()[]")
        table = cfl_reach_table(g, D2_NF)
        position = {fact: i for i, fact in enumerate(table.provenance)}
        for fact, why in table.provenance.items():
            if isinstance(why, BinarySplit):
                assert position[why.left] < position[fact]
                assert position[why.right] < position[fact]


def test_every_fact_expands_to_a_path_its_nonterminal_derives():
    rng = random.Random(44)
    for i in range(40):
        kind = UNDIRECTED if i % 4 == 0 else DIRECTED
        g = random_graph(rng, rng.randint(2, 5), rng.randint(0, 8), "()[]", kind=kind)
        table = cfl_reach_table(g, D2_NF)
        for fact in table.facts:
            u, sym, v = fact
            p = expand_witness(Witness(fact, table), step_limit=10**6)
            assert isinstance(p, Path)
            assert path_endpoints(g, p) == (u, v)
            assert cyk_derives(D2_NF, path_yield(g, p), sym), fact


def test_solver_is_deterministic_across_runs():
    rng = random.Random(45)
    g = random_graph(rng, 6, 12, "()[]")
    t1 = cfl_reach_table(g, D2_NF)
    t2 = cfl_reach_table(g, D2_NF)
    assert t1.facts == t2.facts
    assert list(t1.provenance.items()) == list(t2.provenance.items())
    assert t1.pops == t2.pops


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
        enum = dag_enum_reach(g, d2_member)
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
            from lcreach import random_balanced_string

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
        enum = bounded_enum_reach(g, d2_member, 12)
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


def test_dangling_provenance_is_reported():
    f = (0, "S", 0)
    table = ReachTable(
        facts=frozenset([f]),
        provenance={f: BinarySplit((1, "X", 1), (2, "Y", 2))},
        pops=0,
    )
    with pytest.raises(CorruptWitnessError):
        expand_witness(Witness(f, table))


def test_cyclic_provenance_is_reported():
    f = (0, "S", 0)
    table = ReachTable(facts=frozenset([f]), provenance={f: BinarySplit(f, f)}, pops=0)
    with pytest.raises(CorruptWitnessError):
        expand_witness(Witness(f, table))


def test_missing_root_is_reported():
    table = ReachTable(facts=frozenset(), provenance={}, pops=0)
    with pytest.raises(CorruptWitnessError):
        expand_witness(Witness((9, "Z", 9), table))


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
    p = dag_enum_reach(g, d2_member)
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
    p = dag_enum_reach(g, d2_member)
    assert p is not None
    assert path_yield(g, p) == "[]"


def test_enumeration_visits_every_path_before_giving_up():
    edges = []
    for i in range(10):
        edges.append((i, i + 1, "a"))
        edges.append((i, i + 1, "b"))
    g = graph(DIRECTED, 11, edges, 0, 10, "ab")
    stats = {}
    assert dag_enum_reach(g, lambda w: False, stats=stats) is None
    assert stats["paths_examined"] == 2**10


def test_enumeration_order_is_lexicographic_in_edge_indices():
    edges = [(0, 1, "a"), (0, 1, "b"), (1, 2, "c"), (1, 2, "d")]
    g = graph(DIRECTED, 3, edges, 0, 2, "abcd")
    yields = [path_yield(g, p) for p in iter_st_paths(g)]
    assert yields == ["ac", "ad", "bc", "bd"]


def test_enumeration_requires_acyclic_graphs():
    g = graph(DIRECTED, 2, [(0, 1, "a"), (1, 0, "b")], 0, 1, "ab")
    with pytest.raises(NotADagError):
        dag_enum_reach(g, lambda w: True)


def test_enumeration_rejects_undirected_graphs():
    g = graph(UNDIRECTED, 2, [(0, 1, "a")], 0, 1, "a")
    with pytest.raises(KindError):
        dag_enum_reach(g, lambda w: True)


def test_source_equal_target_enumerates_only_the_empty_path():
    g = graph(DIRECTED, 2, [(0, 1, "a")], 0, 0, "a")
    paths = list(iter_st_paths(g))
    assert paths == [Path(0)]


# --- bounded enumeration --------------------------------------------------------------


def test_cycle_walk_is_found_within_bound():
    g = graph(DIRECTED, 2, [(0, 1, "("), (1, 0, ")")], 0, 0, "()")
    p = bounded_enum_reach(g, d2_member, 4)
    assert p is not None
    assert path_yield(g, p) == "()"


def test_bound_zero_means_only_the_empty_walk():
    g = fragment_graph("a", alphabet="a")
    assert bounded_enum_reach(g, lambda w: True, 0) is None
    g2 = graph(DIRECTED, 2, [(0, 1, "a")], 0, 0, "a")
    p = bounded_enum_reach(g2, lambda w: w == "", 0)
    assert p == Path(0)


def test_bound_is_tight():
    g = fragment_graph("()", alphabet="()")
    assert bounded_enum_reach(g, d2_member, 1) is None
    assert bounded_enum_reach(g, d2_member, 2) is not None


def test_negative_bound_is_rejected():
    g = fragment_graph("a", alphabet="a")
    with pytest.raises(ValueError):
        bounded_enum_reach(g, lambda w: True, -1)


def test_bounded_enumeration_agrees_with_exhaustive_on_dags():
    rng = random.Random(47)
    for i in range(100):
        n = rng.randint(2, 6)
        g = random_dag(rng, n, rng.randint(1, 10), "()[]")
        exhaustive = dag_enum_reach(g, d2_member)
        bounded = bounded_enum_reach(g, d2_member, n)
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
    p = bounded_enum_reach(g, d2_member, 6)
    assert p is not None
    assert path_yield(g, p) == "()"


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
