"""Graph data model, path machinery, and the graph file format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcreach import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    InvalidPathError,
    KindError,
    LabeledGraph,
    ParseError,
    Path,
    SemanticError,
    Step,
    adjacency,
    is_dag,
    parse_graph,
    path_endpoints,
    path_yield,
    random_dag,
    random_graph,
    render_graph,
)

from .helpers import fragment_graph, has_directed_cycle


# --- construction and validation ---------------------------------------------


def test_vertex_ids_must_be_in_range():
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, (Edge(0, 5, "a"),), 0, 1, frozenset("a"))
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, (), 0, 2, frozenset("a"))


def test_edge_labels_must_be_declared():
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, (Edge(0, 1, "z"),), 0, 1, frozenset("a"))


def test_undirected_edges_are_stored_canonically():
    g = LabeledGraph(UNDIRECTED, 3, (Edge(2, 1, "x"),), 0, 2, frozenset("x"))
    assert g.edges[0] == Edge(1, 2, "x")


def test_labels_are_single_printable_symbols():
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, (Edge(0, 1, "ab"),), 0, 1, frozenset(["ab"]))
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, (Edge(0, 1, " "),), 0, 1, frozenset(" "))


def test_parallel_edges_and_self_loops_are_allowed():
    g = LabeledGraph(
        DIRECTED,
        2,
        (Edge(0, 1, "a"), Edge(0, 1, "b"), Edge(0, 0, "a")),
        0,
        1,
        frozenset("ab"),
    )
    assert len(g.edges) == 3


# --- file format ---------------------------------------------------------------


def test_parse_minimal_file():
    g = parse_graph("directed 2 1\na\n0 1 a\n0 1")
    assert g.kind == DIRECTED
    assert g.vertex_count == 2
    assert g.edges == (Edge(0, 1, "a"),)
    assert (g.source, g.target) == (0, 1)
    assert g.alphabet == frozenset("a")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(SemanticError):
        parse_graph("directed 2 1\na\n0 5 a\n0 1")


def test_parse_rejects_undeclared_label():
    with pytest.raises(SemanticError):
        parse_graph("directed 2 1\na\n0 1 z\n0 1")


def test_parse_rejects_duplicate_alphabet_chars():
    with pytest.raises(ParseError):
        parse_graph("directed 2 1\naa\n0 1 a\n0 1")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ParseError):
        parse_graph("directed 2 2\na\n0 1 a\n0 1")


def test_parse_rejects_missing_source_target():
    with pytest.raises(ParseError):
        parse_graph("directed 2 1\na\n0 1 a")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_graph("directed 2 1\na\n0 1 zebra\n0 1")
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "edge_lines, message",
    [
        ("0 1 a\n1 +0 a\n1 0 a", "line 4: edge endpoints must be integers"),
        ("0 1 a\n1 0_0 a\n1 0 ab", "line 4: edge endpoints must be integers"),
        ("1 \u0660 aa\n0 1 a\n1 0", "line 3: edge endpoints must be integers"),
        ("0 1 a\n1 0 ab\n1 +0 a", "line 4: edge label must be a single character"),
    ],
)
def test_bad_endpoints_are_reported_at_the_first_faulty_line(edge_lines, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_graph(f"directed 2 3\na\n{edge_lines}\n0 1\n")


def test_plus_and_underscore_labels_keep_integer_endpoints():
    text = "undirected 12 2\n+_\n0 11 +\n10 1 _\n-0 11\n"
    g = parse_graph(text)
    assert g.edges == (Edge(0, 11, "+"), Edge(1, 10, "_")) and (g.source, g.target) == (0, 11)
    with pytest.raises(ParseError, match="^line 4: edge endpoints must be integers$"):
        parse_graph(text.replace("10 1", "1_0 1"))


def test_dag_kind_parses_as_directed_when_acyclic():
    g = parse_graph("dag 2 1\na\n0 1 a\n0 1")
    assert g.kind == DIRECTED


def test_dag_kind_rejects_cycles():
    with pytest.raises(SemanticError):
        parse_graph("dag 2 2\na\n0 1 a\n1 0 a\n0 1")


def test_parse_render_round_trip_on_random_graphs():
    rng = random.Random(20260817)
    for i in range(200):
        kind = UNDIRECTED if i % 3 == 0 else DIRECTED
        n = rng.randint(2, 10)
        g = random_graph(
            rng,
            n,
            rng.randint(0, 15),
            rng.choice(["ab", "()[]", "01#", "xyz"]),
            kind=kind,
            self_loops=(i % 5 == 0),
        )
        assert parse_graph(render_graph(g)) == g


def test_render_ends_with_newline_and_parses_without_it():
    g = parse_graph("directed 2 1\na\n0 1 a\n0 1\n")
    text = render_graph(g)
    assert text.endswith("\n")
    assert parse_graph(text.rstrip("\n")) == g


# --- is_dag --------------------------------------------------------------------


def test_single_edge_is_a_dag():
    g = fragment_graph("a")
    order = is_dag(g)
    assert order is not None
    assert list(order) == [0, 1]


def test_two_cycle_is_not_a_dag():
    g = LabeledGraph(DIRECTED, 2, (Edge(0, 1, "a"), Edge(1, 0, "a")), 0, 1, frozenset("a"))
    assert is_dag(g) is None


def test_self_loop_is_a_cycle():
    g = LabeledGraph(DIRECTED, 1, (Edge(0, 0, "a"),), 0, 0, frozenset("a"))
    assert is_dag(g) is None


def test_is_dag_rejects_undirected_graphs():
    g = LabeledGraph(UNDIRECTED, 2, (Edge(0, 1, "a"),), 0, 1, frozenset("a"))
    with pytest.raises(KindError):
        is_dag(g)


def test_forward_sampled_dags_get_a_consistent_order():
    rng = random.Random(7)
    for _ in range(50):
        g = random_dag(rng, rng.randint(2, 8), rng.randint(0, 12), "ab")
        order = is_dag(g)
        assert order is not None
        position = {v: i for i, v in enumerate(order)}
        assert sorted(position) == list(range(g.vertex_count))
        for e in g.edges:
            assert position[e.u] < position[e.v]


def test_is_dag_agrees_with_walk_enumeration_cycle_search():
    rng = random.Random(99)
    for i in range(200):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.randint(0, 12), "ab", self_loops=(n == 1 or i % 2 == 0))
        assert (is_dag(g) is None) == has_directed_cycle(g)


# --- paths and yields ------------------------------------------------------------


def test_empty_path_has_empty_yield():
    g = fragment_graph("ab")
    p = Path(0)
    assert path_yield(g, p) == ""
    assert path_endpoints(g, p) == (0, 0)


def test_directed_chain_yield():
    g = fragment_graph("ab")
    p = Path(0, (Step(0), Step(1)))
    assert path_yield(g, p) == "ab"
    assert path_endpoints(g, p) == (0, 2)


def test_undirected_edge_reads_same_label_backwards():
    g = LabeledGraph(UNDIRECTED, 2, (Edge(0, 1, "a"),), 0, 1, frozenset("a"))
    assert path_yield(g, Path(1, (Step(0, reverse=True),))) == "a"
    assert path_endpoints(g, Path(1, (Step(0, reverse=True),))) == (1, 0)


def test_paths_may_repeat_edges_and_vertices():
    g = LabeledGraph(UNDIRECTED, 2, (Edge(0, 1, "a"),), 0, 1, frozenset("a"))
    p = Path(0, (Step(0), Step(0, reverse=True), Step(0)))
    assert path_yield(g, p) == "aaa"
    assert path_endpoints(g, p) == (0, 1)


def test_non_incident_steps_are_rejected():
    g = fragment_graph("ab")
    with pytest.raises(InvalidPathError):
        path_yield(g, Path(0, (Step(1),)))


def test_bad_edge_index_is_rejected():
    g = fragment_graph("a")
    with pytest.raises(InvalidPathError):
        path_yield(g, Path(0, (Step(5),)))


def test_reverse_traversal_of_directed_edge_is_rejected():
    g = fragment_graph("a")
    with pytest.raises(InvalidPathError):
        path_yield(g, Path(1, (Step(0, reverse=True),)))


@settings(max_examples=100)
@given(st.data())
def test_yield_length_equals_step_count(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 10), "ab", self_loops=True)
    # random walk of bounded length along the adjacency structure
    adj = adjacency(g)
    at = g.source
    steps = []
    for _ in range(data.draw(st.integers(0, 12))):
        options = adj[at]
        if not options:
            break
        idx, head, _, rev = rng.choice(options)
        steps.append(Step(idx, rev))
        at = head
    p = Path(g.source, tuple(steps))
    assert len(path_yield(g, p)) == len(p.steps)


# --- fragment_graph ---------------------------------------------------------------


def test_fragment_spells_its_word():
    rng = random.Random(4)
    for _ in range(50):
        length = rng.randint(0, 20)
        word = "".join(rng.choice("()[]ab01#") for _ in range(length))
        g = fragment_graph(word)
        p = Path(0, tuple(Step(i) for i in range(len(word))))
        assert path_yield(g, p) == word
        assert path_endpoints(g, p) == (0, len(word))


def test_fragment_has_exactly_one_source_target_path():
    from lcreach import iter_st_paths

    g = fragment_graph("()[]")
    [(p, text)] = list(iter_st_paths(g))
    assert text == path_yield(g, p) == "()[]"
