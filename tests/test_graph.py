"""Graph data model, path machinery, and the graph file format."""

import gc
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcreach import graph
from lcreach.errors import InvalidPathError, InvariantError, KindError, ParseError, SemanticError
from lcreach.generators import random_dag, random_graph
from lcreach.graph import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabeledGraph,
    Path,
    Step,
    edge_ends,
    is_dag,
    parse_graph,
    path_endpoints,
    path_yield,
    render_graph,
)
from lcreach.reductions import reach_to_abstar_ureach

from .helpers import (
    check_edges_per_edge,
    edge_lists,
    fragment_graph,
    has_directed_cycle,
    moves,
    parse_graph_per_line,
)


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
    g = LabeledGraph(UNDIRECTED, 3, (Edge(2, 1, "x"), Edge(0, 2, "x")), 0, 2, frozenset("x"))
    assert tuple(g.edges) == (Edge(1, 2, "x"), Edge(0, 2, "x"))
    assert all(type(e) is Edge for e in g.edges)


@pytest.mark.parametrize(
    "args, field",
    [
        ((DIRECTED, 2, (Edge(0.5, 1, "("),), 0, 1.0, "()"), "edges"),
        ((DIRECTED, 2, (Edge(True, 1, "("),), 0, 1, "()"), "edges"),
        ((UNDIRECTED, 2, (Edge(1, 0, "("), Edge(1, False, "(")), 0, 1, "()"), "edges"),
        ((DIRECTED, 2, (), 0, 1.0, "()"), "target"),
        ((DIRECTED, 2, (), True, 1, "()"), "source"),
        ((DIRECTED, 2.0, (), 0, 1, "()"), "vertex_count"),
        ((DIRECTED, True, (), 0, 0, "()"), "vertex_count"),
    ],
    ids=["float endpoint", "bool endpoint", "bool in a later edge", "float target", "bool source",
         "float vertex count", "bool vertex count"],
)
def test_vertices_must_be_ints(args, field):
    with pytest.raises(InvariantError) as exc:
        LabeledGraph(*args)
    assert exc.value.field == field


def test_the_first_edge_at_fault_is_named():
    edges = (Edge(0, 1, "a"), Edge(0, 7, "a"), Edge(0.5, 1, "z"))
    with pytest.raises(InvariantError, match="^vertex id out of range in edge 0 7$") as exc:
        LabeledGraph(DIRECTED, 2, edges, 0, 1, "a")
    assert (exc.value.field, exc.value.index) == ("edges", 1)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([DIRECTED, UNDIRECTED]),
    st.integers(1, 4),
    st.lists(st.tuples(
        st.one_of(st.integers(-2, 5), st.booleans()),
        st.one_of(st.integers(-2, 5), st.booleans()),
        st.sampled_from(["a", "%", "c", "a%", ""]),
    ), max_size=8),
)
def test_both_constructors_check_edges_as_the_per_edge_loop_does(kind, n, edges):
    """Bools, negative and out-of-range ids, foreign and multi-character labels, and a ``%`` label."""
    try:
        expected = check_edges_per_edge(kind, n, edges, frozenset("a%"))
    except InvariantError as exc:
        expected = (str(exc), exc.field, exc.index)
    us, vs, labels = ([e[i] for e in edges] for i in range(3))
    if all(len(label) == 1 for label in labels):
        labels = "".join(labels)  # the usual label column
    built = []
    for build in (
        lambda: LabeledGraph(kind, n, edges, 0, n - 1, "a%"),
        lambda: LabeledGraph.from_columns(kind, n, us, vs, labels, 0, n - 1, "a%"),
    ):
        try:
            g = build()
        except InvariantError as exc:
            assert (str(exc), exc.field, exc.index) == expected
            continue
        assert tuple(g.edges) == expected and all(type(e) is Edge for e in g.edges)
        assert parse_graph(render_graph(g)) == g
        built.append(g)
    assert len(built) in (0, 2) and built[:1] == built[1:]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([DIRECTED, UNDIRECTED]), st.integers(1, 5), st.data())
def test_column_checks_name_the_edge_the_per_edge_loop_names(kind, n, data):
    """Valid ids, undirected ones often swapped, with up to three bools, floats, negative or
    out-of-range ids put in: the fault of the first edge at fault, or the edges as stored."""
    ends = data.draw(st.lists(st.integers(0, n - 1), max_size=16).map(lambda ids: ids[:len(ids) // 2 * 2]))
    for i in data.draw(st.lists(st.integers(0, len(ends) - 1), max_size=3) if ends else st.just([])):
        ends[i] = data.draw(st.sampled_from([True, False, 0.0, 1.5, -1, -7, n, n + 4]), label="fault")
    us, vs = ends[0::2], ends[1::2]
    try:
        expected = check_edges_per_edge(kind, n, [(u, v, "a") for u, v in zip(us, vs)], frozenset("a"))
    except InvariantError as exc:
        expected = (str(exc), exc.field, exc.index)
    try:
        g = LabeledGraph.from_columns(kind, n, us, vs, "a" * len(us), 0, n - 1, "a")
    except InvariantError as exc:
        assert (str(exc), exc.field, exc.index) == expected
    else:
        assert tuple(g.edges) == expected


def test_edges_view_builds_edges_from_the_columns():
    g = LabeledGraph.from_columns(UNDIRECTED, 3, [2, 0], [1, 2], "xy", 0, 2, "xy")
    assert (g.us, g.vs, g.labels) == ((1, 0), (2, 2), "xy")
    assert len(g.edges) == 2 and g.edges[-1] == Edge(0, 2, "y")
    assert list(g.edges) == [Edge(1, 2, "x"), Edge(0, 2, "y")] and Edge(0, 2, "y") in g.edges
    with pytest.raises(InvariantError, match="^the edge columns differ in length$"):
        LabeledGraph.from_columns(DIRECTED, 3, [0, 1], [1], "xy", 0, 2, "xy")


@pytest.mark.parametrize("edges", [[(0, 1, "a"), (0, 1, "a", "b")], [(0, 1, "a"), (0, 1)], [(0, 1)]])
def test_edges_must_be_triples(edges):
    with pytest.raises(ValueError):
        LabeledGraph(DIRECTED, 2, edges, 0, 1, "ab")


def test_parsed_and_reduced_graphs_keep_no_tracked_object_per_edge():
    """Each full collection walks every object the collector tracks."""
    text = render_graph(random_graph(random.Random(5), 1000, 5000, "ab"))
    gc.collect()
    before = len(gc.get_objects())
    g = parse_graph(text)
    reduced = reach_to_abstar_ureach(g)
    gc.collect()
    assert len(gc.get_objects()) - before <= 10
    assert len(reduced.edges) == 2 * len(g.edges) == 10_000


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
    assert tuple(g.edges) == (Edge(0, 1, "a"),)
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
    assert tuple(g.edges) == (Edge(0, 11, "+"), Edge(1, 10, "_")) and (g.source, g.target) == (0, 11)
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([DIRECTED, UNDIRECTED]), st.integers(1, 6), st.data())
def test_random_multigraphs_round_trip(kind, n, data):
    """Self-loops, parallel edges, no edges at all, and digit labels."""
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex, st.sampled_from("01()")), max_size=12))
    g = LabeledGraph(kind, n, tuple(Edge(*e) for e in edges), data.draw(vertex), data.draw(vertex), "01()")
    text = render_graph(g)
    assert parse_graph(text) == g == parse_graph_per_line(text)
    assert all(type(e) is Edge for e in parse_graph(text).edges)


# One fault per kind, as an edge line built from the edge it replaces.
LINE_FAULTS = {
    "token count": lambda u, v, label, n: f"{u} {v}",
    "extra token": lambda u, v, label, n: f"{u} {v} {label} {label}",
    "blank line": lambda u, v, label, n: "",
    "non-integer": lambda u, v, label, n: f"{u} {v}.0 {label}",
    "non-ASCII digit": lambda u, v, label, n: f"\u0661 {v} {label}",
    "two-character label": lambda u, v, label, n: f"{u} {v} {label}{label}",
}
SEMANTIC_FAULTS = {
    "out-of-range endpoint": lambda u, v, label, n: f"{u} {n} {label}",
    "negative endpoint": lambda u, v, label, n: f"-1 {v} {label}",
    "foreign label": lambda u, v, label, n: f"{u} {v} z",
    "NUL label": lambda u, v, label, n: f"{u} {v} \0",
}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(sorted(LINE_FAULTS) + sorted(SEMANTIC_FAULTS) + ["line shape after a semantic fault"]),
    st.sampled_from([DIRECTED, UNDIRECTED]),
    st.data(),
)
def test_one_fault_in_a_long_file_is_named_as_the_per_line_oracle_names_it(seed, fault, kind, data):
    rng = random.Random(seed)
    n, m = 50, 2000
    g = random_graph(rng, n, m, "ab()", kind=kind, self_loops=True)
    lines = render_graph(g).splitlines()
    for i in rng.sample(range(2, m + 2), 100):  # edge lines with tabs and runs of spaces
        lines[i] = rng.choice([" ", "  ", "\t", " \t "]).join(lines[i].split())
    at = data.draw(st.integers(0, m - 2), label="faulty edge")
    injectors = {**LINE_FAULTS, **SEMANTIC_FAULTS}
    if fault in injectors:
        lines[2 + at] = injectors[fault](*g.edges[at], n)
    else:
        later = data.draw(st.integers(at + 1, m - 1), label="later edge")
        lines[2 + at] = rng.choice(list(SEMANTIC_FAULTS.values()))(*g.edges[at], n)
        lines[2 + later] = rng.choice(list(LINE_FAULTS.values()))(*g.edges[later], n)
        at = later
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as got:
        parse_graph(text)
    with pytest.raises(ParseError) as want:
        parse_graph_per_line(text)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert str(got.value).startswith(f"line {3 + at}: ")


@pytest.mark.parametrize(
    "edge_lines, message",
    [
        ("0 1\n\0 0 1 a", "line 3: edge line must be '<u> <v> <label>'"),
        ("0 1 \0\n0 1 a", "line 3: label '\\x00' is not in the declared alphabet"),
    ],
)
def test_nul_tokens_do_not_hide_line_shapes(edge_lines, message):
    """A NUL is no whitespace, so the line is no shape the byte pass reads, and a NUL label is no alphabet byte."""
    text = f"directed 2 2\na\n{edge_lines}\n0 1\n"
    for parse in (parse_graph, parse_graph_per_line):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_a_long_file_parses_as_the_per_line_oracle_parses_it():
    """All its edge lines are read by one pass over their bytes."""
    g = random_graph(random.Random(5), 300, 9000, "ab()", kind=UNDIRECTED, self_loops=True)
    text = render_graph(g)
    assert parse_graph(text) == g == parse_graph_per_line(text)


# Tokens that int reads, that it refuses, that a JSON read of comma-joined tokens could misread, NUL, the
# bytes that stand in for id-spelling labels (0x80 | "0", "-", ",") in the byte pass, and labels of two bytes.
ODD_TOKENS = [
    "007", "00", "-0", "+1", "1_0", "\u0661", "1e3", "1.0", "--1", "-", "1-2", "1,2", "3,", ",3",
    "\0", "1\0", "\xb0", "1\xad", "\xac", "1a", "a1", "ab", "#0", "0,", "z",
]
# Labels: ASCII letters, the ids' bytes (lang-a's "#01"), and non-ASCII ones.
LABELS = "ab01-,#\u00e9\u03bb"
# Field separators, among them the line breaks of splitlines ("\r", "\x0b") and what str.split alone splits at.
SEPARATORS = ["  ", "\t", " \t ", "\r", "\x0b", "\x1f"]


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([DIRECTED, UNDIRECTED, "dag"]),
    st.sampled_from(["\n", "\r\n", "\r\r\n"]),
    st.booleans(), st.data(),
)
def test_edge_lines_parse_as_the_per_line_oracle_parses_them(seed, kind, line_end, large, data):
    """Canonical edge lines, a few of them spoiled: an odd token, one token more or less, an empty one
    (a leading or trailing separator, ``"1  a"``), or another separator; CRLF or CR CRLF line ends, any labels.

    With ``large`` the drawn lines follow 3,000 canonical ones, so the byte
    pass reads a long region before the line that sends the file line by line.
    """
    rng = random.Random(seed)
    n = 6
    alphabet = "".join(data.draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True), label="alphabet"))
    graph_kind = DIRECTED if kind == "dag" else kind
    filler = random_graph(rng, n, 3000 if large else rng.randint(0, 5), alphabet, kind=graph_kind)
    field = st.integers(-1, n).map(str)
    drawn = data.draw(st.lists(st.tuples(field, field, st.sampled_from(alphabet)).map(list), min_size=1, max_size=6))
    seps = [" "] * len(drawn)
    for _ in range(data.draw(st.integers(0, 3), label="spoils")):
        i, at = data.draw(st.integers(0, len(drawn) - 1), label="line"), data.draw(st.integers(0, 3), label="at")
        spoil, tokens = data.draw(st.sampled_from(["token", "insert", "drop", "separator"]), label="spoil"), drawn[i]
        if spoil == "separator":
            seps[i] = data.draw(st.sampled_from(SEPARATORS))
        elif spoil == "insert":
            tokens.insert(at, data.draw(st.sampled_from(["", "1", "a", "0"])))
        elif tokens and spoil == "drop":
            del tokens[at % len(tokens)]
        elif tokens:
            tokens[at % len(tokens)] = data.draw(st.sampled_from(ODD_TOKENS), label="odd token")
    lines = [f"{kind} {n} {len(filler.us) + len(drawn)}", alphabet]
    lines += [f"{u} {v} {label}" for u, v, label in filler.edges]
    lines += [sep.join(tokens) for tokens, sep in zip(drawn, seps)]
    text = line_end.join([*lines, f"0 {n - 1}", ""])
    got = parse_outcome(parse_graph, text)
    assert got == parse_outcome(parse_graph_per_line, text)
    assert type(got) is LabeledGraph or got[2] is not None or got[1].startswith("graph declared 'dag'")


@pytest.mark.parametrize("alphabet", ["ab", "#01", "-,."])
def test_each_odd_token_among_canonical_lines_is_read_as_the_per_line_oracle_reads_it(alphabet):
    """Every odd token in every field of one of two canonical lines, and two lines whose token counts make up
    for each other, so each check of the byte pass is the one that must send the file line by line."""
    canonical = [["0", "1", alphabet[0]], ["2", "3", alphabet[-1]]]
    spoiled = [[["0", "1", "2", alphabet[0]], ["3", alphabet[-1]]], [["0", alphabet[0]], ["1", "2", "3", alphabet[-1]]]]
    for i, at, token in itertools.product(range(2), range(3), ODD_TOKENS):
        spoiled.append([list(line) for line in canonical])
        spoiled[-1][i][at] = token
    for lines in spoiled:
        text = f"directed 6 2\n{alphabet}\n" + "".join(" ".join(line) + "\n" for line in lines) + "0 5\n"
        assert parse_outcome(parse_graph, text) == parse_outcome(parse_graph_per_line, text), text


@pytest.mark.parametrize("kind", [DIRECTED, UNDIRECTED, "dag"])
@pytest.mark.parametrize("alphabet", ["()[]", "ab", "#01", "x", "-,."])
@pytest.mark.parametrize("m", [0, 1, 40])
def test_rendered_files_never_go_line_by_line(monkeypatch, kind, alphabet, m):
    """What render_graph writes takes the byte pass: a file sent line by line would fail here, not parse slower."""
    def refuse(*args):
        raise AssertionError("a rendered file went to the per-line parse")

    monkeypatch.setattr(graph, "content_lines", refuse)
    monkeypatch.setattr(graph, "_edge_lines", refuse)
    rng = random.Random(m)
    if kind == "dag":
        g = random_dag(rng, 30, m, alphabet)
    else:
        g = random_graph(rng, 30, m, alphabet, kind=kind, self_loops=True)
    text = render_graph(g)
    if kind == "dag":
        text = "dag" + text.removeprefix(DIRECTED)
    for line_ends in (text, text.replace("\n", "\r\n")):
        assert parse_graph(line_ends) == g


def test_render_ends_with_newline_and_parses_without_it():
    g = parse_graph("directed 2 1\na\n0 1 a\n0 1\n")
    text = render_graph(g)
    assert text.endswith("\n")
    assert parse_graph(text.rstrip("\n")) == g


# --- edge_ends -----------------------------------------------------------------


def follow(first: list[int], after: list[int]) -> list[list[int]]:
    """Every vertex's chain of ends, as a list."""
    out = []
    for k in first:
        out.append([])
        while k >= 0:
            out[-1].append(k)
            k = after[k]
    return out


def test_edge_ends_of_a_directed_graph_are_its_out_ends():
    # edge 0: 0 -a-> 1, edge 1: 1 -b-> 1, edge 2: 0 -a-> 2, edge 3: 2 -b-> 0
    g = LabeledGraph(DIRECTED, 3, ((0, 1, "a"), (1, 1, "b"), (0, 2, "a"), (2, 0, "b")), 0, 2, "ab")
    first, after, heads = edge_ends(g)
    assert first == [0, 2, 6] and after == [4, -1, -1, -1, -1, -1, -1, -1]
    assert follow(first, after) == [[0, 4], [2], [6]]  # forward ends 2e only, in edge order
    assert heads == [1, 0, 1, 1, 2, 0, 0, 2]  # heads[2e] = vs[e], heads[2e + 1] = us[e]
    # both directions: each edge at both endpoints, the self-loop once
    first, after, both_heads = edge_ends(g, both=True)
    assert follow(first, after) == [[0, 4, 7], [1, 2], [5, 6]] and both_heads == heads


def test_edge_ends_of_an_undirected_graph_list_both_ends_and_a_self_loop_once():
    # stored as edge 0: 0 - 1, edge 1: 1 - 1, edge 2: 0 - 2, edge 3: 0 - 1
    g = LabeledGraph(UNDIRECTED, 3, ((1, 0, "a"), (1, 1, "b"), (2, 0, "a"), (0, 1, "b")), 0, 2, "ab")
    first, after, heads = edge_ends(g)
    ends = follow(first, after)
    assert ends == [[0, 4, 6], [1, 2, 7], [5]]
    assert heads == [1, 0, 1, 1, 2, 0, 1, 0]
    assert edge_ends(g, both=True) == (first, after, heads)
    assert [g.labels[k >> 1] for k in ends[1]] == ["a", "b", "b"]


def test_edge_ends_agree_with_moves_read_off_the_edge_columns():
    rng = random.Random(17)
    for i in range(100):
        kind = (DIRECTED, UNDIRECTED)[i % 2]
        g = random_graph(rng, rng.randint(1, 6), rng.randint(0, 10), "ab", kind=kind, self_loops=True)
        first, after, heads = edge_ends(g)
        assert len(heads) == len(after) == 2 * len(g.us)
        chains = follow(first, after)
        assert [[(k >> 1, heads[k], g.labels[k >> 1], k & 1 == 1) for k in out] for out in chains] == moves(g)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([DIRECTED, UNDIRECTED]),
    st.booleans(),
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    ),
)
@example(DIRECTED, False, (1, []))  # m = 0, n = 1
@example(UNDIRECTED, True, (1, [(0, 0), (0, 0)]))  # parallel self-loops
@example(DIRECTED, True, (4, [(0, 1), (1, 0), (0, 1), (2, 2)]))  # parallel edges, a self-loop, vertex 3 isolated
def test_edge_end_chains_follow_to_the_per_vertex_lists(kind, both, graph_edges):
    """Following every chain gives the per-vertex lists of ends, in their order, with the same heads."""
    n, pairs = graph_edges
    g = LabeledGraph(kind, n, [(u, v, "ab"[i % 2]) for i, (u, v) in enumerate(pairs)], 0, n - 1, "ab")
    first, after, heads = edge_ends(g, both)
    ends, list_heads = edge_lists(g, both)
    assert len(first) == n and len(after) == 2 * len(pairs)
    assert follow(first, after) == ends and heads == list_heads


def test_edge_ends_track_no_object_per_vertex():
    """The chains are flat int lists, so the collector walks a handful of objects, not one per vertex."""
    g = random_graph(random.Random(3), 20_000, 30_000, "ab", kind=UNDIRECTED)
    gc.collect()
    before = len(gc.get_objects())
    index = edge_ends(g, both=True)
    gc.collect()
    assert len(gc.get_objects()) - before <= 10
    assert len(index[0]) == 20_000


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
    # random walk of bounded length along moves read off the edge columns
    adj = moves(g)
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
    from lcreach.solve import iter_st_paths
    from lcreach.languages import yield_recognizer

    g = fragment_graph("()[]")
    [(p, text)] = list(iter_st_paths(g, yield_recognizer(bool)))
    assert text == path_yield(g, p) == "()[]"
