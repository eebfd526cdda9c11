"""Golden table of graph file faults: one file per check, its exact error and exit 2.

Each file has a single fault, so the table pins which check fires, its
message and its line number, whatever order the checks run in.
"""

import pytest

from lcreach.cli import dispatch

FAULTS = {
    "empty file": ("", "line 1: expected a header, an alphabet line, and a source/target line"),
    "too few lines": (
        "directed 2 0\na\n",
        "line 2: expected a header, an alphabet line, and a source/target line",
    ),
    "header shape": ("directed 2\na\n0 1\n", "line 1: header must be '<kind> <n> <m>'"),
    "unknown kind": ("digraph 2 0\na\n0 1\n", "line 1: unknown graph kind 'digraph'"),
    "non-integer count": ("directed two 0\na\n0 1\n", "line 1: vertex and edge counts must be integers"),
    "no vertex": ("directed 0 0\na\n0 0\n", "line 1: a graph needs at least one vertex"),
    "negative vertex count": ("undirected -2 0\na\n0 0\n", "line 1: a graph needs at least one vertex"),
    "vertex count over the limit": ("directed 1048577 0\na\n0 1\n", "line 1: vertex count 1048577 is over the limit of 1048576"),
    "vertex count far over the limit": (
        "directed 1000000000000 0\n()\n0 1\n",
        "line 1: vertex count 1000000000000 is over the limit of 1048576",
    ),
    "negative edge count": ("directed 2 -1\na\n0 1\n", "line 1: negative edge count"),
    "repeated alphabet character": ("directed 2 0\naba\n0 1\n", "line 2: alphabet characters must be distinct"),
    "space in the alphabet": ("directed 2 0\na b\n0 1\n", "line 2: bad alphabet character ' '"),
    "unprintable alphabet character": ("directed 2 0\na\x01\n0 1\n", "line 2: bad alphabet character '\\x01'"),
    "missing edge line": (
        "directed 2 2\na\n0 1 a\n0 1\n",
        "line 4: expected 2 edge lines plus a final source/target line",
    ),
    "edge count far over the lines": (
        "directed 2 1000000000000000000000\na\n0 1 a\n0 1\n",
        "line 4: expected 1000000000000000000000 edge lines plus a final source/target line",
    ),
    "extra edge line": (
        "directed 2 0\na\n0 1 a\n0 1\n",
        "line 4: expected 0 edge lines plus a final source/target line",
    ),
    "edge line shape": ("directed 2 1\na\n0 1\n0 1\n", "line 3: edge line must be '<u> <v> <label>'"),
    "non-integer endpoint": ("directed 2 1\na\n0 x a\n0 1\n", "line 3: edge endpoints must be integers"),
    "long label": ("directed 2 1\na\n0 1 ab\n0 1\n", "line 3: edge label must be a single character"),
    "head out of range": ("directed 2 1\na\n0 5 a\n0 1\n", "line 3: vertex id out of range in edge 0 5"),
    "negative tail": ("directed 2 1\na\n-1 1 a\n0 1\n", "line 3: vertex id out of range in edge -1 1"),
    "out of range in a later edge": (
        "undirected 3 3\nab\n1 0 a\n2 1 b\n2 3 a\n0 2\n",
        "line 5: vertex id out of range in edge 2 3",
    ),
    "undeclared label": ("directed 2 1\na\n0 1 z\n0 1\n", "line 3: label 'z' is not in the declared alphabet"),
    "undeclared label in a later edge": (
        "dag 3 2\nab\n0 1 a\n1 2 c\n0 2\n",
        "line 4: label 'c' is not in the declared alphabet",
    ),
    "final line shape": ("directed 2 1\na\n0 1 a\n0 1 1\n", "line 4: final line must be '<source> <target>'"),
    "non-integer target": ("directed 2 1\na\n0 1 a\n0 t\n", "line 4: source and target must be integers"),
    "source out of range": ("directed 2 1\na\n0 1 a\n2 1\n", "line 4: source or target out of range"),
    "target out of range": ("undirected 2 0\na\n0 -1\n", "line 3: source or target out of range"),
    "cycle in a dag": ("dag 2 2\na\n0 1 a\n1 0 a\n0 1\n", "graph declared 'dag' contains a directed cycle"),
    "underscore in an endpoint": ("directed 20 1\na\n0 1_0 a\n0 1\n", "line 3: edge endpoints must be integers"),
    "plus sign in a count": ("directed +2 0\na\n0 1\n", "line 1: vertex and edge counts must be integers"),
    "non-ASCII digit in the target": ("directed 2 0\na\n0 \u0661\n", "line 3: source and target must be integers"),
    "out of range on the last edge line of a long file": (
        "directed 3 5000\nab\n" + "0 1 a\n1 2 b\n" * 2499 + "0 1 a\n1 3 b\n0 2\n",
        "line 5002: vertex id out of range in edge 1 3",
    ),
    "long label on the last edge line of a long file": (
        "directed 3 5000\nab\n" + "0 1 a\n1 2 b\n" * 2499 + "0 1 a\n1 2 bb\n0 2\n",
        "line 5002: edge label must be a single character",
    ),
    "edge lines separated by tabs and runs of spaces": (
        "undirected 3 3\nab\n0\t1 a\n  2   1\tb  \n1 \t 1\t\ta\n0 3\n",
        "line 6: source or target out of range",
    ),
}


@pytest.mark.parametrize("text, message", FAULTS.values(), ids=FAULTS.keys())
def test_graph_file_fault(text, message, tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(text)
    code = dispatch(["solve", "--graph", str(graph), "--builtin", "d2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
