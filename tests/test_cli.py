"""End-to-end command-line behaviour: exit codes, reports, file round trips."""

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

from lcreach import cli, solve
from lcreach.cli import dispatch
from lcreach.graph import Path, Step, parse_graph
from lcreach.languages import builtin_language, dfa_recognizer
from lcreach.reductions import parse_vc

CHAIN_SQUARE = "directed 3 2\n[]\n0 1 [\n1 2 ]\n0 2\n"
SINGLE_A = "directed 2 1\na\n0 1 a\n0 1\n"
ABSTAR_DFA = "dfa 2\nab\nstart 0\naccept 0\n0 a 1\n1 b 0\n"
TRIANGLE_VC1 = "vc 3 3 1\n1 2\n1 3\n2 3\n"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve -------------------------------------------------------------------


def test_solve_bracket_chain(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2")
    assert code == 0
    assert "decision: reachable" in out
    assert "yield: []" in out
    assert "facts_count:" in out and "worklist_pops:" in out


def test_solve_grammar_file(files, capsys):
    g = files("g.graph", SINGLE_A)
    cfg = files("g.cfg", "S -> 'a'\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--grammar", cfg)
    assert code == 0
    assert "yield: a" in out
    assert "witness: 0 --a--> 1" in out


def test_solve_unreachable(files, capsys):
    g = files("g.graph", "directed 2 1\n[]\n1 0 [\n0 1\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2")
    assert code == 1
    assert "decision: unreachable" in out


def test_solve_json_is_deterministic(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    argv = ("solve", "--graph", g, "--builtin", "d2", "--json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["decision"] == "reachable"
    assert payload["yield"] == "[]"
    assert payload["witness"]["start"] == 0
    assert payload["witness"]["steps"] == [[0, 0], [1, 0]]
    assert "wall_time" not in payload["stats"]


def test_dispatch_reuses_one_parser_with_the_bytes_of_fresh_ones(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    argvs = [
        ("solve", "--graph", g, "--builtin", "d2", "--max-len", "3"),  # usage error
        ("solve", "--graph", g),  # argparse error: no language
        ("solve", "--graph", g, "--builtin", "d2", "--json"),
        ("solve", "--graph", g, "--builtin", "d2"),
        ("member", "--builtin", "d2", "--string", "()"),
    ]
    shared = [run(capsys, *argv) for argv in argvs]
    assert cli._parser.cache_info().misses <= 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0]


def test_timings_flag_adds_wall_time(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--json", "--timings")
    assert code == 0
    assert "wall_time" in json.loads(out)["stats"]


def test_expansion_limit_keeps_the_decision(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, out, _ = run(
        capsys, "solve", "--graph", g, "--builtin", "d2", "--expand-limit", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "reachable"
    assert payload["yield"] is None
    assert payload["witness"] is None
    assert any("expansion skipped" in note for note in payload["notes"])


def test_regular_mode_with_dfa_file(files, capsys):
    g = files("g.graph", "directed 3 2\nab\n0 1 a\n1 2 b\n0 2\n")
    d = files("m.dfa", ABSTAR_DFA)
    code, out, _ = run(capsys, "solve", "--graph", g, "--dfa", d, "--mode", "regular")
    assert code == 0
    assert "yield: ab" in out


@pytest.mark.parametrize("flag, builds", [("--dfa", 1), ("--builtin", 0)])
def test_regular_mode_builds_the_dfa_recognizer_once(files, capsys, monkeypatch, flag, builds):
    g = files("g.graph", "directed 3 2\nab\n0 1 a\n1 2 b\n0 2\n")
    source = files("m.dfa", ABSTAR_DFA) if flag == "--dfa" else "abstar"
    built = []

    def counted(d):
        built.append(d)
        return dfa_recognizer(d)

    monkeypatch.setattr("lcreach.cli.dfa_recognizer", counted)
    monkeypatch.setattr("lcreach.solve.dfa_recognizer", counted)
    code, out, _ = run(capsys, "solve", "--graph", g, flag, source, "--mode", "regular")
    assert code == 0 and "yield: ab" in out
    assert len(built) == builds  # a file's language builds it; the built-in's exists at import


def test_dfa_file_membership_is_total(files, capsys):
    d = files("a.dfa", ABSTAR_DFA)
    assert run(capsys, "member", "--dfa", d, "--string", "ab")[0] == 0
    code, out, err = run(capsys, "member", "--dfa", d, "--string", "abx")
    assert (code, out, err) == (1, "decision: non-member\n", "")


# Accepts only "a": the table has no transition on "b", nor any out of state 1.
ONLY_A_DFA = "dfa 2\nab\nstart 0\naccept 1\n0 a 1\n"


def test_member_rejects_a_missing_dfa_transition(files, capsys):
    d = files("a.dfa", ONLY_A_DFA)
    assert run(capsys, "member", "--dfa", d, "--string", "a") == (0, "decision: member\n", "")
    assert run(capsys, "member", "--dfa", d, "--string", "ab") == (1, "decision: non-member\n", "")


def test_regular_mode_is_unreachable_when_the_only_walk_needs_a_missing_transition(files, capsys):
    d = files("a.dfa", ONLY_A_DFA)
    g = files("g.graph", "directed 3 2\nab\n0 1 a\n1 2 b\n0 2\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--dfa", d, "--mode", "regular")
    assert code == 1 and "decision: unreachable" in out
    g = files("g.graph", "directed 3 2\nab\n0 1 a\n1 2 b\n0 1\n")
    assert run(capsys, "solve", "--graph", g, "--dfa", d, "--mode", "regular")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--string", "a"],
        ["solve", "--mode", "regular"],
        ["solve", "--mode", "bounded-enum", "--max-len", "4"],
    ],
    ids=["member", "regular", "bounded-enum"],
)
def test_dfa_file_declaring_a_trillion_states_answers_at_once(files, argv):
    # Work must follow the transitions a file lists, not the states it declares.
    d = files("big.dfa", "dfa 1000000000000\nab\nstart 0\naccept 999999999999\n0 a 999999999999\n")
    if argv[0] == "solve":
        argv = argv + ["--graph", files("g.graph", "directed 2 2\nab\n0 1 a\n1 0 b\n0 1\n")]
    proc = subprocess.run(  # a process, so that a regression times out instead of hanging the suite
        [sys.executable, "-m", "lcreach.cli", *argv, "--dfa", d],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_regular_mode_with_builtin_dfa(files, capsys):
    g = files("g.graph", "directed 2 2\nab\n0 1 a\n1 0 b\n0 0\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "abstar", "--mode", "regular")
    assert code == 0
    assert "yield: " in out  # the empty walk is the minimum accepted one


def test_bounded_enum_reports_unknown(files, capsys):
    g = files("g.graph", "directed 1 1\n(\n0 0 (\n0 0\n")
    code, out, _ = run(
        capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "bounded-enum", "--max-len", "4"
    )
    assert code == 3
    assert "decision: unknown-bounded" in out
    assert "no accepted walk of length <= 4" in out


def test_bounded_enum_finds_cycles(files, capsys):
    g = files("g.graph", "directed 2 2\n()\n0 1 (\n1 0 )\n0 0\n")
    code, out, _ = run(
        capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "bounded-enum", "--max-len", "4"
    )
    assert code == 0
    assert "yield: ()" in out


def test_bounded_enum_requires_max_len(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, _, err = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "bounded-enum")
    assert code == 2
    assert "error:" in err


def test_max_len_is_rejected_outside_bounded_enum(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, _, err = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--max-len", "4")
    assert code == 2
    assert "--max-len" in err


def test_dag_enum_mode(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "dag-enum")
    assert code == 0
    assert "yield: []" in out


def test_tree_mode_direction_violation(files, capsys):
    g = files("g.graph", "directed 3 2\nab\n0 1 a\n0 2 b\n1 2\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "abstar", "--mode", "tree")
    assert code == 1
    assert "decision: unreachable" in out
    assert "violates an edge direction" in out


def test_tree_mode_decides_the_simple_path_of_an_undirected_tree(files, capsys):
    # The only simple path 0-1-2 spells "((", but a walk may step back along
    # edge 2-3 and spell "(())"; tree mode misses it, cfl and bounded-enum find it.
    g = files("g.graph", "undirected 4 3\n()[]\n0 1 (\n1 2 (\n2 3 )\n0 2\n")
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "tree")
    assert code == 1 and "decision: unreachable" in out
    walk = "witness: 0 --(--> 1 --(--> 2 --)--> 3 --)--> 2\n"
    for mode in (["--mode", "cfl"], ["--mode", "bounded-enum", "--max-len", "4"]):
        code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", *mode)
        assert code == 0 and "decision: reachable" in out and walk in out


def test_cfl_mode_needs_a_grammar(files, capsys):
    g = files("g.graph", SINGLE_A)
    code, _, err = run(capsys, "solve", "--graph", g, "--builtin", "abstar")
    assert code == 2
    assert "needs a grammar" in err


def test_regular_mode_needs_a_dfa(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, _, err = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "regular")
    assert code == 2
    assert "needs a DFA" in err


# --- witness files -------------------------------------------------------------


def test_witness_round_trip(files, capsys, tmp_path):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = str(tmp_path / "w.json")
    code, _, _ = run(
        capsys, "solve", "--graph", g, "--builtin", "d2", "--witness-out", wfile
    )
    assert code == 0
    payload = json.loads(open(wfile).read())
    assert payload["format"] == "lcreach-witness"
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", wfile)
    assert code == 0
    assert "decision: verified" in out
    assert "yield: []" in out


def test_tampered_witness_is_rejected(files, capsys, tmp_path):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = str(tmp_path / "w.json")
    run(capsys, "solve", "--graph", g, "--builtin", "d2", "--witness-out", wfile)
    payload = json.loads(open(wfile).read())
    payload["steps"] = [payload["steps"][0]]  # drop the closing bracket
    open(wfile, "w").write(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", wfile)
    assert code == 1
    assert "decision: rejected" in out
    assert "endpoints" in out


def test_witness_with_foreign_edges_is_rejected(files, capsys, tmp_path):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = str(tmp_path / "w.json")
    payload = {"format": "lcreach-witness", "version": 1, "start": 0, "steps": [[9, False]]}
    open(wfile, "w").write(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", wfile)
    assert code == 1
    assert "does not fit the graph" in out


def test_witness_yield_outside_language_is_rejected(files, capsys, tmp_path):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = str(tmp_path / "w.json")
    run(capsys, "solve", "--graph", g, "--builtin", "d2", "--witness-out", wfile)
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "abstar", "--witness", wfile)
    assert code == 1
    assert "not in the language" in out


def test_corrupt_witness_file_is_a_format_error(files, capsys, tmp_path):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = str(tmp_path / "w.json")
    open(wfile, "w").write("not json at all")
    code, _, err = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", wfile)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "start, steps",
    [
        (False, [[0, False], [True, False]]),
        (0, [[0.9, False], [1, False]]),
        (0.0, [[0, False], [1, False]]),
        ("0", [[0, False], [1, False]]),
        (0, [["0", False], [1, False]]),
        (0, [[0, 0], [1, False]]),
        (0, [[0, False], [1, "false"]]),
        (0, [[0, False], [1, None]]),
    ],
    ids=["bools", "float edge", "float start", "string start", "string edge", "int flag", "string flag", "null flag"],
)
def test_witness_fields_of_the_wrong_type_are_a_format_error(files, capsys, tmp_path, start, steps):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"format": "lcreach-witness", "version": 1, "start": start, "steps": steps}))
    code, out, err = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", str(wfile))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed witness file: ")


@pytest.mark.parametrize(
    "start, steps", [(-1, [[0, False], [1, False]]), (0, [[0, False], [-1, False]])], ids=["start", "edge"]
)
def test_witness_indices_out_of_range_are_rejected_by_the_walk_check(files, capsys, tmp_path, start, steps):
    g = files("g.graph", CHAIN_SQUARE)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"format": "lcreach-witness", "version": 1, "start": start, "steps": steps}))
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", str(wfile))
    assert code == 1
    assert "note: path does not fit the graph" in out


D2_CFG = "S -> '(' S ')' | '[' S ']' | '(' ')' | '[' ']' | S S\n"
# the same language under other names, and a grammar without "[]"
D2_RENAMED_CFG = "T -> P T Q | P Q | R T E | R E | T T\nP -> '('\nQ -> ')'\nR -> '['\nE -> ']'\n"
ROUND_ONLY_CFG = "S -> '(' S ')' | '(' ')' | S S\n"
NESTED = "directed 5 4\n()[]\n0 1 [\n1 2 (\n2 3 )\n3 4 ]\n0 4\n"


def _solve_v2(files, capsys, tmp_path):
    g = files("g.graph", NESTED)
    cfg = files("d2.cfg", D2_CFG)
    wfile = str(tmp_path / "w.json")
    code, out, _ = run(capsys, "solve", "--graph", g, "--grammar", cfg, "--witness-out", wfile, "--json")
    assert code == 0
    return g, cfg, wfile, json.loads(out)


def _verify(capsys, g, cfg, payload, tmp_path, name):
    wfile = tmp_path / name
    wfile.write_text(json.dumps(payload))
    return run(capsys, "verify", "--graph", g, "--grammar", cfg, "--witness", str(wfile), "--json")[:2]


def _as_v1(payload):
    return {k: (1 if k == "version" else v) for k, v in payload.items() if k != "derivation"}


def test_grammar_witness_v2_round_trip_needs_no_cyk(files, capsys, tmp_path, monkeypatch):
    g, cfg, wfile, report = _solve_v2(files, capsys, tmp_path)
    payload = json.loads(open(wfile).read())
    assert payload["version"] == 2
    assert payload["steps"] == report["witness"]["steps"]
    assert payload["derivation"][-1][:4] == [0, "S", 4, "b"]

    def no_cyk(nf, w):
        raise AssertionError("a checked derivation must spare the membership check")

    monkeypatch.setattr("lcreach.cli.cyk_member", no_cyk)
    code, out, _ = run(capsys, "verify", "--graph", g, "--grammar", cfg, "--witness", wfile, "--json")
    assert code == 0
    assert json.loads(out)["decision"] == "verified"
    assert json.loads(out)["witness"] == report["witness"]


def test_grammar_solve_builds_its_derivation_once(files, capsys, tmp_path, monkeypatch):
    # expand_witness, the witness file and the self-check share one rebuild.
    from lcreach import solve

    builds = []
    derive = solve._derive
    monkeypatch.setattr(solve, "_derive", lambda *a: builds.append(a) or derive(*a))
    _, _, wfile, report = _solve_v2(files, capsys, tmp_path)
    assert report["decision"] == "reachable" and len(builds) == 1
    assert json.loads(open(wfile).read())["version"] == 2


def test_handwritten_v1_file_verifies_with_a_grammar(files, capsys, tmp_path):
    g = files("g.graph", NESTED)
    cfg = files("d2.cfg", D2_CFG)
    payload = {"format": "lcreach-witness", "version": 1, "start": 0,
               "steps": [[0, False], [1, False], [2, False], [3, False]]}
    code, out = _verify(capsys, g, cfg, payload, tmp_path, "v1.json")
    assert code == 0
    assert json.loads(out)["yield"] == "[()]"


def _tampered(payload):
    """Version 2 payloads whose derivation does not prove their steps."""
    nodes = payload["derivation"]
    root = len(nodes) - 1
    yield {**payload, "derivation": nodes[:-1]}
    yield {**payload, "derivation": nodes[:-1] + [nodes[-1][:4] + [root - 1, root - 1]]}
    yield {**payload, "derivation": [[n[0], "S", *n[2:]] for n in nodes]}
    yield {**payload, "derivation": "S -> '(' ')'"}
    yield {**payload, "derivation": [[-1, "S", -1, "b", -1, -1]]}
    yield {**payload, "derivation": [[[[]]]]}
    yield {**payload, "steps": payload["steps"][:2]}
    yield {**payload, "steps": payload["steps"][1:3], "start": 1}


def test_tampered_v2_gives_the_v1_verdict(files, capsys, tmp_path):
    g, cfg, wfile, _ = _solve_v2(files, capsys, tmp_path)
    payload = json.loads(open(wfile).read())
    verdicts = set()
    for i, bad in enumerate(_tampered(payload)):
        v2 = _verify(capsys, g, cfg, bad, tmp_path, f"v2_{i}.json")
        v1 = _verify(capsys, g, cfg, _as_v1(bad), tmp_path, f"v1_{i}.json")
        assert v2 == v1, i
        verdicts.add(v2[0])
    assert verdicts == {0, 1}


def test_a_v2_file_with_a_tampered_start_is_rejected(files, capsys, tmp_path):
    # check_derivation compares steps only, so the walk's start is checked first.
    g, cfg, wfile, _ = _solve_v2(files, capsys, tmp_path)
    payload = json.loads(open(wfile).read())
    code, out = _verify(capsys, g, cfg, {**payload, "start": 1}, tmp_path, "moved.json")
    assert code == 1
    assert json.loads(out)["notes"][0].startswith("path does not fit the graph")

    # An empty walk's derivation proves any start, so only the endpoint check catches a moved one.
    loop = files("loop.graph", "directed 2 1\n()\n0 1 (\n0 0\n")
    nullable = files("nullable.cfg", "S -> '(' S ')' | \n")
    empty = {**payload, "steps": [], "derivation": [[0, "S", 0, "e"]]}
    assert _verify(capsys, loop, nullable, {**empty, "start": 0}, tmp_path, "empty.json")[0] == 0
    for start, note in ((1, "path endpoints are not"), (5, "path does not fit the graph")):
        code, out = _verify(capsys, loop, nullable, {**empty, "start": start}, tmp_path, f"empty_{start}.json")
        assert code == 1
        assert json.loads(out)["notes"][0].startswith(note), start


@pytest.mark.parametrize("other, expected", [(D2_RENAMED_CFG, 0), (ROUND_ONLY_CFG, 1)])
def test_v2_against_another_grammar_gives_the_v1_verdict(files, capsys, tmp_path, other, expected):
    g, _, wfile, _ = _solve_v2(files, capsys, tmp_path)
    payload = json.loads(open(wfile).read())
    other_cfg = files("other.cfg", other)
    v2 = _verify(capsys, g, other_cfg, payload, tmp_path, "v2.json")
    assert v2 == _verify(capsys, g, other_cfg, _as_v1(payload), tmp_path, "v1.json")
    assert v2[0] == expected


def test_builtin_witness_file_is_v2(files, capsys, tmp_path, monkeypatch):
    g = files("g.graph", NESTED)
    wfile = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--witness-out", wfile)
    assert code == 0
    assert open(wfile).read() == (
        '{"derivation": [[0, "_t_[", 1, "t", 0, false], [1, "_t_(", 2, "t", 1, false], '
        '[2, "_t_)", 3, "t", 2, false], [1, "S", 3, "b", 1, 2], [3, "_t_]", 4, "t", 3, false], '
        '[1, "_b2", 4, "b", 3, 4], [0, "S", 4, "b", 0, 5]], "format": "lcreach-witness", '
        '"start": 0, "steps": [[0, false], [1, false], [2, false], [3, false]], "version": 2}\n'
    )

    def refuse(*args):
        raise AssertionError("a checked derivation must spare the membership check")

    d2 = builtin_language("d2")
    monkeypatch.setattr("lcreach.cli.builtin_language", lambda name: dataclasses.replace(d2, member=refuse))
    monkeypatch.setattr("lcreach.cli.cyk_member", refuse)
    code, out, _ = run(capsys, "verify", "--graph", g, "--builtin", "d2", "--witness", wfile, "--json")
    assert code == 0
    assert out == (
        '{"decision": "verified", "notes": [], "stats": {}, "witness": {"rendered": '
        '"0 --[--> 1 --(--> 2 --)--> 3 --]--> 4", "start": 0, "steps": '
        '[[0, 0], [1, 0], [2, 0], [3, 0]]}, "yield": "[()]"}\n'
    )


@pytest.mark.parametrize("source", [("--builtin", "d2"), ("--grammar", D2_CFG)])
@pytest.mark.parametrize("graph_text, code", [(NESTED, 0), ("directed 2 1\n()\n1 0 (\n0 1\n", 1)])
def test_cfl_stats_keys_are_the_same_for_both_outcomes(files, capsys, source, graph_text, code):
    flag, value = source
    if flag == "--grammar":
        value = files("d2.cfg", value)
    g = files("g.graph", graph_text)
    got, out, _ = run(capsys, "solve", "--graph", g, flag, value, "--json")
    assert got == code
    stats = json.loads(out)["stats"]
    assert sorted(stats) == ["facts_count", "worklist_pops"]
    if code == 0:
        assert stats["facts_count"] >= stats["worklist_pops"] > 0
    else:  # no edge enters the target, so no round runs
        assert stats == {"facts_count": 0, "worklist_pops": 0}


# Every edge into vertex 3 opens a bracket, so no d2 walk ends there; the
# other graph has a closing edge into its target and runs the fixpoint.
OPENING_ONLY = "directed 4 5\n()[]\n0 1 (\n1 0 )\n1 3 (\n0 3 [\n3 3 [\n0 3\n"
CLOSING = "directed 2 1\n()\n0 1 )\n0 1\n"


@pytest.mark.parametrize("graph_text, dead", [(OPENING_ONLY, True), (CLOSING, False)], ids=["dead", "live"])
def test_a_dead_target_reports_no_facts(files, capsys, graph_text, dead):
    g = files("g.graph", graph_text)
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2")
    assert code == 1 and "decision: unreachable\n" in out
    assert ("facts_count: 0\n" in out and "worklist_pops: 0\n" in out) == dead
    code, out, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--json", "--timings")
    stats = json.loads(out)["stats"]
    assert code == 1 and sorted(stats) == ["facts_count", "wall_time", "worklist_pops"]
    if dead:
        assert (stats["facts_count"], stats["worklist_pops"]) == (0, 0)
    else:
        assert stats["facts_count"] >= stats["worklist_pops"] > 0


def test_a_word_ending_in_an_opening_bracket_is_rejected_with_an_empty_table(files, capsys, monkeypatch):
    real, tables = solve.cfl_reach_table, []

    def spy(*args, **kwargs):  # keeps every table the membership check builds
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(solve, "cfl_reach_table", spy)
    cfg = files("d2.cfg", D2_CFG)
    code, out, _ = run(capsys, "member", "--grammar", cfg, "--string", "()[](")
    assert code == 1 and "decision: non-member" in out
    assert [(len(t.facts), t.pops) for t in tables] == [(0, 0)]
    code, _, _ = run(capsys, "member", "--grammar", cfg, "--string", "()[]()")
    assert code == 0 and tables[-1].pops > 0


@pytest.mark.parametrize(
    "graph_text, argv, code, counts",
    [
        (CHAIN_SQUARE, ("--builtin", "d2", "--mode", "dag-enum"), 0, (0, 1)),
        ("directed 2 1\n()\n1 0 (\n0 1\n", ("--builtin", "d2", "--mode", "dag-enum"), 1, (0, 0)),
        # the answer is found with pairs (4, a) and (5, b) reached and unexamined
        ("directed 6 5\nab\n0 1 a\n1 2 b\n0 3 a\n3 4 b\n4 5 a\n0 2\n",
         ("--builtin", "abstar", "--mode", "regular"), 0, (5, 4)),
        ("directed 3 2\nab\n0 1 a\n1 2 a\n0 2\n", ("--builtin", "abstar", "--mode", "regular"), 1, (2, 2)),
        # the answer is found with pair (1, "((") reached and unexamined
        ("directed 3 3\n()\n0 1 (\n1 2 )\n1 1 (\n0 2\n",
         ("--builtin", "d2", "--mode", "bounded-enum", "--max-len", "4"), 0, (4, 3)),
        ("directed 1 1\n(\n0 0 (\n0 0\n", ("--builtin", "d2", "--mode", "bounded-enum", "--max-len", "4"), 3, (5, 5)),
        (CHAIN_SQUARE, ("--builtin", "d2", "--mode", "tree"), 0, (0, 1)),
        ("directed 3 2\nab\n0 1 a\n0 2 b\n1 2\n", ("--builtin", "abstar", "--mode", "tree"), 1, (0, 1)),
    ],
    ids=["dag-enum-0", "dag-enum-1", "regular-0", "regular-1", "bounded-enum-0", "bounded-enum-3",
         "tree-0", "tree-note"],
)
def test_every_mode_reports_the_same_stats_keys_for_every_outcome(files, capsys, graph_text, argv, code, counts):
    g = files("g.graph", graph_text)
    got, out, _ = run(capsys, "solve", "--graph", g, *argv, "--json")
    assert got == code
    assert json.loads(out)["stats"] == dict(zip(("facts_count", "worklist_pops"), counts))
    got, out, _ = run(capsys, "solve", "--graph", g, *argv, "--json", "--timings")
    assert got == code
    assert sorted(json.loads(out)["stats"]) == ["facts_count", "wall_time", "worklist_pops"]


DEEP = 5000  # edges of the chain below, well past the interpreter's recursion limit
BRACKETS_DFA = "dfa 2\n[]\nstart 0\naccept 0 1\n0 [ 0\n0 ] 1\n1 ] 1\n"  # [*]*


@pytest.mark.parametrize("argv", [
    ("--mode", "cfl", "--builtin", "d2"),
    ("--mode", "regular", "--dfa", "brackets.dfa"),
    ("--mode", "bounded-enum", "--builtin", "d2", "--max-len", str(DEEP)),
    ("--mode", "tree", "--builtin", "d2"),
    pytest.param(("--mode", "dag-enum", "--builtin", "d2"), marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 5: dag-enum recurses once per edge and exits 4 with RecursionError",
    )),
])
def test_a_deep_chain_is_answered(files, capsys, argv):
    word = "[" * (DEEP // 2) + "]" * (DEEP // 2)
    edges = "".join(f"{i} {i + 1} {ch}\n" for i, ch in enumerate(word))
    g = files("chain.graph", f"directed {DEEP + 1} {DEEP}\n[]\n{edges}0 {DEEP}\n")
    dfa = files("brackets.dfa", BRACKETS_DFA)
    code, out, err = run(capsys, "solve", "--graph", g, *(dfa if a == "brackets.dfa" else a for a in argv), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["yield"] == word
    assert payload["witness"]["steps"] == [[i, 0] for i in range(DEEP)]


# --- member --------------------------------------------------------------------


def test_member_examples(capsys):
    code, out, _ = run(capsys, "member", "--builtin", "lang-a", "--string", "10#1#1#0")
    assert code == 0
    assert "decision: member" in out
    code, out, _ = run(capsys, "member", "--builtin", "lang-a", "--string", "10#1#0#0")
    assert code == 1
    assert "decision: non-member" in out


def test_member_with_grammar_file(files, capsys):
    cfg = files("g.cfg", "S -> '(' S ')' |\n")
    code, _, _ = run(capsys, "member", "--grammar", cfg, "--string", "(())")
    assert code == 0
    code, _, _ = run(capsys, "member", "--grammar", cfg, "--string", "(()")
    assert code == 1


def test_member_json(capsys):
    code, out, _ = run(capsys, "member", "--builtin", "d2", "--string", "()", "--json")
    assert code == 0
    assert json.loads(out)["decision"] == "member"


# --- grammar-file membership of long words --------------------------------------
# Each call decides one 600-symbol word, which took cubic CYK 11-29 s.

LONG_BALANCED = ("([" * 50 + "])" * 50 + "[()]" * 25) * 2


def _timed(capsys, *argv):
    started = time.perf_counter()
    code = run(capsys, *argv)[0]
    assert time.perf_counter() - started < 5
    return code


def test_member_with_grammar_file_decides_a_long_word(files, capsys):
    cfg = files("d2.cfg", D2_CFG)
    assert _timed(capsys, "member", "--grammar", cfg, "--string", LONG_BALANCED) == 0
    flipped = LONG_BALANCED[:299] + "[" + LONG_BALANCED[300:]
    assert _timed(capsys, "member", "--grammar", cfg, "--string", flipped) == 1


def _long_chain(files):
    edges = "".join(f"{i} {i + 1} {ch}\n" for i, ch in enumerate(LONG_BALANCED))
    return files("chain.graph", f"directed 601 600\n()[]\n{edges}0 600\n")


def test_tree_mode_with_grammar_file_decides_a_long_path(files, capsys):
    g, cfg = _long_chain(files), files("d2.cfg", D2_CFG)
    assert _timed(capsys, "solve", "--mode", "tree", "--graph", g, "--grammar", cfg) == 0


def test_verify_of_a_long_v1_walk_with_grammar_file(files, capsys):
    g, cfg = _long_chain(files), files("d2.cfg", D2_CFG)
    payload = {"format": "lcreach-witness", "version": 1, "start": 0, "steps": [[i, False] for i in range(600)]}
    w = files("v1.json", json.dumps(payload))
    assert _timed(capsys, "verify", "--graph", g, "--grammar", cfg, "--witness", w) == 0


# --- reduce --------------------------------------------------------------------


def test_reduce_vc_then_solve(files, capsys, tmp_path):
    vc = files("k3.vc", TRIANGLE_VC1)
    out_graph = str(tmp_path / "out.graph")
    code, out, _ = run(capsys, "reduce", "vc-to-a", "--in", vc, "--out", out_graph)
    assert code == 0
    assert out.strip() == "reduced: vc-to-a; vertices: 14; edges: 16"
    code, out, _ = run(
        capsys, "solve", "--graph", out_graph, "--builtin", "lang-a", "--mode", "dag-enum"
    )
    assert code == 1
    assert "decision: unreachable" in out


def test_reduce_nbc(files, capsys, tmp_path):
    src = files("w.nbc", "({(#)}\n")
    out_graph = str(tmp_path / "out.graph")
    code, _, _ = run(capsys, "reduce", "nbc-to-d2", "--in", src, "--out", out_graph)
    assert code == 0
    code, out, _ = run(capsys, "solve", "--graph", out_graph, "--builtin", "d2")
    assert code == 0
    assert "yield: ()" in out


def test_reduce_reach_to_abstar_json(files, capsys, tmp_path):
    src = files("g.graph", SINGLE_A)
    out_graph = str(tmp_path / "out.graph")
    code, out, _ = run(capsys, "reduce", "reach-to-abstar", "--in", src, "--out", out_graph, "--json")
    assert code == 0
    assert json.loads(out) == {"kind": "reach-to-abstar", "vertices": 3, "edges": 2}
    g = parse_graph(open(out_graph).read())
    assert g.kind == "undirected"


def test_reduce_circuit(files, capsys, tmp_path):
    src = files("c.circuit", "circuit 3\ninput 1\ninput 0\nor 0 1 1 1\noutput 2\n")
    out_graph = str(tmp_path / "out.graph")
    code, _, _ = run(capsys, "reduce", "mcvp-to-d2", "--in", src, "--out", out_graph)
    assert code == 0
    code, _, _ = run(capsys, "solve", "--graph", out_graph, "--builtin", "d2")
    assert code == 0


def test_reduce_circuit_graph_is_pinned(files, capsys, tmp_path):
    # a false and a true input, an OR reading both ports of the true input, and an AND
    src = files("c.circuit", "circuit 4\ninput 0\ninput 1\nor 0 1 1 2\nand 2 1 1 1\noutput 3\n")
    out_graph = tmp_path / "out.graph"
    code, out, _ = run(capsys, "reduce", "mcvp-to-d2", "--in", src, "--out", str(out_graph))
    assert (code, out) == (0, "reduced: mcvp-to-d2; vertices: 10; edges: 10\n")
    assert out_graph.read_text() == (
        "directed 10 10\n()[]\n"
        "2 3 (\n3 4 )\n5 0 (\n1 6 )\n5 2 [\n4 6 ]\n7 5 (\n6 8 )\n8 2 (\n4 9 )\n"
        "7 9\n"
    )


def test_reduce_d2_to_dd2(files, capsys, tmp_path):
    src = files("g.graph", "directed 3 2\n()\n0 1 (\n1 2 )\n0 2\n")
    out_graph = str(tmp_path / "out.graph")
    code, _, _ = run(capsys, "reduce", "d2-to-dd2", "--in", src, "--out", out_graph)
    assert code == 0
    code, out, _ = run(capsys, "solve", "--graph", out_graph, "--builtin", "dd2")
    assert code == 0
    assert "yield: (ab)" in out


def test_reduce_bad_input_is_a_format_error(files, capsys, tmp_path):
    src = files("bad.vc", "vc x y z\n")
    code, _, err = run(capsys, "reduce", "vc-to-a", "--in", src, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "error:" in err


def test_reduce_circuit_with_a_blank_gate_line(files, capsys, tmp_path):
    src = files("c.circuit", "circuit 2\n\ninput 1\noutput 0\n")
    code, _, err = run(capsys, "reduce", "mcvp-to-d2", "--in", src, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "reach-to-abstar", "--in", "{graph}", "--out", "{out}"),
        ("gen", "graph", "--seed", "1", "--n", "1048577", "--m", "0", "--out", "{out}"),
    ],
    ids=["reduce", "gen"],
)
def test_an_output_over_the_vertex_limit_is_a_usage_error(files, capsys, tmp_path, argv):
    g = files("g.graph", "directed 1048576 1\na\n0 1 a\n0 1\n")  # at the limit, and 1 more vertex reduced
    target = tmp_path / "out.graph"
    code, out, err = run(capsys, *(a.format(graph=g, out=target) for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: vertex count 1048577 is over the limit of 1048576\n"
    assert not target.exists()


# --- gen -----------------------------------------------------------------------


def test_gen_is_seed_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "graph", "--seed", "7")
    _, out2, _ = run(capsys, "gen", "graph", "--seed", "7")
    assert out1 == out2
    parse_graph(out1)


def test_gen_vc_parses_back(capsys):
    code, out, _ = run(capsys, "gen", "vc", "--seed", "3", "--n", "5", "--m", "4", "--k", "2")
    assert code == 0
    inst = parse_vc(out)
    assert inst.n == 5 and inst.k == 2


def test_gen_undirected_to_file(capsys, tmp_path):
    target = str(tmp_path / "g.graph")
    code, out, _ = run(
        capsys, "gen", "graph", "--seed", "5", "--kind", "undirected", "--out", target
    )
    assert code == 0
    assert out == ""
    assert parse_graph(open(target).read()).kind == "undirected"


def test_gen_nbc_and_circuit(capsys):
    code, out, _ = run(capsys, "gen", "nbc", "--seed", "11", "--blocks", "2")
    assert code == 0
    assert out.endswith("\n")
    code, out, _ = run(capsys, "gen", "circuit", "--seed", "11", "--inputs", "2", "--gates", "3")
    assert code == 0
    assert out.startswith("circuit ")


def test_gen_circuit_output_is_pinned(capsys):
    code, out, _ = run(capsys, "gen", "circuit", "--seed", "11", "--inputs", "2", "--gates", "3")
    assert (code, out) == (0, "circuit 5\ninput 1\ninput 1\nor 1 2 1 1\nor 0 2 0 1\nor 3 2 3 1\noutput 4\n")


# --- usage and format errors -----------------------------------------------------


def test_no_arguments_is_usage(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_usage(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_conflicting_language_flags(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, _, _ = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--dfa", "x")
    assert code == 2


def test_missing_graph_file(capsys):
    code, _, err = run(capsys, "solve", "--graph", "/nonexistent", "--builtin", "d2")
    assert code == 2
    assert "error:" in err


def test_malformed_graph_file(files, capsys):
    g = files("g.graph", "directed 2 1\na\n0 5 a\n0 1\n")
    code, _, err = run(capsys, "solve", "--graph", g, "--builtin", "d2")
    assert code == 2
    assert "error:" in err


def test_unknown_builtin_is_usage(files, capsys):
    g = files("g.graph", CHAIN_SQUARE)
    code, _, _ = run(capsys, "solve", "--graph", g, "--builtin", "nosuch")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "graph", "--seed", "1", "--n", "0"),
        ("gen", "dag", "--seed", "1", "--n", "1"),
        ("gen", "vc", "--seed", "1", "--n", "3", "--k", "9"),
        ("gen", "circuit", "--seed", "1", "--inputs", "0"),
        ("gen", "nbc", "--seed", "1", "--blocks", "-2"),
        ("solve", "--graph", "{graph}", "--builtin", "d2", "--mode", "bounded-enum", "--max-len", "-1"),
        ("gen", "graph", "--seed", "1", "--m", "-3"),
        ("gen", "dag", "--seed", "1", "--m", "-3"),
        ("gen", "vc", "--seed", "1", "--m", "-2"),
        ("solve", "--graph", "{graph}", "--builtin", "d2", "--expand-limit", "-5"),
    ],
)
def test_impossible_sizes_are_usage_errors(files, capsys, argv):
    g = files("g.graph", CHAIN_SQUARE)
    code, out, err = run(capsys, *(a.format(graph=g) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_an_internal_crash_is_not_an_answer(files, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("lcreach.cli.cfl_reach", crash)
    g = files("g.graph", CHAIN_SQUARE)
    code, out, err = run(capsys, "solve", "--graph", g, "--builtin", "d2")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: injected\n"


def test_a_witness_failing_the_self_check_is_an_internal_error(files, capsys, monkeypatch):
    monkeypatch.setattr("lcreach.cli.dag_enum_reach", lambda g, member, stats: Path(0, ()))
    g = files("g.graph", CHAIN_SQUARE)
    code, out, err = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "dag-enum")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError: internal check failed")


def test_a_solver_walk_that_does_not_fit_the_graph_is_an_internal_error(files, capsys, monkeypatch):
    monkeypatch.setattr("lcreach.cli.dag_enum_reach", lambda g, member, stats: Path(0, (Step(9, False),)))
    g = files("g.graph", CHAIN_SQUARE)
    code, out, err = run(capsys, "solve", "--graph", g, "--builtin", "d2", "--mode", "dag-enum")
    assert code == 4
    assert out == ""
    assert err == (
        "internal error: RuntimeError: internal check failed: solver returned an invalid witness: "
        "path does not fit the graph: step 0 references edge 9, which does not exist\n"
    )
