"""Golden table of grammar file faults: one file per check, its exact error and exit 2.

Each file has a single fault, so the table pins which check fires, its
message and its line number, whatever order the checks run in.  The checks
of the ``Cfg`` constructor that no file can reach are pinned below it.
"""

import pytest

from lcreach import Cfg
from lcreach.cli import dispatch

FAULTS = {
    "empty file": ("", "line 1: a grammar needs at least one production"),
    "blank lines only": ("\n   \n\t\n", "line 1: a grammar needs at least one production"),
    "lone head": ("S\n", "line 1: expected a production of the form 'LHS -> ...'"),
    "no arrow": ("S '(' S ')'\n", "line 1: expected a production of the form 'LHS -> ...'"),
    "missing head": ("-> 'a'\n", "line 1: expected a production of the form 'LHS -> ...'"),
    "head not an identifier": ("1S -> 'a'\n", "line 1: expected a production of the form 'LHS -> ...'"),
    "quoted head": ("'S' -> 'a'\n", "line 1: expected a production of the form 'LHS -> ...'"),
    "no arrow on a later line": (
        "S -> 'a' | T\nT = 'b'\n",
        "line 2: expected a production of the form 'LHS -> ...'",
    ),
    "space terminal": ("S -> ' '\n", "line 1: bad terminal character ' '"),
    "tab terminal": ("S -> '\t'\n", "line 1: bad terminal character '\\t'"),
    "unprintable terminal": ("S -> 'a' | '\x01'\n", "line 1: bad terminal character '\\x01'"),
    "non-breaking space terminal": ("S -> '\u00a0'\n", "line 1: bad terminal character '\\xa0'"),
    "unexpected token": ("S -> 'a' ; S\n", "line 1: unexpected token ';'"),
    "unclosed quote": ("S -> 'a\n", "line 1: unexpected token \"'\""),
    "two-character terminal": ("S -> 'ab'\n", "line 1: unexpected token \"'\""),
    "empty quotes": ("S -> ''\n", "line 1: unexpected token \"'\""),
    "double quotes": ('S -> "a"\n', "line 1: unexpected token '\"'"),
    "undefined nonterminal": ("S -> T 'a'\n", "line 1: nonterminal 'T' is used but never defined"),
    "undefined nonterminal on a later line": (
        "S -> 'a' | T\nT -> S U\n",
        "line 2: nonterminal 'U' is used but never defined",
    ),
    "nonterminal named like a terminal": ("a -> 'a'\n", "nonterminals and terminals must be disjoint"),
}


@pytest.mark.parametrize("text, message", FAULTS.values(), ids=FAULTS.keys())
def test_grammar_file_fault(text, message, tmp_path, capsys):
    grammar = tmp_path / "g.cfg"
    grammar.write_text(text)
    code = dispatch(["member", "--grammar", str(grammar), "--string", "a"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


CFG_FAULTS = {
    "two-character terminal": (
        ({"S"}, {"ab"}, [("S", ("ab",))], "S"),
        "terminals are single printable, non-space characters, got 'ab'",
    ),
    "empty terminal": (
        ({"S"}, {""}, [], "S"),
        "terminals are single printable, non-space characters, got ''",
    ),
    "space terminal": (
        ({"S"}, {" "}, [("S", (" ",))], "S"),
        "terminals are single printable, non-space characters, got ' '",
    ),
    "unprintable terminal": (
        ({"S"}, {"\x01"}, [], "S"),
        "terminals are single printable, non-space characters, got '\\x01'",
    ),
    "nonterminal named like a terminal": (
        ({"S", "a"}, {"a"}, [], "S"),
        "nonterminals and terminals must be disjoint",
    ),
    "start outside the nonterminals": (({"S"}, {"a"}, [], "T"), "start symbol 'T' is not a nonterminal"),
    "foreign production head": (
        ({"S"}, {"a"}, [("T", ("a",))], "S"),
        "production head 'T' is not a nonterminal",
    ),
    "undeclared body symbol": (
        ({"S"}, {"a"}, [("S", ("b",))], "S"),
        "undeclared symbol 'b' in a production body",
    ),
}


@pytest.mark.parametrize("args, message", CFG_FAULTS.values(), ids=CFG_FAULTS.keys())
def test_cfg_constructor_fault(args, message):
    with pytest.raises(ValueError) as info:
        Cfg(*args)
    assert str(info.value) == message
