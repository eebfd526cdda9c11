"""Golden table of DFA file faults: one file per check, its exact error and exit 2.

Each file has a single fault, so the table pins which check fires, its
message and its line number, whatever order the checks run in.
"""

import pytest

from lcreach.cli import dispatch

FAULTS = {
    "too few lines": ("dfa 2\nab\nstart 0\n", "line 3: expected 'dfa <n>', alphabet, start, and accept lines"),
    "header shape": ("dfa\nab\nstart 0\naccept 0\n", "line 1: header must be 'dfa <state_count>'"),
    "header keyword": ("nfa 2\nab\nstart 0\naccept 0\n", "line 1: header must be 'dfa <state_count>'"),
    "non-integer state count": ("dfa two\nab\nstart 0\naccept 0\n", "line 1: state count must be an integer"),
    "no state": ("dfa 0\nab\nstart 0\naccept 0\n", "line 1: a DFA needs at least one state"),
    "repeated alphabet symbol": (
        "dfa 2\naba\nstart 0\naccept 0\n",
        "line 2: alphabet characters must be distinct",
    ),
    "space in the alphabet": ("dfa 1\na b\nstart 0\naccept 0\n0 a 0\n", "line 2: bad alphabet character ' '"),
    "start line shape": ("dfa 2\nab\nbegin 0\naccept 0\n", "line 3: third line must be 'start <state>'"),
    "non-integer start": ("dfa 2\nab\nstart x\naccept 0\n", "line 3: states must be integers"),
    "start out of range": ("dfa 2\nab\nstart 5\naccept 1\n", "line 3: start state out of range"),
    "negative start": ("dfa 2\nab\nstart -1\naccept 1\n", "line 3: start state out of range"),
    "accept line shape": ("dfa 2\nab\nstart 0\nfinal 0\n", "line 4: fourth line must be 'accept <state> ...'"),
    "non-integer accepting state": ("dfa 2\nab\nstart 0\naccept 0 y\n", "line 4: states must be integers"),
    "accepting state out of range": ("dfa 2\nab\nstart 0\naccept 1 7\n", "line 4: accepting state 7 out of range"),
    "transition shape": (
        "dfa 2\nab\nstart 0\naccept 1\n0 a\n",
        "line 5: transition line must be '<q> <symbol> <q2>'",
    ),
    "non-integer transition state": ("dfa 2\nab\nstart 0\naccept 1\nq a 1\n", "line 5: states must be integers"),
    "foreign symbol": (
        "dfa 2\nab\nstart 0\naccept 1\n0 a 1\n0 c 1\n",
        "line 6: transition symbol 'c' is not in the alphabet",
    ),
    "long symbol": (
        "dfa 2\nab\nstart 0\naccept 1\n0 ab 1\n",
        "line 5: transition symbol 'ab' is not in the alphabet",
    ),
    "target state out of range": (
        "dfa 2\nab\nstart 0\naccept 1\n0 a 2\n",
        "line 5: transition state out of range",
    ),
    "source state out of range": (
        "dfa 2\nab\nstart 0\naccept 1\n-1 a 1\n",
        "line 5: transition state out of range",
    ),
    "duplicate transition": (
        "dfa 2\nab\nstart 0\naccept 1\n0 a 1\n0 a 0\n",
        "line 6: duplicate transition for state 0 on 'a'",
    ),
}


@pytest.mark.parametrize("text, message", FAULTS.values(), ids=FAULTS.keys())
def test_dfa_file_fault(text, message, tmp_path, capsys):
    dfa = tmp_path / "a.dfa"
    dfa.write_text(text)
    code = dispatch(["member", "--dfa", str(dfa), "--string", "ab"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
