"""Golden table of circuit file faults: one file per check, its exact error and exit 2.

Each file has a single fault, so the table pins which check fires, its
message and its line number, whatever order the checks run in.  The
``Circuit`` check for a gate that is neither an input, an AND nor an OR
cannot be reached from a file, since the parser refuses any other word.
"""

import pytest

from lcreach.cli import dispatch

FAULTS = {
    "empty file": ("", "line 1: expected 'circuit <n>', gate lines, and 'output <g>'"),
    "header alone": ("circuit 1\n", "line 1: expected 'circuit <n>', gate lines, and 'output <g>'"),
    "header shape": ("circuit\noutput 0\n", "line 1: header must be 'circuit <gate_count>'"),
    "header word": ("gates 1\ninput 1\noutput 0\n", "line 1: header must be 'circuit <gate_count>'"),
    "non-integer gate count": ("circuit one\ninput 1\noutput 0\n", "line 1: gate count must be an integer"),
    "plus sign in the gate count": ("circuit +1\ninput 1\noutput 0\n", "line 1: gate count must be an integer"),
    "missing gate line": ("circuit 2\ninput 1\noutput 0\n", "line 3: expected 2 gate lines plus an output line"),
    "extra gate line": (
        "circuit 1\ninput 1\ninput 0\noutput 0\n",
        "line 4: expected 1 gate lines plus an output line",
    ),
    "negative gate count": ("circuit -1\ninput 1\noutput 0\n", "line 3: expected -1 gate lines plus an output line"),
    "unknown gate word": ("circuit 1\nnot 0 1\noutput 0\n", "line 2: bad gate line 'not 0 1'"),
    "input with two values": ("circuit 1\ninput 0 1\noutput 0\n", "line 2: bad gate line 'input 0 1'"),
    "and with three operands": (
        "circuit 2\ninput 1\nand 0 1 0\noutput 1\n",
        "line 3: bad gate line 'and 0 1 0'",
    ),
    "blank gate line": ("circuit 2\n\ninput 1\noutput 0\n", "line 2: bad gate line ''"),
    "non-integer operand": (
        "circuit 2\ninput 1\nor 0 one 0 2\noutput 1\n",
        "line 3: gate operands must be integers",
    ),
    "non-ASCII digit in an input": ("circuit 1\ninput ١\noutput 0\n", "line 2: gate operands must be integers"),
    "final line shape": ("circuit 1\ninput 1\noutput\n", "line 3: final line must be 'output <gate>'"),
    "final line word": ("circuit 1\ninput 1\nresult 0\n", "line 3: final line must be 'output <gate>'"),
    "non-integer output": ("circuit 1\ninput 1\noutput last\n", "line 3: output gate must be an integer"),
    "no gate": ("circuit 0\noutput 0\n", "a circuit needs at least one gate"),
    "output out of range": ("circuit 1\ninput 1\noutput 1\n", "output gate out of range"),
    "negative output": ("circuit 1\ninput 1\noutput -1\n", "output gate out of range"),
    "input value": ("circuit 1\ninput 2\noutput 0\n", "gate 0: input value must be 0 or 1"),
    "forward reference": (
        "circuit 2\ninput 1\nand 0 1 1 2\noutput 1\n",
        "gate 1 references gate 1, which is not earlier",
    ),
    "negative reference": (
        "circuit 2\ninput 1\nor -1 1 0 2\noutput 1\n",
        "gate 1 references gate -1, which is not earlier",
    ),
    "port out of range": ("circuit 2\ninput 1\nand 0 1 0 3\noutput 1\n", "gate 1: port must be 1 or 2, got 3"),
    "port zero": ("circuit 2\ninput 1\nor 0 0 0 1\noutput 1\n", "gate 1: port must be 1 or 2, got 0"),
    "port read twice by one gate": (
        "circuit 2\ninput 1\nand 0 1 0 1\noutput 1\n",
        "port 1 of gate 0 already feeds another consumer",
    ),
    "port read by two gates": (
        "circuit 4\ninput 1\ninput 0\nor 0 2 1 1\nand 1 2 0 2\noutput 3\n",
        "port 2 of gate 0 already feeds another consumer",
    ),
}


@pytest.mark.parametrize("text, message", FAULTS.values(), ids=FAULTS.keys())
def test_circuit_file_fault(text, message, tmp_path, capsys):
    circuit = tmp_path / "c.circuit"
    circuit.write_text(text)
    out = tmp_path / "out.graph"
    code = dispatch(["reduce", "mcvp-to-d2", "--in", str(circuit), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert not out.exists()
