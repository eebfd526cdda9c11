"""Golden table of vertex-cover file faults: one file per check, its exact error and exit 2.

Each file has a single fault, so the table pins which check fires, its
message and its line number, whatever order the checks run in.
"""

import pytest

from lcreach.cli import dispatch

FAULTS = {
    "empty file": ("", "line 1: empty vertex cover file"),
    "blank file": ("\n\n", "line 1: empty vertex cover file"),
    "header shape": ("vc 3 0\n", "line 1: header must be 'vc <n> <m> <k>'"),
    "header word": ("cover 3 0 1\n", "line 1: header must be 'vc <n> <m> <k>'"),
    "non-integer count": ("vc 3 0 one\n", "line 1: counts must be integers"),
    "underscore in a count": ("vc 1_0 0 1\n", "line 1: counts must be integers"),
    "missing edge line": ("vc 3 2 1\n1 2\n", "line 2: expected 2 edge lines"),
    "extra edge line": ("vc 3 1 1\n1 2\n2 3\n", "line 3: expected 1 edge lines"),
    "negative edge count": ("vc 3 -1 1\n", "line 1: expected -1 edge lines"),
    "edge line shape": ("vc 3 1 1\n1 2 3\n", "line 2: edge line must be '<i> <j>'"),
    "blank edge line": ("vc 3 2 1\n\n1 2\n", "line 2: edge line must be '<i> <j>'"),
    "non-integer endpoint": ("vc 3 2 1\n1 2\n2 x\n", "line 3: edge endpoints must be integers"),
    "non-ASCII digit in an endpoint": ("vc 3 1 1\n1 ٢\n", "line 2: edge endpoints must be integers"),
    "no vertex": ("vc 0 0 0\n", "vertex cover instances need at least one vertex"),
    "negative vertex count": ("vc -3 0 0\n", "vertex cover instances need at least one vertex"),
    "budget over n": ("vc 3 0 4\n", "budget k must satisfy 0 <= k <= n"),
    "negative budget": ("vc 3 0 -1\n", "budget k must satisfy 0 <= k <= n"),
    "self-loop": ("vc 3 1 1\n1 1\n", "bad edge (1, 1)"),
    "endpoint over n": ("vc 3 1 1\n2 4\n", "bad edge (2, 4)"),
    "endpoint zero": ("vc 3 1 1\n0 2\n", "bad edge (0, 2)"),
    "reduced graph over the vertex limit": (
        "vc 1446 0 0\n",
        "vc-to-a on 1446 vertices would build 1049075 vertices, over the limit of 1048576",
    ),
    "reduced graph far over the vertex limit": (
        "vc 200000 0 0\n",
        "vc-to-a on 200000 vertices would build 20000500002 vertices, over the limit of 1048576",
    ),
}


@pytest.mark.parametrize("text, message", FAULTS.values(), ids=FAULTS.keys())
def test_vc_file_fault(text, message, tmp_path, capsys):
    vc = tmp_path / "i.vc"
    vc.write_text(text)
    out = tmp_path / "out.graph"
    code = dispatch(["reduce", "vc-to-a", "--in", str(vc), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert not out.exists()
