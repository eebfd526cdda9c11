"""Every module of the package uses every name it imports.

An unused import is dead weight, and in ``cli`` and ``solve`` it can hide a
worse fault: the benchmark's tracer rebinds names those modules look up at
call time, so a name imported but no longer called would silently read zero.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lcreach"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
