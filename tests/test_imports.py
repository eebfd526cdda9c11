"""Every module of the package uses every name it imports, and every private name it defines.

An unused import is dead weight, and in ``cli`` and ``solve`` it can hide a
worse fault: the benchmark's tracer rebinds names those modules look up at
call time, so a name imported but no longer called would silently read zero.
A module-level private helper (``_name``) that nothing in the package reads
is dead code left behind by a refactor.

The top-level package re-exports exactly the names that the README's library
example and the scripts import from it, and that example runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcreach"
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


def _module_level_private_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_is_referenced():
    """A private helper that nothing in the package reads is dead code."""
    defined, referenced = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((path.name, name) for name in _module_level_private_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted((module, name) for module, name in defined if name not in referenced) == []


def _library_example() -> str:
    """The python block under the README's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _names_imported_from_lcreach(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "lcreach" and node.level == 0
        for alias in node.names
    }


def test_top_level_exports_exactly_what_the_readme_and_scripts_import():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    wanted = _names_imported_from_lcreach(_library_example())
    for script in (ROOT / "scripts").glob("*.py"):
        wanted |= _names_imported_from_lcreach(script.read_text())
    wanted -= {path.stem for path in MODULES}  # a submodule such as ``cli`` needs no re-export
    assert sorted(exported) == sorted(wanted)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "chain.graph").write_text("directed 3 2\n[]\n0 1 [\n1 2 ]\n0 2\n")  # the README's quick start graph
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "[]\n"
