"""Every name a module of osir imports is used in it, and every private
top-level name of a module is used somewhere in osir.

No linter is a dependency of osir, so this check stands in for one: it
parses each module with ast and fails on an imported name that never
appears as a name in the module's code. __init__.py is skipped there,
because its imports are the package's exports. A function, class or
assigned name at a module's top level that starts with one underscore
must be read somewhere in src/osir; tests do not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "osir"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [
    pytest.param(path, id=path.name)
    for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"])
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nfrom json import dumps, loads as ld\n"
        "os.path.join(ld('1'))\n") == ["dumps"]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """"module:name" of each private top-level name of *sources* (module
    name -> source) that no module reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}:{name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read]
    return sorted(dead)


def test_every_private_name_is_used():
    assert _dead_private_names({
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))}) == []


def test_dead_private_name_is_found():
    assert _dead_private_names({
        "a.py": "_read = 1\n_dead: int = 2\n_x, (_y, z) = 3, (4, 5)\n"
                "__dunder__ = 6\ndef _f(): return _read + _y\n"
                "class _C: pass\nasync def _g(): pass\n",
        "b.py": "import a\nfrom a import _f\n_f(a._g)\n"}) == \
        ["a.py:_C", "a.py:_dead", "a.py:_x"]
