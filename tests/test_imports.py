"""Every name a module of osir imports is used in it.

No linter is a dependency of osir, so this check stands in for one: it
parses each module with ast and fails on an imported name that never
appears as a name in the module's code. __init__.py is skipped, because
its imports are the package's exports.
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
