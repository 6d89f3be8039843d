"""Only osir.jsonl opens files.

Every input file is opened, decoded and de-duplicated in jsonl, and every
artifact is written there, so one module holds the rules of file access.
This check parses each other module with ast and fails on a call that opens
a file: open() and the Path methods that read or write one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "osir"

#: Names of the calls that open a file.
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
#: Module -> the top-level functions in it that may open a file.
EXEMPT: dict[str, set[str]] = {}


def _file_opens(source: str) -> list[str]:
    """"<top-level name>: <call>" for each call in *source* that opens a
    file; "<module>" for a call outside any function or class."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if name in OPENERS:
                found.append(f"{getattr(top, 'name', '<module>')}: {name}")
    return found


@pytest.mark.parametrize("path", [
    pytest.param(path, id=path.name)
    for path in sorted(SRC.glob("*.py")) if path.name != "jsonl.py"])
def test_no_module_but_jsonl_opens_a_file(path):
    allowed = EXEMPT.get(path.name, set())
    opens = _file_opens(path.read_text(encoding="utf-8"))
    assert [call for call in opens
            if call.split(":")[0] not in allowed] == []


def test_jsonl_opens_files():
    assert _file_opens((SRC / "jsonl.py").read_text(encoding="utf-8"))


def test_file_opens_are_found():
    assert _file_opens(
        "import io\n"
        "def f(p):\n    return p.read_text()\n"
        "class C:\n    def g(self):\n        io.open('x').close()\n"
        "    def h(self):\n        self._open()\n"
        "open('y')\n") == ["f: read_text", "C: open", "<module>: open"]
