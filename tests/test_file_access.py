"""Only osir.jsonl opens files and decodes JSON.

Every input file is opened, decoded and de-duplicated in jsonl, and every
artifact is written there, so one module holds the rules of file access.
This check parses each other module with ast and fails on a call that opens
a file: open() and the Path methods that read or write one. It fails too on
json.loads or json.load outside jsonl, whose json_object decodes every JSON
text from outside osir.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "osir"

#: Names of the calls that open a file.
OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
#: Calls that decode a JSON text.
DECODERS = {"json.loads", "json.load"}
#: Module -> the top-level functions in it that may open a file.
EXEMPT: dict[str, set[str]] = {}


def _calls(source: str, names: set[str]) -> list[str]:
    """"<top-level name>: <call>" for each call in *source* of one of
    *names*, a function or method name or a "module.function"; "<module>"
    for a call outside any function or class."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            owner = getattr(getattr(func, "value", None), "id", None)
            for call in (name, f"{owner}.{name}"):
                if call in names:
                    found.append(f"{getattr(top, 'name', '<module>')}: {call}")
    return found


#: Every module but jsonl, each as a test parameter named after its file.
OTHER_MODULES = [pytest.param(path, id=path.name)
                 for path in sorted(SRC.glob("*.py"))
                 if path.name != "jsonl.py"]


@pytest.mark.parametrize("path", OTHER_MODULES)
def test_no_module_but_jsonl_opens_a_file(path):
    allowed = EXEMPT.get(path.name, set())
    opens = _calls(path.read_text(encoding="utf-8"), OPENERS)
    assert [call for call in opens
            if call.split(":")[0] not in allowed] == []


def test_jsonl_opens_files():
    assert _calls((SRC / "jsonl.py").read_text(encoding="utf-8"), OPENERS)


def test_file_opens_are_found():
    assert _calls(
        "import io\n"
        "def f(p):\n    return p.read_text()\n"
        "class C:\n    def g(self):\n        io.open('x').close()\n"
        "    def h(self):\n        self._open()\n"
        "open('y')\n", OPENERS) == ["f: read_text", "C: open",
                                    "<module>: open"]


@pytest.mark.parametrize("path", OTHER_MODULES)
def test_no_module_but_jsonl_decodes_json(path):
    """extraction._first_json_object stays: it does not decode a JSON text
    but scans model output, prose and code fences included, for the first
    object embedded in it, with JSONDecoder.raw_decode at each "{". A
    completion that holds none is a format failure, not an input error."""
    assert _calls(path.read_text(encoding="utf-8"), DECODERS) == []


def test_jsonl_decodes_json():
    assert _calls((SRC / "jsonl.py").read_text(encoding="utf-8"), DECODERS)


def test_json_decodes_are_found():
    assert _calls(
        "import json\n"
        "def f(t):\n    return json.loads(t)\n"
        "def g(fh):\n    return json.load(fh), json.dumps(1)\n"
        "def h(t):\n    return t.loads(), pickle.load(t)\n"
        "json.loads('1')\n", DECODERS) == [
            "f: json.loads", "g: json.load", "<module>: json.loads"]
