"""Every function the benchmark's tracer wraps still exists in osir.

bench/tracer.py looks each name of LAYER_FUNCTIONS up in its osir.<layer>
module; a name that no longer resolves is not traced, and the benchmark's
metrics for it read null. The list is read from the tracer itself, so a
rename on either side fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import LAYER_FUNCTIONS  # noqa: E402


@pytest.mark.parametrize("layer, name", [
    pytest.param(layer, name, id=f"{layer}.{name}")
    for layer, names in LAYER_FUNCTIONS.items() for name in names])
def test_traced_name_is_callable(layer, name):
    obj = importlib.import_module(f"osir.{layer}")
    for part in name.split("."):
        obj = getattr(obj, part, None)
    assert callable(obj), f"osir.{layer}.{name} is not callable"
