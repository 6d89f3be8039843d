"""Replay runs write the same bytes under every supported interpreter.

The other CPython installs beside this one (the pyenv layout, where each
version lives in <versions>/<version>/bin/python3) each replay one bundle in
a subprocess, and every artifact's sha256 must equal this interpreter's.
Those interpreters need only the standard library: `import osir` loads no
third-party package.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osir
from osir.config import PipelineConfig
from osir.pipeline import run_pipeline

from conftest import build_replay_bundle

#: Replays a bundle: python -c REPLAY corpus gold fixture out_dir.
REPLAY = """\
import sys
from osir.config import PipelineConfig
from osir.pipeline import run_pipeline
corpus, gold, fixture, out = sys.argv[1:]
run_pipeline(corpus, out, PipelineConfig(backend_mode="replay",
                                         fixture_path=fixture), gold)
"""

#: Prints True under an interpreter osir supports.
SUPPORTED = "import sys; print(sys.version_info >= (3, 10))"


def other_interpreters() -> list[Path]:
    """Every other python3 >= 3.10 installed beside this interpreter's."""
    this = Path(sys.executable).resolve()
    found = []
    for exe in sorted(Path(sys.base_prefix).parent.glob("*/bin/python3")):
        if exe.resolve() == this:
            continue
        probe = subprocess.run([str(exe), "-c", SUPPORTED],
                               capture_output=True, text=True)
        if probe.stdout == "True\n":
            found.append(exe)
    return found


def digests(out_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def test_replay_artifacts_match_across_interpreters(tmp_path, monkeypatch):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip(f"no other python3 >= 3.10 under "
                    f"{Path(sys.base_prefix).parent}")
    # manifest.json stores the input paths: every run gets the same strings
    monkeypatch.chdir(tmp_path)
    bundle = build_replay_bundle(Path("in"), n_articles=8)
    inputs = [str(bundle[name]) for name in ("corpus", "gold", "fixture")]
    run_pipeline(inputs[0], "here", PipelineConfig(
        backend_mode="replay", fixture_path=inputs[2]), inputs[1])
    expected = digests(Path("here"))
    src = str(Path(osir.__file__).parents[1])
    for exe in interpreters:
        out = f"out-{exe.parent.parent.name}"
        subprocess.run([str(exe), "-c", REPLAY, *inputs, out], check=True,
                       env={**os.environ, "PYTHONPATH": src})
        assert digests(Path(out)) == expected, exe
