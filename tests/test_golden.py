"""Pinned replay digests: the sha256 of every artifact of fixed runs.

The inputs are the benchmark's own, written by bench/synth.py at seed 7:
score-long through run_pipeline, and through `osir run --gold` then
`osir eval`; indicators-bulk cut to 120 articles, also with some first
attempts failed and retried; and `osir filter-gold` on one gold row of
score-long's exact and near-miss timing strings. The config is the one
bench/run.py writes, with backoff_base 0 so that a retry waits for nothing.

A change that keeps output bytes keeps every pin. A change that means to
move one lists each moved pin and its reason in CHANGES.md; run this file as
a script (`PYTHONPATH=src python tests/test_golden.py`) to print the current
digests.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import osir.pipeline  # noqa: E402
from osir.backend import ReplayBackend, RetryableError  # noqa: E402
from osir.cli import main  # noqa: E402
from osir.config import load_config  # noqa: E402
from osir.extraction import LIST_FIELDS  # noqa: E402
from osir.pipeline import run_pipeline  # noqa: E402
from synth import BUCKETS, generate  # noqa: E402
from workloads import OSIR_SETTINGS, WORKLOADS  # noqa: E402

SEED = 7
#: indicators-bulk's cut: at 120 articles, two of indicators.csv's shares
#: (21 and 69 of 120) fall on a half, so the pins check half-up rounding;
#: at 100 none does.
ARTICLES = 120

PINS = {
    "score-long": {
        "completions.jsonl":
            "abb3a1d693e768e44aa6204e07cfcf00620c1a3171045f9e8b73199ae6fba5c1",
        "indicators.csv":
            "b15e763630961c832152d140b193a3a1599a15309323efe58a774326d478babd",
        "manifest.json":
            "b94818665c7931ac98fa745fb621bb7053349b7c9259d301140403378f8a41e7",
        "prompts.jsonl":
            "c77db881b4bd51fcbbb7f5afe078bd753b36c639e73a24b8b5f4c82439d17a01",
        "records.jsonl":
            "1795e60ce17710d57edf77c866b6b1ae1469d6fe604ff35acb935366d46724a6",
        "rewards.jsonl":
            "d2b37a40cfbe9e37c637dbfb1ef18f8b315ca94530d2128130a55191de5a3d0d",
        "summary.json":
            "47016e217304105689ebd55aec443ce4fbf43501a5b60644901f7bbd2bed3bfc",
        "verdicts.jsonl":
            "b3fefda573d129a85714980a4aaeff66f573451dc5179fe009a9bafb8242c54a",
    },
    "score-long cli": {
        "completions.jsonl":
            "abb3a1d693e768e44aa6204e07cfcf00620c1a3171045f9e8b73199ae6fba5c1",
        "indicators.csv":
            "b15e763630961c832152d140b193a3a1599a15309323efe58a774326d478babd",
        "manifest.json":
            "b94818665c7931ac98fa745fb621bb7053349b7c9259d301140403378f8a41e7",
        "prompts.jsonl":
            "c77db881b4bd51fcbbb7f5afe078bd753b36c639e73a24b8b5f4c82439d17a01",
        "records.jsonl":
            "1795e60ce17710d57edf77c866b6b1ae1469d6fe604ff35acb935366d46724a6",
        "report.json":
            "5afae4115ba14c031726bfe8c1b28c323dc48befd61c0f03ce8f9bfbb907e885",
        "rewards.jsonl":
            "d2b37a40cfbe9e37c637dbfb1ef18f8b315ca94530d2128130a55191de5a3d0d",
        "summary.json":
            "47016e217304105689ebd55aec443ce4fbf43501a5b60644901f7bbd2bed3bfc",
        "verdicts.jsonl":
            "b3fefda573d129a85714980a4aaeff66f573451dc5179fe009a9bafb8242c54a",
    },
    "indicators-bulk": {
        "completions.jsonl":
            "30778ec89f6296638530af25d194af4d47538deda5d2a80ea604329ea47e11f4",
        "indicators.csv":
            "3a54f1d63aa3dc68bd2f3376b91c270de8dd2457ac147419bdddcc41412dac46",
        "manifest.json":
            "58ad6106113431b6d1052373d4c99052ac515f5da807d4bca064257fc20cd5cc",
        "prompts.jsonl":
            "a5fbb99d7513ac038fbf72add24148b070911f3ecd3f71b8dc72e5c8242d9cf2",
        "records.jsonl":
            "015a8990ade0523d0171156583a7d2eefa4a3ad3d628e2b5543fca12d5e10dea",
        "summary.json":
            "8bf749ab8da8132415587176804105063f764167b0bda2420e2b1cd70ca50036",
        "verdicts.jsonl":
            "04836561cbc80d9a61bcf7fd7a9c2e2649376239127798f5f3de0804bccaf16d",
    },
    "filter-gold": {
        "kept.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "removed.csv":
            "4b3491d08ee5bd198f0a6e54f39a703953dc24bf761533bafdfa71fb2100c315",
    },
}


def _inputs(workload: str, articles: int | None = None) -> dict:
    """Write *workload*'s inputs at SEED into the working directory, with
    its config as bench/run.py writes it plus backoff_base 0; returns the
    expectations."""
    synth = WORKLOADS[workload].synth
    if articles is not None:
        synth = dataclasses.replace(synth, articles=articles)
    expected = generate(synth, SEED, ".", workload)
    path = Path("osir_config.json")
    config = json.loads(path.read_text("utf-8"))
    config.update(OSIR_SETTINGS, backoff_base=0)
    path.write_text(json.dumps(config, sort_keys=True), "utf-8")
    return expected


def _digests(*paths: str) -> dict[str, str]:
    """The sha256 of each file, by name; a directory stands for its files."""
    files = [f for p in map(Path, paths)
             for f in (sorted(p.iterdir()) if p.is_dir() else [p])]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def _cli(*args: str) -> None:
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output


def _replay(gold: str | None = None) -> dict[str, str]:
    """run_pipeline over the working directory's inputs, with the settings
    `osir run` is given by bench/run.py."""
    config = load_config("osir_config.json", backend_mode="replay",
                         fixture_path="completions_source.jsonl",
                         samples_per_article=3)
    run_pipeline("corpus.jsonl", "out", config, gold)
    return _digests("out")


def score_long() -> dict[str, str]:
    _inputs("score-long")
    return _replay("gold.jsonl")


def score_long_cli() -> dict[str, str]:
    _inputs("score-long")
    _cli("run", "--corpus", "corpus.jsonl", "--out", "out", "--samples", "3",
         "--config", "osir_config.json", "--backend", "replay",
         "--fixture", "completions_source.jsonl", "--gold", "gold.jsonl")
    _cli("eval", "--completions", "out/completions.jsonl", "--gold",
         "gold.jsonl", "--samples", "3", "--out", "out/report.json")
    return _digests("out")


def indicators_bulk() -> dict[str, str]:
    _inputs("indicators-bulk", articles=ARTICLES)
    return _replay()


def filter_gold() -> dict[str, str]:
    """osir filter-gold on score-long's article, with one gold row that
    holds each exact and near-miss timing string in the field of its
    kind."""
    expected = _inputs("score-long")
    row = json.loads(Path("gold.jsonl").read_text("utf-8").splitlines()[0])
    row.update({name: [] for name in LIST_FIELDS})
    for item in expected["micro"]:
        if item["class"] in ("exact", "near"):
            row[f"new_data_{BUCKETS[item['bucket']][0]}s"].append(item["text"])
    Path("near_gold.jsonl").write_text(json.dumps(row, sort_keys=True)
                                       + "\n", "utf-8")
    _cli("filter-gold", "--corpus", "corpus.jsonl", "--gold",
         "near_gold.jsonl", "--out-kept", "kept.jsonl", "--out-removed",
         "removed.csv", "--config", "osir_config.json")
    return _digests("kept.jsonl", "removed.csv")


RUNS = {"score-long": score_long, "score-long cli": score_long_cli,
        "indicators-bulk": indicators_bulk,
        "filter-gold": filter_gold}


@pytest.mark.parametrize("name", RUNS)
def test_artifacts_keep_their_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert RUNS[name]() == PINS[name]


def test_retries_keep_every_pin(tmp_path, monkeypatch):
    class FailsFirstAttempts(ReplayBackend):
        """The replay backend, but the first attempt at every third article
        fails with a retryable 503."""

        def __init__(self, config):
            super().__init__(config.fixture_path)
            self.failed = set()

        def complete(self, prompt, n):
            if int(prompt.article_id[1:]) % 3 == 0 \
                    and prompt.article_id not in self.failed:
                self.failed.add(prompt.article_id)
                raise RetryableError("HTTP 503")
            return super().complete(prompt, n)

    made = []

    def make_backend(config):
        made.append(FailsFirstAttempts(config))
        return made[-1]

    monkeypatch.setattr(osir.pipeline, "make_backend", make_backend)
    monkeypatch.chdir(tmp_path)
    assert indicators_bulk() == PINS["indicators-bulk"]
    (backend,) = made
    assert len(backend.failed) == ARTICLES // 3


if __name__ == "__main__":
    current = {}
    for name, run in RUNS.items():
        with tempfile.TemporaryDirectory() as where:
            os.chdir(where)
            current[name] = run()
            os.chdir(ROOT)
    print(json.dumps(current, indent=4))
