"""Tests of the benchmark itself: generator, stub schedule and output checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import csv
import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest
import requests

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from checks import check_aborted, check_completed  # noqa: E402
from stub import CompletionStub, fault_plan  # noqa: E402
from synth import (ABSENT_CHARS, BUCKETS, NEAR_SUBSTITUTIONS,  # noqa: E402
                   SynthSettings, absent_count, generate)
from workloads import WORKLOADS  # noqa: E402

SMALL = SynthSettings(articles=4, k=3, words=(120, 160), gold=True,
                      verbatim_per_sample=3, near_buckets=("L25", "L70"),
                      absent_buckets=("L10", "L40"), prose_share=0.3,
                      fence_share=0.3, unparseable_share=0.1)


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_benchmark_json_names_the_workloads():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    settings = WORKLOADS[name].synth
    generate(settings, 7, tmp_path / "a", name)
    generate(settings, 7, tmp_path / "b", name)
    generate(settings, 8, tmp_path / "c", name)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (_files(tmp_path / "a")["corpus.jsonl"]
            != _files(tmp_path / "c")["corpus.jsonl"])


def test_generated_strings_have_their_construction(tmp_path):
    expected = generate(SMALL, 3, tmp_path, "small")
    bodies = {}
    for line in (tmp_path / "corpus.jsonl").read_text("utf-8").splitlines():
        row = json.loads(line)
        bodies[row["id"]] = " ".join(row["body_markdown"].split()).casefold()
    assert not any(c in body for body in bodies.values() for c in ABSENT_CHARS)
    seen = set()
    for sample in expected["samples"]:
        body = bodies[sample["article_id"]]
        for s in sample["strings"]:
            text = s["text"].casefold()
            assert len(text) == BUCKETS[s["bucket"]][1]
            seen.add(s["class"])
            absent = sum(text.count(c) for c in ABSENT_CHARS)
            if s["class"] == "verbatim":
                assert text in body
            elif s["class"] == "near":
                assert absent == NEAR_SUBSTITUTIONS[s["bucket"]]
                assert any(sum(a != b for a, b in zip(text, body[i:]))
                           == absent for i in range(len(body) - len(text)))
            else:
                assert absent >= absent_count(s["bucket"])
    assert seen == {"verbatim", "near", "absent"}


def test_over_budget_tail_is_exact(tmp_path):
    settings = SynthSettings(articles=8, over_budget_share=0.25,
                             over_budget_words=(25_100, 25_200))
    expected = generate(settings, 3, tmp_path, "tail")
    tokens = sorted((a["body_tokens"], a["over_budget"])
                    for a in expected["articles"])
    assert expected["over_budget"] == 2
    assert [over for _, over in tokens] == [False] * 6 + [True] * 2
    assert tokens[5][0] < 2_000 and tokens[6][0] > 25_000


def test_stub_schedule_is_deterministic_and_exact():
    ids = [f"a{i:05d}" for i in range(300)]
    plan = fault_plan(5, ids, 0.1, 0.5, 10)
    assert plan == fault_plan(5, ids, 0.1, 0.5, 10)
    assert plan != fault_plan(6, ids, 0.1, 0.5, 10)
    for seed in range(20):
        statuses = fault_plan(seed, ids, 0.1, 0.5, 10)
        assert sorted(statuses.values()) == [429] * 5 + [503] * 29
        assert {a for a, s in statuses.items() if s == 429} <= set(ids[-10:])
        assert {a for a, s in statuses.items() if s == 503} <= set(ids[:-10])


def _statuses_under(order: list[int], completions: Path, tail: int) -> dict:
    """Per prompt, the statuses the stub answers while two threads send
    every prompt (retrying until 200) in the given order."""
    stub = CompletionStub(completions, seed=1, latency_s=0.0, share_503=0.3,
                          share_429=0.3, tail_429=tail).start()
    got: dict[int, list[int]] = {}
    lock = threading.Lock()

    def client(indices):
        with requests.Session() as session:
            for i in indices:
                prompt = f"Preamble\nStudy reference a{i:05d}.\nbody {i}"
                while True:
                    r = session.post(stub.endpoint, timeout=5,
                                     json={"prompt": prompt, "n": 3})
                    with lock:
                        got.setdefault(i, []).append(r.status_code)
                    if r.status_code == 200:
                        break
    try:
        threads = [threading.Thread(target=client, args=(order[j::2],))
                   for j in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        stub.close()
    return got


def test_stub_schedule_ignores_interleaving(tmp_path):
    n = 60
    completions = tmp_path / "completions.jsonl"
    completions.write_text("".join(
        json.dumps({"article_id": f"a{i:05d}", "sample_index": j,
                    "text": f"text {i} {j}"}) + "\n"
        for i in range(n) for j in range(3)), "utf-8")
    order = list(range(n))
    a = _statuses_under(order, completions, tail=20)
    random.Random(0).shuffle(order)
    b = _statuses_under(order, completions, tail=20)
    assert a == b
    assert any(s[0] == 503 for s in a.values())
    assert {i for i, s in a.items() if s[0] == 429} <= set(range(n - 20, n))
    assert any(s[0] == 429 for s in a.values())


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """osir run and osir eval on SMALL, as the benchmark invokes them."""
    import osir.cli

    work = tmp_path_factory.mktemp("small")
    expected = generate(SMALL, 11, work, "small")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        osir.cli.main.main(
            ["run", "--corpus", "corpus.jsonl", "--gold", "gold.jsonl",
             "--backend", "replay", "--fixture", "completions_source.jsonl",
             "--samples", "3", "--config", "osir_config.json", "--out", "out"],
            standalone_mode=False)
        osir.cli.main.main(
            ["eval", "--completions", "out/completions.jsonl", "--gold",
             "gold.jsonl", "--samples", "3", "--out", "out/report.json"],
            standalone_mode=False)
    finally:
        os.chdir(cwd)
    return work / "out", expected


def test_checks_accept_osir_outputs(small_run):
    out, expected = small_run
    assert check_completed(out, expected, evaluate=True) == []


def _tampered(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    return copy


def test_checks_reject_a_wrong_reward(small_run, tmp_path):
    out, expected = small_run
    copy = _tampered(out, tmp_path)
    rows = [json.loads(line) for line in
            (copy / "rewards.jsonl").read_text("utf-8").splitlines()]
    rows[0]["e"] = 1.0 if rows[0]["e"] != 1.0 else 0.5
    (copy / "rewards.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows), "utf-8")
    problems = check_completed(copy, expected, evaluate=True)
    assert len(problems) == 1 and problems[0].startswith("reward ")


def test_checks_reject_wrong_indicator_counts(small_run, tmp_path):
    out, expected = small_run
    copy = _tampered(out, tmp_path)
    with (copy / "indicators.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][2] = str(int(rows[-1][2]) + 1)
    with (copy / "indicators.csv").open("w", encoding="utf-8",
                                         newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = check_completed(copy, expected, evaluate=True)
    assert any(p.startswith("indicators.csv rows") for p in problems)


def test_checks_reject_an_unknown_abort(small_run):
    out, expected = small_run
    assert check_aborted(out, expected, "backend rejected: HTTP 429",
                         {"429": 1}) != []  # verdicts exist: not an abort
    assert check_aborted(out, expected, "stage 'complete': HTTP 500",
                         {"500": 1}) == ["operation aborted: stage "
                                         "'complete': HTTP 500"]
