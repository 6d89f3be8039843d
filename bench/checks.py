"""Output checks: osir's artifacts against the generator's expectations.

Nothing here calls osir. Each check returns a list of problems; an empty list
means the operation's outputs are what the generated inputs imply.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

INDICATOR_HEADER = ["group", "publications", "generated_count",
                    "generated_pct", "reused_count", "reused_pct",
                    "neither_count", "neither_pct"]
#: The seed's HTTP backend treats 429 as fatal; an abort for that reason is
#: the known behaviour, reported as failed articles rather than wrong output.
KNOWN_ABORT = "HTTP 429"


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_completed(out: Path, expected: dict, evaluate: bool = False,
                    served: dict[str, list[str]] | None = None) -> list[str]:
    """Problems with the artifacts of an operation that returned normally."""
    problems: list[str] = []
    settings = expected["settings"]
    articles = {a["article_id"]: a for a in expected["articles"]}
    k = settings["k"]

    prompts = _jsonl(out / "prompts.jsonl")
    truncated = sum(1 for p in prompts if p["truncated"])
    if len(prompts) != len(articles):
        problems.append(f"prompts.jsonl has {len(prompts)} rows, "
                        f"expected {len(articles)}")
    if truncated != expected["over_budget"]:
        problems.append(f"{truncated} truncated prompts, expected "
                        f"{expected['over_budget']} over-budget articles")

    records = _jsonl(out / "records.jsonl")
    if len(records) != expected["parseable_completions"]:
        problems.append(f"records.jsonl has {len(records)} rows, expected "
                        f"{expected['parseable_completions']} parseable")

    verdicts = {v["article_id"]: v for v in _jsonl(out / "verdicts.jsonl")}
    if sorted(verdicts) != sorted(articles):
        problems.append("verdicts.jsonl does not cover exactly the corpus")
    for article_id, want in sorted(articles.items()):
        got = verdicts.get(article_id)
        if got is None:
            continue
        for key, value in want["verdict"].items():
            if got.get(key) != value:
                problems.append(f"verdict {article_id}.{key} = "
                                f"{got.get(key)!r}, expected {value!r}")

    with (out / "indicators.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [INDICATOR_HEADER]:
        problems.append(f"indicators.csv header {rows[:1]}")
    if rows[1:] != expected["indicator_rows"]:
        problems.append(f"indicators.csv rows {rows[1:]} != "
                        f"{expected['indicator_rows']}")

    samples = {(s["article_id"], s["sample_index"]): s
               for s in expected["samples"]}
    if settings["gold"]:
        rewards = _jsonl(out / "rewards.jsonl")
        if len(rewards) != len(samples):
            problems.append(f"rewards.jsonl has {len(rewards)} rows, "
                            f"expected {len(samples)}")
        for row in rewards:
            want = samples[(row["article_id"], row["sample_index"])]
            if row["e"] != want["e"] or row["f"] != int(want["parseable"]):
                problems.append(
                    f"reward {row['article_id']}/{row['sample_index']}: "
                    f"f={row['f']} e={row['e']}, expected "
                    f"f={int(want['parseable'])} e={want['e']}")
    if evaluate:
        problems += _check_report(out / "report.json", expected, samples)

    if served is not None:
        completions = _jsonl(out / "completions.jsonl")
        got = {(c["article_id"], c["sample_index"]): c["text"]
               for c in completions}
        want = {(aid, i): text for aid, texts in served.items()
                for i, text in enumerate(texts)}
        if len(completions) != len(articles) * k or got != want:
            problems.append("completions.jsonl differs from what the stub "
                            "served")
    return problems


def _check_report(path: Path, expected: dict, samples: dict) -> list[str]:
    """Article and sample counts, and boolean pass@1 / pass@k, of osir eval."""
    if not path.exists():
        return ["osir eval wrote no report"]
    report = json.loads(path.read_text("utf-8"))
    problems = []
    k = expected["settings"]["k"]
    if report["articles"] != len(expected["articles"]):
        problems.append(f"report counts {report['articles']} articles")
    if report["samples_per_article"] != k:
        problems.append(f"report counts {report['samples_per_article']} "
                        "samples per article")
    gold = {a["article_id"]: a["gold"] for a in expected["articles"]}
    for name in ("new_data_generated", "reuse_data"):
        correct: dict[str, list[bool]] = {}
        for (aid, _), s in samples.items():
            ok = s["parseable"] and s["booleans"][name] == gold[aid][name]
            correct.setdefault(aid, []).append(ok)
        pass1 = sum(sum(v) for v in correct.values()) / len(samples)
        passk = sum(any(v) for v in correct.values()) / len(correct)
        got = report["boolean_fields"][name]
        if abs(got["pass_at_1"] - pass1) > 1e-12 or \
                abs(got["pass_at_k"] - passk) > 1e-12:
            problems.append(f"report {name}: {got}, expected pass@1 {pass1} "
                            f"pass@k {passk}")
    return problems


def check_aborted(out: Path, expected: dict, error: str,
                  status_counts: dict[str, int]) -> list[str]:
    """Problems with an operation that aborted: only the seed's fatal 429 on
    the HTTP backend is a known outcome, and it must have left the prompts
    and no verdicts behind."""
    if KNOWN_ABORT not in error or not status_counts.get("429"):
        return [f"operation aborted: {error}"]
    problems = []
    prompts = _jsonl(out / "prompts.jsonl")
    if len(prompts) != len(expected["articles"]):
        problems.append(f"prompts.jsonl has {len(prompts)} rows")
    if (out / "verdicts.jsonl").exists():
        problems.append("an aborted run wrote verdicts.jsonl")
    return problems
