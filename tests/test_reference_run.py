"""A whole replay run against oracles.reference_run.

The other tests check each function against its brute-force oracle, and the
golden pins check that output bytes do not move; this one checks that what
a run writes is right. Small bundles (1-4 articles of at most 300
characters, 1-3 samples each) mix unparsed samples, grounded, near-miss,
absent and blank evidence and split votes, with gold or without; the parsed
content of rewards.jsonl, verdicts.jsonl, indicators.csv and summary.json
must equal the reference's. Content is compared, not bytes, so the
reference does not copy the writers.
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from osir.config import load_config
from osir.pipeline import run_pipeline

from conftest import (DISCIPLINE_CYCLE, REGION_CYCLE, completion_text,
                      make_record, write_jsonl)
from oracles import BOOLEANS, EVIDENCE, reference_run

#: Evidence list -> a strategy for a value of its kind, 7-9 characters.
_VALUES = {
    "citation": st.builds("Li {}".format, st.integers(1990, 2029)),
    "accession": st.builds("GSE{:04d}".format, st.integers(0, 9999)),
    "doi": st.builds("10.5/{}".format, st.text("abcxyz", min_size=3,
                                               max_size=3)),
    "url": st.builds("x.org/{}".format, st.text("abcxyz", min_size=2,
                                               max_size=2)),
}
_WORDS = st.lists(st.sampled_from(
    ("we", "shared", "the", "reads", "data", "were", "reused", "from", "at",
     "Table", "1.", "\n\n")), max_size=12).map(" ".join)


def _kind(name: str) -> str:
    return name.split("_")[-1][:-1]


@st.composite
def _near_miss(draw, value: str) -> str:
    """*value* with one character substituted, inserted or deleted."""
    i = draw(st.integers(0, len(value) - 1))
    op = draw(st.sampled_from("sid"))
    letter = "" if op == "d" else draw(st.sampled_from("qj"))
    return value[:i] + letter + value[i + (op != "i"):]


@st.composite
def _record(draw, planted: list[tuple[str, str]]) -> dict:
    """A record's fields: random booleans and descriptions, and per planted
    (list, value) the value, a near miss of it, or nothing; at most one
    string in all is a near miss or absent from the body. A URL may carry
    trailing punctuation that the body does not. A list may also hold an
    empty or whitespace-only string."""
    lists = {name: [] for name in EVIDENCE}
    fuzzy = False
    for name, value in planted:
        how = draw(st.sampled_from(("exact", "near", "none")))
        if how == "near" and not fuzzy:
            fuzzy = True
            value = draw(_near_miss(value))
        elif _kind(name) == "url":
            value += draw(st.sampled_from(("/", ".)", "")))
        if how != "none":
            lists[name].append(value)
    if not fuzzy and draw(st.booleans()):
        name = draw(st.sampled_from(EVIDENCE))
        lists[name].append(draw(_VALUES[_kind(name)]))  # most likely absent
    if draw(st.booleans()):
        lists[draw(st.sampled_from(EVIDENCE))].append(
            draw(st.sampled_from(("", " ", "\n\t"))))
    return {**{name: draw(st.booleans()) for name in BOOLEANS},
            **{name: tuple(values) for name, values in lists.items()},
            **{name: draw(st.sampled_from((None, "", " ", "new reads")))
               for name in ("new_data_description",
                            "reuse_data_description")}}


@st.composite
def _bundles(draw):
    """(corpus rows, fixture rows, gold rows or None, config dict)."""
    k = draw(st.integers(1, 3))
    config = {"samples_per_article": k,
              "threshold_identifier": draw(st.sampled_from((0.95, 0.8))),
              "threshold_citation": draw(st.sampled_from((0.9, 0.7))),
              "embellishment_mode": draw(st.sampled_from(("fraction",
                                                          "binary"))),
              "group_by": draw(st.sampled_from(("total", "discipline",
                                                "region")))}
    corpus, fixture, gold = [], [], []
    for a in range(draw(st.integers(1, 4))):
        aid = f"a{a}"
        planted = [(name, draw(_VALUES[_kind(name)])) for name in draw(
            st.lists(st.sampled_from(EVIDENCE), min_size=1, max_size=3))]
        parts = [draw(_WORDS)]
        for _, value in planted:
            parts += [value, draw(_WORDS)]
        corpus.append({"id": aid, "body_markdown": " ".join(parts)[:300],
                       "discipline": draw(st.sampled_from(DISCIPLINE_CYCLE)),
                       "region": draw(st.sampled_from(REGION_CYCLE))})
        for i in range(k):
            text = draw(st.one_of(
                st.sampled_from(("No payload here.",
                                 '{"new_data_generated": "yes"}')),
                _record(planted).map(lambda r: completion_text(
                    make_record(**r)))))
            fixture.append({"article_id": aid, "sample_index": i,
                            "text": text})
        gold.append({"article_id": aid, **draw(_record(planted))})
    return corpus, fixture, gold if draw(st.booleans()) else None, config


def _read(out: Path) -> dict:
    """The parsed content of the four files that reference_run describes."""
    def jsonl(name: str) -> list:
        return [json.loads(line)
                for line in (out / name).read_text().splitlines()]

    with (out / "indicators.csv").open(newline="") as fh:
        rows = [{key: value if key == "group" else int(value)
                 for key, value in row.items()} for row in csv.DictReader(fh)]
    content = {"verdicts.jsonl": jsonl("verdicts.jsonl"),
               "indicators.csv": rows,
               "summary.json": json.loads(
                   (out / "summary.json").read_text())}
    if (out / "rewards.jsonl").exists():
        content["rewards.jsonl"] = jsonl("rewards.jsonl")
    return content


def _rounded(value):
    """*value* with every float rounded to 12 places: the reference sums and
    divides in its own order."""
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


@given(_bundles())
@settings(max_examples=120, deadline=None)
def test_run_equals_the_reference(bundle):
    corpus, fixture, gold, config = bundle
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fixture_path = write_jsonl(tmp / "fixture.jsonl", fixture)
        run_pipeline(
            write_jsonl(tmp / "corpus.jsonl", corpus), tmp / "out",
            load_config(env={}, backend_mode="replay",
                        fixture_path=str(fixture_path), **config),
            gold and write_jsonl(tmp / "gold.jsonl", gold))
        got = _read(tmp / "out")
    assert _rounded(got) == _rounded(reference_run(corpus, fixture, gold,
                                                   config))
