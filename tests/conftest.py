"""Shared test builders for corpora, records, and completion fixtures."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from osir.corpus import Article
from osir.extraction import (
    ExtractionRecord,
    GoldAnnotation,
    RawCompletion,
    parse_extraction,
    serialize_record,
)
from osir.jsonl import field_dict


def make_record(**overrides) -> ExtractionRecord:
    """An all-false, all-empty record with selected fields overridden."""
    base = dict(new_data_generated=False, reuse_data=False)
    base.update(overrides)
    return ExtractionRecord(**base)


def make_article(article_id: str, body: str, *, title: str = "",
                 discipline: str = "Health Sciences",
                 region: str = "Europe") -> Article:
    return Article(id=article_id, title=title, body=body,
                   discipline=discipline, region=region)


def completion_text(record: ExtractionRecord, *, prose: str = "",
                    fenced: bool = False) -> str:
    payload = serialize_record(record)
    if fenced:
        payload = f"```json\n{payload}\n```"
    return f"{prose}\n{payload}" if prose else payload


def make_completion(article_id: str, sample_index: int,
                    record: ExtractionRecord, **kw) -> RawCompletion:
    return RawCompletion(article_id, sample_index, completion_text(record, **kw))


LETTERS = "abcdefghijklmnopqrstuvwxyz"


def edit_all_but_two_pieces(draw, cand: str, ops: str) -> str:
    """*cand* with one edit in each of len(ops) of its len(ops) + 2
    contiguous pieces (the split of text.pieces), the other two verbatim:
    "i" inserts a letter inside the piece, "s" substitutes a letter with
    another and "d" deletes one. *draw* (a hypothesis draw) picks the two
    verbatim pieces, the order of *ops*, the positions and the letters;
    pieces must be at least two characters long.
    """
    pieces = len(ops) + 2
    bounds = [p * len(cand) // pieces for p in range(pieces + 1)]
    kept = draw(st.sets(st.integers(0, pieces - 1), min_size=2, max_size=2))
    ops = iter(draw(st.permutations(ops)))
    out = []
    for p in range(pieces):
        piece = cand[bounds[p]:bounds[p + 1]]
        if p not in kept:
            op = next(ops)
            i = draw(st.integers(1 if op == "i" else 0, len(piece) - 1))
            if op == "d":
                piece = piece[:i] + piece[i + 1:]
            else:
                letter = draw(st.sampled_from(LETTERS).filter(
                    lambda c: op == "i" or c != piece[i]))
                piece = piece[:i] + letter + piece[i + (op == "s"):]
        out.append(piece)
    return "".join(out)


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    return path


def corpus_row(article: Article) -> dict:
    row = {
        "id": article.id,
        "title": article.title,
        "body_markdown": article.body,
        "discipline": article.discipline,
        "region": article.region,
    }
    if article.published is not None:
        row["published"] = article.published
    return row


def gold_row(annotation: GoldAnnotation) -> dict:
    row = {"article_id": annotation.article_id}
    row.update(field_dict(annotation.record))
    return row


def completion_row(completion: RawCompletion) -> dict:
    return {
        "article_id": completion.article_id,
        "sample_index": completion.sample_index,
        "text": completion.text,
    }


@pytest.fixture
def tmp_corpus_file(tmp_path):
    def write(articles: list[Article], name: str = "corpus.jsonl") -> Path:
        return write_jsonl(tmp_path / name, [corpus_row(a) for a in articles])

    return write


DISCIPLINE_CYCLE = ("Health Sciences", "Life Sciences", "Physical Sciences",
                    "Social Sciences")
REGION_CYCLE = ("Europe", "Africa", "Asia")


def build_replay_bundle(directory: Path, n_articles: int = 3,
                        samples: int = 3) -> dict[str, Path]:
    """A self-consistent corpus + gold + replay fixture for pipeline tests.

    Every article body contains its gold evidence verbatim; samples replay
    the gold record (one sample per fourth article is unparseable prose, so
    the parse/verdict paths see both outcomes).
    """
    directory.mkdir(parents=True, exist_ok=True)
    corpus_rows, gold_rows, fixture_rows = [], [], []
    for i in range(n_articles):
        aid = f"art-{i:03d}"
        accession = f"GSE{10_000 + i}"
        doi = f"10.5061/dryad.{i:03d}"
        citation = f"Author{i} et al. 20{10 + i % 10}"
        url = f"https://repo.example.org/d{i}"
        generated = i % 3 != 0
        reused = i % 2 == 0
        body = (
            f"# Study {i}\n\nWe deposited sequencing reads under {accession} "
            f"and released tables at {doi}. Prior data from {citation} "
            f"were retrieved via {url} and reanalyzed.\n\n"
            f"## Data availability\n\nAll data supporting study {i} are shared."
        )
        record = make_record(
            new_data_generated=generated,
            reuse_data=reused,
            new_data_accessions=(accession,) if generated else (),
            new_data_dois=(doi,) if generated else (),
            reuse_data_citations=(citation,) if reused else (),
            reuse_data_urls=(url,) if reused else (),
            new_data_description=f"study {i} deposited new reads"
            if generated else None,
            reuse_data_description=f"study {i} reanalyzed earlier data"
            if reused else None,
        )
        corpus_rows.append(corpus_row(Article(
            id=aid, title=f"Study {i}", body=body,
            discipline=DISCIPLINE_CYCLE[i % len(DISCIPLINE_CYCLE)],
            region=REGION_CYCLE[i % len(REGION_CYCLE)])))
        gold_rows.append(gold_row(GoldAnnotation(aid, record)))
        for s in range(samples):
            if s == samples - 1 and i % 4 == 0:
                text = f"The model rambled about study {i} without any payload."
            elif s == 0:
                text = completion_text(
                    record, prose=f"Looking at study {i}: evidence found.")
            else:
                text = completion_text(record, fenced=True)
            fixture_rows.append({"article_id": aid, "sample_index": s,
                                 "text": text})
    paths = {
        "corpus": write_jsonl(directory / "corpus.jsonl", corpus_rows),
        "gold": write_jsonl(directory / "gold.jsonl", gold_rows),
        "fixture": write_jsonl(directory / "fixture.jsonl", fixture_rows),
    }
    return paths


def build_unparseable_bundle(directory, seed, n_articles=120, samples=3):
    """A replay bundle where 60% of the samples are unparseable: 12 in 120
    articles have no parseable sample (unresolved verdicts), 72 have one
    and 36 have two. Parseable samples vote on the booleans at random."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    unparseable = [3] * 12 + [2] * 72 + [1] * 36
    rng.shuffle(unparseable)
    corpus, gold, fixture = [], [], []
    for i, bad in enumerate(unparseable[:n_articles]):
        aid = f"syn-{seed}-{i:03d}"
        accession, doi = f"PRJ{rng.randrange(10**6):06d}", f"10.1/x.{i}"
        body = (f"# Study {i}\n\nReads are under {accession}; tables at "
                f"{doi}. Earlier work by Author{i} et al. was reused.")
        corpus.append(corpus_row(make_article(
            aid, body, discipline=rng.choice(["Health Sciences",
                                              "Life Sciences"]),
            region=rng.choice(["Europe", "Asia"]))))
        record = make_record(
            new_data_generated=rng.random() < 0.5,
            reuse_data=rng.random() < 0.5,
            new_data_accessions=(accession,), new_data_dois=(doi,),
            reuse_data_citations=(f"Author{i} et al.",),
            new_data_description=rng.choice([None, "new reads"]))
        gold.append(gold_row(GoldAnnotation(aid, record)))
        bad_indices = set(rng.sample(range(samples), bad))
        for s in range(samples):
            if s in bad_indices:
                text = rng.choice([
                    f"No payload for study {i}.",
                    '{"new_data_generated": "yes", "reuse_data": false}',
                    '```json\n{"new_data_generated": true,\n```'])
            else:
                voted = replace(record,
                                new_data_generated=rng.random() < 0.5,
                                reuse_data=rng.random() < 0.5)
                text = completion_text(voted, fenced=rng.random() < 0.5)
            fixture.append({"article_id": aid, "sample_index": s,
                            "text": text})
    return {"corpus": write_jsonl(directory / "corpus.jsonl", corpus),
            "gold": write_jsonl(directory / "gold.jsonl", gold),
            "fixture": write_jsonl(directory / "fixture.jsonl", fixture)}


def perturb_lists(fixture, seed):
    """Rewrite about half of the parseable samples in *fixture* so that their
    evidence lists only partly agree with gold: one extra accession (F1 2/3),
    and a DOI and a citation a few characters off gold, which match only
    below their field kind's threshold (F1 0)."""
    rng = random.Random(seed)
    rows = [json.loads(line) for line in fixture.read_text().splitlines()]
    for row in rows:
        outcome = parse_extraction(RawCompletion(
            row["article_id"], row["sample_index"], row["text"]))
        if outcome.parsed and rng.random() < 0.5:
            record = outcome.record
            row["text"] = completion_text(replace(
                record,
                new_data_accessions=record.new_data_accessions + ("GSE1",),
                new_data_dois=(record.new_data_dois[0] + "9",),
                reuse_data_citations=(record.reuse_data_citations[0]
                                      + " (2020)",)))
    write_jsonl(fixture, rows)
