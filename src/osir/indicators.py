"""Corpus-level open-science indicators from per-article extraction records.

Multi-sample outputs are first reduced to one verdict per article (majority
vote on the booleans, union of evidence). Verdicts then aggregate into
generation / reuse / neither rates by discipline, region, or in total, plus
reasoning-trace coverage and accession statistics.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable

from .corpus import Article
from .evaluation import SampleSet, majority_vote
from .identifiers import canonicalize_identifier
from .jsonl import field_dict, write_csv, write_json, write_jsonl

GROUPINGS = ("discipline", "region", "total")
TOTAL_LABEL = "Total"


def percent_half_up(count: int, total: int) -> int:
    """Integer percentage with exact round-half-up (not banker's rounding)."""
    if total == 0:
        return 0
    return (200 * count + total) // (2 * total)


def percent_one_decimal(count: int, total: int) -> float:
    """One-decimal percentage, round-half-up."""
    return percent_half_up(10 * count, total) / 10


@dataclass(frozen=True)
class ArticleVerdict:
    """Resolved per-article judgment after multi-sample reduction."""

    article_id: str
    new_data_generated: bool
    data_reused: bool
    neither: bool
    has_accession: bool
    has_generation_trace: bool
    has_reuse_trace: bool
    reused_accessions: tuple[str, ...]  # canonical, sorted
    unresolved: bool = False


@dataclass(frozen=True)
class IndicatorRow:
    """Counts and round-half-up integer percentages for one corpus group."""

    group: str
    publications: int
    generated_count: int
    generated_pct: int
    reused_count: int
    reused_pct: int
    neither_count: int
    neither_pct: int


@dataclass(frozen=True)
class TraceCoverage:
    articles: int
    any_count: int
    any_pct: int
    generation_count: int
    generation_pct: int
    reuse_count: int
    reuse_pct: int


@dataclass(frozen=True)
class AccessionStats:
    articles: int
    articles_with_accession: int
    articles_with_accession_pct: float  # one decimal
    unique_reused_accessions: int
    accessions: tuple[str, ...]  # canonical, sorted


def _canonical_accessions(values: Iterable[str]) -> set[str]:
    """The canonical forms of accession *values*; a blank value, or one whose
    canonical form is empty (such as "." or "()"), names no accession."""
    canonical = (canonicalize_identifier("accession", value)
                 for value in values if value.strip())
    return {c for c in canonical if c}


def resolve_verdict(samples: SampleSet) -> ArticleVerdict:
    """Reduce one article's samples to a single verdict.

    Booleans resolve by majority vote over parsed samples (exact ties resolve
    to False). Evidence is unioned across parsed samples; an accession whose
    canonical form is empty counts nowhere. Trace flags reflect whether any
    sample carried a non-empty description for the category. Zero parsed
    samples, or none at all, yield an unresolved verdict, booleans false.
    """
    parsed = [o.record for o in samples.outcomes if o.parsed]
    if not parsed:
        return ArticleVerdict(
            article_id=samples.article_id,
            new_data_generated=False, data_reused=False, neither=True,
            has_accession=False, has_generation_trace=False,
            has_reuse_trace=False, reused_accessions=(), unresolved=True)

    generated = majority_vote(parsed, "new_data_generated")
    reused = majority_vote(parsed, "reuse_data")
    reused_accessions = set().union(*(
        _canonical_accessions(r.reuse_data_accessions) for r in parsed))
    return ArticleVerdict(
        article_id=samples.article_id,
        new_data_generated=generated,
        data_reused=reused,
        neither=not generated and not reused,
        has_accession=bool(reused_accessions) or any(
            _canonical_accessions(r.new_data_accessions) for r in parsed),
        has_generation_trace=any((r.new_data_description or "").strip()
                                 for r in parsed),
        has_reuse_trace=any((r.reuse_data_description or "").strip()
                            for r in parsed),
        reused_accessions=tuple(sorted(reused_accessions)),
    )


def _row(group: str, verdicts: list[ArticleVerdict]) -> IndicatorRow:
    pubs = len(verdicts)
    generated = sum(1 for v in verdicts if v.new_data_generated)
    reused = sum(1 for v in verdicts if v.data_reused)
    neither = sum(1 for v in verdicts if v.neither)
    return IndicatorRow(
        group=group,
        publications=pubs,
        generated_count=generated,
        generated_pct=percent_half_up(generated, pubs),
        reused_count=reused,
        reused_pct=percent_half_up(reused, pubs),
        neither_count=neither,
        neither_pct=percent_half_up(neither, pubs),
    )


def aggregate_by(
    verdicts: list[ArticleVerdict],
    by: str = "total",
    articles: dict[str, Article] | None = None,
) -> list[IndicatorRow]:
    """Aggregate verdicts into one IndicatorRow per group plus a total row.

    by="discipline" / "region" require the articles mapping for group labels;
    by="total" emits the total row alone. Rows sort by group label and the
    per-group counts always sum to the total row's.
    """
    if by not in GROUPINGS:
        raise ValueError(f"unknown grouping: {by!r}")
    if by == "total":
        return [_row(TOTAL_LABEL, verdicts)]
    if articles is None:
        raise ValueError(f"grouping by {by!r} requires the article metadata")
    groups: dict[str, list[ArticleVerdict]] = {}
    for v in verdicts:
        article = articles.get(v.article_id)
        if article is None:
            raise ValueError(f"verdict references unknown article {v.article_id!r}")
        label = getattr(article, by) or "Unknown"
        groups.setdefault(label, []).append(v)
    rows = [_row(label, groups[label]) for label in sorted(groups)]
    rows.append(_row(TOTAL_LABEL, verdicts))
    return rows


def trace_coverage(verdicts: list[ArticleVerdict]) -> TraceCoverage:
    """Share of articles carrying reasoning traces, overall and per category."""
    n = len(verdicts)
    any_count = sum(1 for v in verdicts
                    if v.has_generation_trace or v.has_reuse_trace)
    gen = sum(1 for v in verdicts if v.has_generation_trace)
    reuse = sum(1 for v in verdicts if v.has_reuse_trace)
    return TraceCoverage(
        articles=n,
        any_count=any_count, any_pct=percent_half_up(any_count, n),
        generation_count=gen, generation_pct=percent_half_up(gen, n),
        reuse_count=reuse, reuse_pct=percent_half_up(reuse, n),
    )


def accession_stats(verdicts: list[ArticleVerdict]) -> AccessionStats:
    """Accession-bearing article share and unique reused accessions."""
    n = len(verdicts)
    with_acc = sum(1 for v in verdicts if v.has_accession)
    unique = set().union(*(v.reused_accessions for v in verdicts))
    return AccessionStats(
        articles=n,
        articles_with_accession=with_acc,
        articles_with_accession_pct=percent_one_decimal(with_acc, n),
        unique_reused_accessions=len(unique),
        accessions=tuple(sorted(unique)),
    )


# ---------------------------------------------------------------------------
# File interfaces

INDICATOR_CSV_COLUMNS = tuple(f.name for f in fields(IndicatorRow))


def save_indicator_rows(rows: Iterable[IndicatorRow], path: str | Path) -> str:
    return write_csv(path, INDICATOR_CSV_COLUMNS, map(astuple, rows))


def save_summary(trace: TraceCoverage, accessions: AccessionStats,
                 path: str | Path) -> str:
    payload = {
        "articles": trace.articles,
        "trace_coverage": {
            "any": {"count": trace.any_count, "pct": trace.any_pct},
            "generation": {"count": trace.generation_count,
                           "pct": trace.generation_pct},
            "reuse": {"count": trace.reuse_count, "pct": trace.reuse_pct},
        },
        "accessions": {
            "articles_with_accession": accessions.articles_with_accession,
            "articles_with_accession_pct": accessions.articles_with_accession_pct,
            "unique_reused_accessions": accessions.unique_reused_accessions,
            "values": list(accessions.accessions),
        },
    }
    return write_json(path, payload)


def save_verdicts(verdicts: Iterable[ArticleVerdict], path: str | Path) -> str:
    return write_jsonl(path, map(field_dict, verdicts))
