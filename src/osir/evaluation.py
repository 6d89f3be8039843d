"""Multi-sample evaluation against gold: pass@1 / pass@k metrics and flagging.

Boolean fields are scored by accuracy, evidence lists by matching F1. With k
samples per article, pass@1 averages over every sample while pass@k takes the
best sample per article, so pass@k always dominates pass@1. Unparseable
samples count as wrong (F1 zero): excluding them would flatter the model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

from .extraction import (
    BOOLEAN_FIELDS,
    ExtractionRecord,
    GoldAnnotation,
    LIST_FIELDS,
    ParseOutcome,
    RawCompletion,
    parse_extraction,
)
from .grounding import DEFAULT_THRESHOLDS, Thresholds
from .jsonl import write_json
from .scoring import field_f1, match_sets

PASS1_MODES = ("mean", "first")


@dataclass(frozen=True)
class SampleSet:
    """The k parse outcomes for one article, ordered by sample index."""

    article_id: str
    outcomes: tuple[ParseOutcome, ...]


@dataclass(frozen=True)
class FieldMetrics:
    pass_at_1: float
    pass_at_k: float


@dataclass(frozen=True)
class EvalReport:
    articles: int
    samples_per_article: int
    pass1_mode: str
    boolean_fields: dict[str, FieldMetrics]
    list_fields: dict[str, FieldMetrics]
    config: dict


@dataclass(frozen=True)
class FlaggedArticle:
    article_id: str
    reasons: tuple[str, ...]


class EvaluationError(ValueError):
    pass


def group_samples(
    samples: Iterable[tuple[str, int, ParseOutcome]],
) -> list[SampleSet]:
    """(article_id, sample_index, outcome) triples as one SampleSet per
    article, in article-id order, each with its outcomes by sample index."""
    by_article: dict[str, dict[int, ParseOutcome]] = {}
    for article_id, sample_index, outcome in samples:
        by_article.setdefault(article_id, {})[sample_index] = outcome
    return [SampleSet(article_id, tuple(o for _, o in sorted(indexed.items())))
            for article_id, indexed in sorted(by_article.items())]


def build_sample_sets(completions: list[RawCompletion],
                      samples_per_article: int | None = None) -> list[SampleSet]:
    """Group completions into per-article SampleSets, parsing each sample.

    Every article must carry the same sample count with contiguous indices
    0..k-1; pass samples_per_article to also pin k explicitly.
    """
    indices: dict[str, set[int]] = {}
    for c in completions:
        indices.setdefault(c.article_id, set()).add(c.sample_index)
    counts = {len(v) for v in indices.values()}
    if len(counts) > 1:
        raise EvaluationError(
            f"articles carry unequal sample counts: {sorted(counts)}")
    k = counts.pop() if counts else samples_per_article
    if samples_per_article is not None and k != samples_per_article:
        raise EvaluationError(
            f"expected {samples_per_article} samples per article, found {k}")
    for article_id in sorted(indices):
        if indices[article_id] != set(range(k)):
            raise EvaluationError(
                f"article {article_id!r}: sample indices are not 0..{k - 1}")
    return group_samples((c.article_id, c.sample_index, parse_extraction(c))
                         for c in completions)


def _gold_map(gold: list[GoldAnnotation],
              samples: list[SampleSet]) -> dict[str, GoldAnnotation]:
    by_id = {g.article_id: g for g in gold}
    for s in samples:
        if s.article_id not in by_id:
            raise EvaluationError(f"missing gold for article {s.article_id!r}")
    return by_id


def majority_vote(records: list[ExtractionRecord], field: str) -> bool:
    """Whether more than half of *records* set the boolean *field*; an exact
    tie, and no records, give False."""
    return sum(1 for r in records if getattr(r, field)) * 2 > len(records)


def _list_f1(field: str, threshold: float):
    """Per-sample score of an evidence list: matching F1 against gold."""
    return lambda record, want: field_f1(
        match_sets(getattr(record, field), getattr(want, field), threshold))


def _pass_metrics(
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    pass1_mode: str,
    score: Callable[[ExtractionRecord, ExtractionRecord], float],
) -> FieldMetrics:
    """pass@1 and pass@k of a per-sample score; unparsed samples score 0.

    pass@1 averages the score over every (article, sample) pair ("mean"
    mode) or over first samples only ("first" mode); pass@k averages each
    article's best sample.
    """
    if pass1_mode not in PASS1_MODES:
        raise ValueError(f"unknown pass@1 mode: {pass1_mode!r}")
    if not samples:
        raise EvaluationError("no samples")
    by_id = _gold_map(gold, samples)
    pass1: list[float] = []
    best: list[float] = []
    for s in samples:
        want = by_id[s.article_id].record
        scores = [score(o.record, want) if o.parsed else 0.0
                  for o in s.outcomes]
        pass1.extend(scores[:1] if pass1_mode == "first" else scores)
        best.append(max(scores, default=0.0))
    return FieldMetrics(pass_at_1=sum(pass1) / len(pass1),
                        pass_at_k=sum(best) / len(best))


def evaluate_boolean_field(
    field: str,
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    pass1_mode: str = "mean",
) -> FieldMetrics:
    """Accuracy of one boolean field at pass@1 and pass@k.

    A sample is correct iff it parsed and its boolean equals gold; pass@k is
    the fraction of articles with at least one correct sample.
    """
    return _pass_metrics(
        samples, gold, pass1_mode,
        lambda record, want: float(getattr(record, field)
                                   == getattr(want, field)))


def evaluate_list_field(
    field: str,
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    threshold: float,
    pass1_mode: str = "mean",
) -> FieldMetrics:
    """Matching F1 of one evidence-list field at pass@1 and pass@k.

    pass@1 averages per-sample F1; pass@k averages each article's best
    sample F1.
    """
    return _pass_metrics(samples, gold, pass1_mode,
                         _list_f1(field, threshold))


def flag_disagreements(
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    f1_floor: float = 0.5,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> list[FlaggedArticle]:
    """Articles whose samples disagree with gold enough to warrant review.

    Flags when the majority vote of parsed samples contradicts gold on either
    boolean (ties count as False), or when any list field's best-sample F1
    falls below the floor.
    """
    by_id = _gold_map(gold, samples)
    flagged: list[FlaggedArticle] = []
    for s in samples:
        want = by_id[s.article_id].record
        reasons: list[str] = []
        parsed = [o.record for o in s.outcomes if o.parsed]
        for name in BOOLEAN_FIELDS:
            if majority_vote(parsed, name) != getattr(want, name):
                reasons.append(f"{name} majority disagreement")
        for name in LIST_FIELDS:
            f1 = _list_f1(name, thresholds.for_field(name))
            best = max((f1(r, want) for r in parsed), default=0.0)
            if best < f1_floor:
                reasons.append(
                    f"{name} best F1 {best:.2f} below floor {f1_floor:.2f}")
        if reasons:
            flagged.append(FlaggedArticle(s.article_id, tuple(reasons)))
    return flagged


def build_eval_report(
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    pass1_mode: str = "mean",
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> EvalReport:
    """Evaluate all ten scored fields and assemble the report."""
    if not samples:
        raise EvaluationError("no samples")
    k = len(samples[0].outcomes)
    booleans = {
        name: evaluate_boolean_field(name, samples, gold, pass1_mode)
        for name in BOOLEAN_FIELDS
    }
    lists = {
        name: evaluate_list_field(name, samples, gold,
                                  thresholds.for_field(name), pass1_mode)
        for name in LIST_FIELDS
    }
    return EvalReport(
        articles=len(samples),
        samples_per_article=k,
        pass1_mode=pass1_mode,
        boolean_fields=booleans,
        list_fields=lists,
        config={
            "threshold_identifier": thresholds.identifier,
            "threshold_citation": thresholds.citation,
        },
    )


def render_report_table(report: EvalReport) -> str:
    """Aligned plain-text table: field, pass@1, pass@k.

    Boolean accuracies print as percentages, list F1s with three decimals.
    """
    k = report.samples_per_article
    header = ("field", "pass@1", f"pass@{k}")
    rows: list[tuple[str, str, str]] = []
    for name, m in report.boolean_fields.items():
        rows.append((name, f"{m.pass_at_1 * 100:.1f}%", f"{m.pass_at_k * 100:.1f}%"))
    for name, m in report.list_fields.items():
        rows.append((name, f"{m.pass_at_1:.3f}", f"{m.pass_at_k:.3f}"))
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(3)]

    def line(cells) -> str:
        name, p1, pk = cells
        return (f"{name:<{widths[0]}}  {p1:>{widths[1]}}  "
                f"{pk:>{widths[2]}}")

    return "\n".join(map(line, [header, ["-" * w for w in widths], *rows]))


def save_report(report: EvalReport, path: str | Path) -> None:
    write_json(path, asdict(report))
