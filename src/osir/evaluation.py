"""Multi-sample evaluation against gold: pass@1 / pass@k metrics and flagging.

Each parsed sample is scored by scoring.accuracy_reward, and its sub_scores
are the per-field scores: the same values as the rows of rewards.jsonl.
Booleans score by accuracy, evidence lists by matching F1 at the field
kind's threshold. With k samples per article, pass@1 averages over every
sample while pass@k takes the best sample per article, so pass@k always
dominates pass@1. Unparseable samples count as wrong (F1 zero): excluding
them would flatter the model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from .extraction import (
    BOOLEAN_FIELDS,
    ExtractionRecord,
    GoldAnnotation,
    LIST_FIELDS,
    ParseOutcome,
    Parsed,
    SCORED_FIELDS,
)
from .grounding import DEFAULT_THRESHOLDS, Thresholds
from .jsonl import write_jsonl
from .scoring import accuracy_reward

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


def group_samples(samples: Iterable[Parsed]) -> list[SampleSet]:
    """(article_id, sample_index, outcome) triples as one SampleSet per
    article, in article-id order, each with its outcomes by sample index."""
    by_article: dict[str, dict[int, ParseOutcome]] = {}
    for article_id, sample_index, outcome in samples:
        by_article.setdefault(article_id, {})[sample_index] = outcome
    return [SampleSet(article_id, tuple(o for _, o in sorted(indexed.items())))
            for article_id, indexed in sorted(by_article.items())]


def build_sample_sets(samples: list[Parsed],
                      samples_per_article: int | None = None) -> list[SampleSet]:
    """Group parse_stage's samples into per-article SampleSets.

    Every article must carry the same sample count with contiguous indices
    0..k-1; pass samples_per_article to also pin k explicitly.
    """
    indices: dict[str, set[int]] = {}
    for article_id, sample_index, _ in samples:
        indices.setdefault(article_id, set()).add(sample_index)
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
    return group_samples(samples)


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


#: Per SampleSet, in order: each sample's accuracy_reward sub_scores, by
#: sample index, {} for an unparsed sample: the sub_scores of rewards.jsonl.
SampleScores = list[list[dict[str, float]]]


def score_samples(
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> SampleScores:
    """accuracy_reward's sub_scores of every sample of *samples*, so that
    the report and the review flags share one scoring of each sample."""
    by_id = _gold_map(gold, samples)
    return [[accuracy_reward(o.record, by_id[s.article_id], thresholds)[1]
             if o.parsed else {} for o in s.outcomes] for s in samples]


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
    return build_eval_report(samples, gold, pass1_mode).boolean_fields[field]


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
    report = build_eval_report(samples, gold, pass1_mode,
                               Thresholds(threshold, threshold))
    return report.list_fields[field]


#: Best-sample F1 below which flag_disagreements flags a list field.
DEFAULT_F1_FLOOR = 0.5


def flag_disagreements(
    samples: list[SampleSet],
    gold: list[GoldAnnotation],
    f1_floor: float = DEFAULT_F1_FLOOR,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    scores: SampleScores | None = None,
) -> list[FlaggedArticle]:
    """Articles whose samples disagree with gold enough to warrant review.

    Flags when the majority vote of parsed samples contradicts gold on either
    boolean (ties count as False), or when any list field's best-sample F1
    falls below the floor. *scores* is score_samples' result for *samples*,
    when the caller already has it.
    """
    by_id = _gold_map(gold, samples)
    if scores is None:
        scores = score_samples(samples, gold, thresholds)
    flagged: list[FlaggedArticle] = []
    for s, article in zip(samples, scores):
        want = by_id[s.article_id].record
        reasons: list[str] = []
        parsed = [o.record for o in s.outcomes if o.parsed]
        for name in BOOLEAN_FIELDS:
            if majority_vote(parsed, name) != getattr(want, name):
                reasons.append(f"{name} majority disagreement")
        for name in LIST_FIELDS:
            # An unparsed sample scores 0, the least F1, so the best over
            # every sample is the best over the parsed ones (0 if none).
            best = max([sub.get(name, 0.0) for sub in article], default=0.0)
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
    scores: SampleScores | None = None,
) -> EvalReport:
    """pass@1 and pass@k of all ten scored fields; an unparsed sample scores
    0. pass@1 averages a field's score over every (article, sample) pair
    ("mean" mode) or over first samples only ("first" mode); pass@k averages
    each article's best sample. *scores* is score_samples' result for
    *samples*, when the caller already has it."""
    if pass1_mode not in PASS1_MODES:
        raise ValueError(f"unknown pass@1 mode: {pass1_mode!r}")
    if not samples:
        raise EvaluationError("no samples")
    if scores is None:
        scores = score_samples(samples, gold, thresholds)
    metrics = {}
    for name in SCORED_FIELDS:
        pass1: list[float] = []
        best: list[float] = []
        for article in scores:
            field = [sub.get(name, 0.0) for sub in article]
            pass1.extend(field[:1] if pass1_mode == "first" else field)
            best.append(max(field, default=0.0))
        metrics[name] = FieldMetrics(pass_at_1=sum(pass1) / len(pass1),
                                     pass_at_k=sum(best) / len(best))
    return EvalReport(
        articles=len(samples),
        samples_per_article=len(samples[0].outcomes),
        pass1_mode=pass1_mode,
        boolean_fields={name: metrics[name] for name in BOOLEAN_FIELDS},
        list_fields={name: metrics[name] for name in LIST_FIELDS},
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
    w = [max(len(r[i]) for r in rows + [header]) for i in range(3)]
    return "\n".join(f"{name:<{w[0]}}  {p1:>{w[1]}}  {pk:>{w[2]}}"
                     for name, p1, pk in [header, ["-" * n for n in w], *rows])


def save_report(report: EvalReport, path: str | Path) -> str:
    return write_jsonl(path, [asdict(report)])
