"""Partial-credit agreement with gold annotations and the composite reward.

The composite reward multiplies three components, each in [0, 1]:
format (did the completion parse), grounding (are extracted strings supported
by the article), and accuracy (does the record agree with the gold
annotation). A failure on any one component drags the whole reward down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Article
from .extraction import (
    BOOLEAN_FIELDS,
    ExtractionRecord,
    GoldAnnotation,
    LIST_FIELDS,
    RawCompletion,
    SCORED_FIELDS,
    format_reward,
    parse_extraction,
)
from .grounding import DEFAULT_THRESHOLDS, Thresholds, embellishment_reward
from .text import normalize_text, similarity


@dataclass(frozen=True)
class SetMatching:
    """One-to-one matching between predicted and gold string sets."""

    pairs: tuple[tuple[str, str, float], ...]
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class RewardBreakdown:
    """Components and composite of the reward for one completion."""

    f: int
    e: float
    v: float
    r: float
    sub_scores: dict[str, float]


def match_sets(
    predicted: list[str] | tuple[str, ...],
    gold: list[str] | tuple[str, ...],
    threshold: float,
) -> SetMatching:
    """Greedy highest-similarity-first one-to-one matching.

    Similarities are computed between normalized strings; a pair counts only
    when its similarity reaches *threshold*. Ties break deterministically by
    (similarity desc, predicted index asc, gold index asc). Greedy matching
    can in principle pair one fewer than an optimal assignment, but is
    deterministic and near-optimal at evidence-list sizes.
    """
    pred_norm = [normalize_text(p) for p in predicted]
    gold_norm = [normalize_text(g) for g in gold]
    scored: list[tuple[float, int, int]] = []
    for i, p in enumerate(pred_norm):
        for j, g in enumerate(gold_norm):
            # levenshtein >= the length gap, so this bounds the similarity
            # from above; pairs below the threshold on it are never kept.
            longer = max(len(p), len(g))
            if longer and 1.0 - abs(len(p) - len(g)) / longer < threshold:
                continue
            sim = similarity(p, g)
            if sim >= threshold:
                scored.append((sim, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))

    used_pred: set[int] = set()
    used_gold: set[int] = set()
    pairs: list[tuple[str, str, float]] = []
    for sim, i, j in scored:
        if i in used_pred or j in used_gold:
            continue
        used_pred.add(i)
        used_gold.add(j)
        pairs.append((predicted[i], gold[j], sim))

    tp = len(pairs)
    return SetMatching(pairs=tuple(pairs), tp=tp,
                       fp=len(predicted) - tp, fn=len(gold) - tp)


def field_f1(matching: SetMatching) -> float:
    """F1 = 2*tp / (2*tp + fp + fn); both sides empty counts as agreement (1)."""
    denom = 2 * matching.tp + matching.fp + matching.fn
    if denom == 0:
        return 1.0
    return 2 * matching.tp / denom


def accuracy_reward(
    record: ExtractionRecord,
    gold: GoldAnnotation,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    article_id: str | None = None,
) -> tuple[float, dict[str, float]]:
    """Agreement with the gold annotation, with partial credit on lists.

    Boolean fields score 1 when equal, else 0; each evidence list scores its
    matching F1. The aggregate is the unweighted mean of the ten sub-scores
    (descriptions are not scored). Returns (v, sub_scores).
    """
    if article_id is not None and article_id != gold.article_id:
        raise ValueError(
            f"article id mismatch: record is for {article_id!r}, "
            f"gold is for {gold.article_id!r}")
    sub: dict[str, float] = {}
    for name in BOOLEAN_FIELDS:
        sub[name] = 1.0 if getattr(record, name) == getattr(gold.record, name) else 0.0
    for name in LIST_FIELDS:
        matching = match_sets(getattr(record, name), getattr(gold.record, name),
                              thresholds.for_field(name))
        sub[name] = field_f1(matching)
    v = sum(sub[name] for name in SCORED_FIELDS) / len(SCORED_FIELDS)
    return v, sub


def total_reward(
    article: Article,
    raw: RawCompletion,
    gold: GoldAnnotation,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    embellishment_mode: str = "fraction",
) -> RewardBreakdown:
    """Compose format, grounding, and accuracy into one reward.

    An unparseable completion short-circuits to all-zero components so the
    breakdown stays total and r = f * e * v holds exactly.
    """
    if raw.article_id != article.id:
        raise ValueError(
            f"completion is for article {raw.article_id!r}, got {article.id!r}")
    outcome = parse_extraction(raw)
    f = format_reward(outcome)
    if f == 0:
        return RewardBreakdown(f=0, e=0.0, v=0.0, r=0.0, sub_scores={})
    assert outcome.record is not None
    report = embellishment_reward(article, outcome.record, thresholds,
                                  mode=embellishment_mode)
    v, sub = accuracy_reward(outcome.record, gold, thresholds,
                             article_id=raw.article_id)
    return RewardBreakdown(f=f, e=report.e, v=v, r=f * report.e * v,
                           sub_scores=sub)
