"""Partial-credit agreement with gold annotations and the composite reward.

The composite reward multiplies three components, each in [0, 1]:
format (did the completion parse), grounding (are extracted strings supported
by the article), and accuracy (does the record agree with the gold
annotation). A failure on any one component drags the whole reward down.
Set matching screens pairs with text.pieces, as grounding does, and walks
augmenting paths on an explicit stack, so no recursion limit bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Article
from .extraction import (
    BOOLEAN_FIELDS,
    ExtractionRecord,
    GoldAnnotation,
    ParseOutcome,
    RawCompletion,
    SCORED_FIELDS,
    field_kind,
    format_reward,
    parse_extraction,
)
from .grounding import DEFAULT_THRESHOLDS, Thresholds, embellishment_reward
from .text import normalize_text, pieces, similarity


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


def _may_reach(a: str, b: str, threshold: float) -> bool:
    """False only where similarity(a, b) < threshold is certain without
    computing it: from the length gap, or when fewer than two of the
    text.pieces of the shorter string at the longer length occur in the
    longer one."""
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    m = len(longer)
    # levenshtein >= the length gap, so this bounds the similarity from above
    if m and 1.0 - (m - len(shorter)) / m < threshold:
        return False
    split = pieces(shorter, threshold, m)
    if split is None:
        return True
    votes = 0
    for p, (_, piece) in enumerate(split):
        if votes + len(split) - p < 2:  # too few pieces left for two votes
            return False
        votes += piece in longer
        if votes == 2:
            return True
    return False


def match_sets(
    predicted: list[str] | tuple[str, ...],
    gold: list[str] | tuple[str, ...],
    threshold: float,
) -> SetMatching:
    """Maximum one-to-one matching of pairs similar enough, seeded greedily.

    Similarities are computed between normalized strings; a pair counts only
    when its similarity reaches *threshold*. Pairs that cannot reach it,
    by their length gap or by the two-vote rule of _may_reach, are skipped
    without computing the similarity. The greedy matching takes pairs
    highest similarity first, ties broken by (predicted index, gold index).
    Kuhn's augmenting paths then extend it to a maximum matching (the most
    pairs); an augmentation only adds pairs, so where greedy is already
    maximum the pairs are greedy's. Pairs are listed by (similarity desc,
    predicted index, gold index).
    """
    if not predicted or not gold:
        return SetMatching((), 0, len(predicted), len(gold))
    pred_norm = [normalize_text(p) for p in predicted]
    gold_norm = [normalize_text(g) for g in gold]
    scored: list[tuple[float, int, int]] = []
    for i, p in enumerate(pred_norm):
        for j, g in enumerate(gold_norm):
            if _may_reach(p, g, threshold):
                sim = similarity(p, g)
                if sim >= threshold:
                    scored.append((sim, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))

    owner: dict[int, tuple[float, int]] = {}  # gold j -> (sim, predicted i)
    used: set[int] = set()
    edges: list[list[tuple[float, int]]] = [[] for _ in predicted]
    for sim, i, j in scored:
        edges[i].append((sim, j))
        if i not in used and j not in owner:
            used.add(i)
            owner[j] = (sim, i)

    def augment(root: int) -> None:
        """Match predicted *root* along an augmenting path, if there is one:
        a depth-first search on a stack of frames [predicted i, its untried
        edges, the edge it took], one per predicted index on the path."""
        seen: set[int] = set()
        frames = [[root, iter(edges[root]), None]]
        while frames:
            frame = frames[-1]
            for sim, j in frame[1]:
                if j not in seen:
                    seen.add(j)
                    frame[2] = (sim, j)
                    if j not in owner:  # flip every edge of the path
                        for i, _, (sim, j) in frames:
                            owner[j] = (sim, i)
                        return
                    frames.append([owner[j][1], iter(edges[owner[j][1]]), None])
                    break
            else:  # no path from this frame: back up to the one below
                frames.pop()

    for i in range(len(predicted)):
        if i not in used:
            augment(i)
    pairs = tuple((predicted[i], gold[j], sim) for j, (sim, i) in sorted(
        owner.items(), key=lambda item: (-item[1][0], item[1][1], item[0])))
    tp = len(pairs)
    return SetMatching(pairs=pairs, tp=tp,
                       fp=len(predicted) - tp, fn=len(gold) - tp)


def field_f1(matching: SetMatching) -> float:
    """F1 = 2*tp / (2*tp + fp + fn); both sides empty counts as agreement (1)."""
    denom = 2 * matching.tp + matching.fp + matching.fn
    return 2 * matching.tp / denom if denom else 1.0


def field_score(name: str, record: ExtractionRecord, want: ExtractionRecord,
                thresholds: Thresholds) -> float:
    """One scored field of *record* against gold *want*: a boolean scores 1
    when equal, else 0, an evidence list its matching F1 at its field kind's
    threshold. Rewards, pass@k and review flags all score a field here."""
    if name in BOOLEAN_FIELDS:
        return 1.0 if getattr(record, name) == getattr(want, name) else 0.0
    return field_f1(match_sets(getattr(record, name), getattr(want, name),
                               thresholds.for_kind(field_kind(name))))


def accuracy_reward(
    record: ExtractionRecord,
    gold: GoldAnnotation,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> tuple[float, dict[str, float]]:
    """Agreement of *record* with its article's gold, partial credit on lists.

    v is the unweighted mean of the ten scored fields' field_score
    (descriptions are not scored). Returns (v, sub_scores).
    """
    sub = {name: field_score(name, record, gold.record, thresholds)
           for name in SCORED_FIELDS}
    v = sum(sub.values()) / len(SCORED_FIELDS)
    return v, sub


def total_reward(
    article: Article,
    raw: RawCompletion,
    gold: GoldAnnotation,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    embellishment_mode: str = "fraction",
) -> RewardBreakdown:
    """Compose format, grounding, and accuracy into one reward.

    Parses *raw* and scores the outcome with outcome_reward.
    """
    if raw.article_id != article.id:
        raise ValueError(
            f"completion is for article {raw.article_id!r}, got {article.id!r}")
    return outcome_reward(article, parse_extraction(raw), gold, thresholds,
                          embellishment_mode)


def outcome_reward(
    article: Article,
    outcome: ParseOutcome,
    gold: GoldAnnotation,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    embellishment_mode: str = "fraction",
) -> RewardBreakdown:
    """The reward of an already parsed completion of *article*.

    Gold for another article is a ValueError. An unparseable completion
    short-circuits to all-zero components so r = f * e * v holds exactly.
    """
    if article.id != gold.article_id:
        raise ValueError(
            f"article id mismatch: record is for {article.id!r}, "
            f"gold is for {gold.article_id!r}")
    f = format_reward(outcome)
    if f == 0:
        return RewardBreakdown(f=0, e=0.0, v=0.0, r=0.0, sub_scores={})
    assert outcome.record is not None
    report = embellishment_reward(article, outcome.record, thresholds,
                                  mode=embellishment_mode)
    v, sub = accuracy_reward(outcome.record, gold, thresholds)
    return RewardBreakdown(f=f, e=report.e, v=v, r=f * report.e * v,
                           sub_scores=sub)
