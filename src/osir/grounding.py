"""Fuzzy grounding of extracted strings in article text.

A string is grounded when some substring window of the normalized article is
similar enough to it. The window search is exact per the contract below.

Contract for the window search (shared with the brute-force test oracle):
  - both inputs are normalized (casefold, whitespace collapsed);
  - an exact substring occurrence short-circuits to score 1.0;
  - otherwise windows of length ceil(0.8*len(candidate)) ..
    floor(1.2*len(candidate)) slide over the article at stride 1;
  - window similarity = 1 - levenshtein / max(len(candidate), len(window));
  - the score is the maximum window similarity; if the article is shorter
    than the smallest admissible window, the whole article is the window.
    Ties go to the shortest window, then the leftmost start.

Only windows that could reach the threshold are scored. A window scoring at
least t is within edit distance k = int((1 - t) * floor(1.2 L)) + 1 of the
candidate, so by the pigeonhole rule (Baeza-Yates & Navarro) one of k + 1
contiguous pieces of the candidate occurs verbatim in it, within k of the
piece's own offset. The window starts found by str.find on the pieces are
scored with the bit-parallel kernel of text.prefix_distances, which gives the
distance to every admissible window length from one start in one pass. A
match found this way is the full search's (score, span). Only the reward
path uses the filter, because it needs just the decision. The full search, a
dynamic program vectorized with numpy across all start positions, serves
fuzzy_contains and filter_gold, which report an exact score for unmatched
strings too, and the reward path when the filter does not apply (k + 1 > L,
or an article shorter than the smallest window) or when the pieces are so
common that scoring their starts would cost more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Article
from .extraction import ExtractionRecord, GoldAnnotation, field_kind
from .text import char_masks, normalize_text, prefix_distances, similarity

_SENTINEL = np.uint32(0xFFFFFFFF)  # padding code point, never equals a real char


@dataclass(frozen=True)
class Thresholds:
    """Per-field-kind similarity thresholds.

    Identifiers must be near-exact to be actionable; citation strings suffer
    formatting noise, so they get a little more slack.
    """

    identifier: float = 0.95
    citation: float = 0.90

    def for_kind(self, kind: str) -> float:
        return self.citation if kind == "citation" else self.identifier

    def for_field(self, name: str) -> float:
        return self.for_kind(field_kind(name))


DEFAULT_THRESHOLDS = Thresholds()

EMBELLISHMENT_MODES = ("fraction", "binary")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of grounding one candidate string.

    A matched result carries the exact best window score and its span. An
    unmatched result from fuzzy_contains or filter_gold carries the exact
    best score; one from embellishment_reward, which needs only the decision,
    carries a lower bound on it that is below the threshold.
    """

    candidate: str
    matched: bool
    score: float
    span: tuple[int, int] | None = None  # offsets into the normalized article


@dataclass(frozen=True)
class GroundingReport:
    """Per-string grounding results for one record against one article."""

    matches: dict[str, tuple[MatchResult, ...]]
    grounded_count: int
    total_count: int
    e: float


def _codes(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def _window_lengths(length: int) -> tuple[int, int]:
    """Admissible window lengths ceil(0.8 * length) .. floor(1.2 * length)."""
    return max(1, -(-4 * length // 5)), 6 * length // 5


def _best_window(art: str, cand: str) -> tuple[float, tuple[int, int]]:
    """Maximum windowed similarity of *cand* over normalized article *art*.

    Returns (score, span). Inputs must already be normalized; cand non-empty.
    """
    n, length = len(art), len(cand)
    lo, hi = _window_lengths(length)
    if n < lo:
        return similarity(cand, art), (0, n)
    hi = min(hi, n)

    starts = n - lo + 1
    cand_codes = _codes(cand)
    padded = np.concatenate(
        [_codes(art), np.full(hi, _SENTINEL, dtype=np.uint32)])

    # prev[i, s] = levenshtein(cand[:i], art[s : s + j]) after processing j
    # window characters; advancing j is one vectorized sweep over all starts.
    prev = np.tile(np.arange(length + 1, dtype=np.int32)[:, None], (1, starts))
    best_score = -1.0
    best_span = (0, 0)
    for j in range(1, hi + 1):
        wchar = padded[j - 1 : j - 1 + starts]
        cur = np.empty_like(prev)
        cur[0] = j
        for i in range(1, length + 1):
            cell = prev[i - 1] + (cand_codes[i - 1] != wchar)
            np.minimum(cell, prev[i] + 1, out=cell)
            np.minimum(cell, cur[i - 1] + 1, out=cell)
            cur[i] = cell
        prev = cur
        if j < lo:
            continue
        valid = n - j + 1  # starts whose length-j window stays inside art
        if valid <= 0:
            break
        dist = cur[length, :valid]
        s_idx = int(np.argmin(dist))
        score = 1.0 - int(dist[s_idx]) / max(length, j)
        if score > best_score:
            best_score = score
            best_span = (s_idx, s_idx + j)
            if best_score >= 1.0:
                break
    return best_score, best_span


def _pigeonhole_window(
    art: str, cand: str, threshold: float
) -> tuple[float, tuple[int, int]] | None:
    """Best window of *cand* in *art* among the starts that can reach
    *threshold*, as (score, span).

    When the best window overall reaches the threshold, the result equals
    _best_window's. Otherwise the score is below the threshold: the best of
    the starts scored, or 0.0 when there were none. None when the filter
    does not apply, or would cost more than the full search, which must
    then run.
    """
    n, length = len(art), len(cand)
    lo, hi = _window_lengths(length)
    if n < lo or not 0 < threshold <= 1:  # the latter also rejects NaN
        return None
    # A window of length j scoring >= threshold has distance
    # <= (1 - threshold) * max(length, j) <= (1 - threshold) * hi; the + 1
    # keeps float rounding of that product on the safe side.
    k = int((1 - threshold) * hi) + 1
    if k + 1 > length:
        return None
    # Scoring a start costs about 1 us per window character; the full
    # search costs about 10 us + 2 ns per article character for each of its
    # length * hi sweeps (CPython 3.11, numpy 2, 2.1 GHz Xeon). When pieces
    # are so common that the filter would cost more, the full search runs.
    # On a 42k-character article the filter's cost over the full search's
    # tracks len(starts) / max_starts and crosses 1 near the cutoff.
    max_starts = length * (n + 5000) // 500
    pieces = k + 1
    last_start = n - lo
    starts: set[int] = set()
    for p in range(pieces):
        offset = p * length // pieces
        piece = cand[offset:(p + 1) * length // pieces]
        q = art.find(piece)
        while q != -1:
            starts.update(range(max(0, q - offset - k),
                                min(last_start, q - offset + k) + 1))
            if len(starts) > max_starts:
                return None
            q = art.find(piece, q + 1)

    masks = char_masks(cand)
    best_score, best_span = 0.0, (0, 0)
    for s in sorted(starts):
        dists = prefix_distances(cand, art[s:s + hi], masks)
        for j in range(lo, len(dists) + 1):
            score = 1.0 - dists[j - 1] / max(length, j)
            if score > best_score or (
                    score == best_score and j < best_span[1] - best_span[0]):
                best_score, best_span = score, (s, s + j)
    return best_score, best_span


def _fuzzy_contains_normalized(
    art_norm: str, candidate: str, threshold: float, exact_score: bool = True
) -> MatchResult:
    cand_norm = normalize_text(candidate)
    if not cand_norm:
        raise ValueError("candidate must be non-empty after normalization")
    idx = art_norm.find(cand_norm)
    if idx != -1:
        return MatchResult(candidate=candidate, matched=True, score=1.0,
                           span=(idx, idx + len(cand_norm)))
    found = None if exact_score else _pigeonhole_window(
        art_norm, cand_norm, threshold)
    if found is None:
        found = _best_window(art_norm, cand_norm)
    score, span = found
    matched = score >= threshold
    return MatchResult(candidate=candidate, matched=matched, score=score,
                       span=span if matched and span[0] < span[1] else None)


def fuzzy_contains(article_text: str, candidate: str, threshold: float) -> MatchResult:
    """Decide whether *candidate* occurs (fuzzily) in *article_text*.

    Matching is insensitive to case and whitespace variation on both sides.
    threshold must lie in (0, 1].
    """
    return _fuzzy_contains_normalized(normalize_text(article_text), candidate,
                                      threshold)


def _prepare_candidate(kind: str, value: str) -> str:
    # Markdown conversion tends to glue trailing slashes/punctuation onto URLs.
    if kind == "url":
        return value.rstrip("/.,;:!?)]}>\"'") or value
    return value


def embellishment_reward(
    article: Article,
    record: ExtractionRecord,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    mode: str = "fraction",
) -> GroundingReport:
    """Grounding component of the reward: the share of evidence strings
    supported by the article text.

    Every string in the eight evidence lists is tested with its field-kind
    threshold. Booleans and descriptions are judgments, not extractions, and
    are not grounded. With no evidence strings at all, e = 1 (nothing could
    have been embellished). mode="binary" collapses e to {0, 1}: any
    ungrounded string zeroes it.
    """
    if mode not in EMBELLISHMENT_MODES:
        raise ValueError(f"unknown embellishment mode: {mode!r}")
    art_norm = article.normalized_body
    matches: dict[str, tuple[MatchResult, ...]] = {}
    grounded = 0
    total = 0
    for name, values in record.lists().items():
        kind = field_kind(name)
        threshold = thresholds.for_kind(kind)
        results = []
        for value in values:
            result = _fuzzy_contains_normalized(
                art_norm, _prepare_candidate(kind, value), threshold,
                exact_score=False)
            results.append(result)
            total += 1
            grounded += result.matched
        matches[name] = tuple(results)
    if total == 0:
        e = 1.0
    elif mode == "binary":
        e = 1.0 if grounded == total else 0.0
    else:
        e = grounded / total
    return GroundingReport(matches=matches, grounded_count=grounded,
                           total_count=total, e=e)


@dataclass(frozen=True)
class RemovalDiagnostic:
    """One gold evidence string that could not be recovered from its article."""

    article_id: str
    field: str
    string: str
    best_score: float
    threshold: float


@dataclass(frozen=True)
class RemovedAnnotation:
    annotation: GoldAnnotation
    diagnostics: tuple[RemovalDiagnostic, ...]


def filter_gold(
    corpus: list[Article],
    annotations: list[GoldAnnotation],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> tuple[list[GoldAnnotation], list[RemovedAnnotation]]:
    """Drop gold annotations whose evidence is unrecoverable from the text.

    An annotation is removed iff at least one of its evidence strings fails
    fuzzy matching against its article (e.g. lost to markdown conversion or
    truncation). kept + removed partition the input; diagnostics name every
    failing string with its best score.
    """
    by_id = {a.id: a for a in corpus}
    kept: list[GoldAnnotation] = []
    removed: list[RemovedAnnotation] = []
    for ann in annotations:
        article = by_id.get(ann.article_id)
        if article is None:
            raise KeyError(
                f"gold annotation references unknown article {ann.article_id!r}")
        art_norm = article.normalized_body
        diagnostics: list[RemovalDiagnostic] = []
        for name, values in ann.record.lists().items():
            kind = field_kind(name)
            threshold = thresholds.for_kind(kind)
            for value in values:
                result = _fuzzy_contains_normalized(
                    art_norm, _prepare_candidate(kind, value), threshold)
                if not result.matched:
                    diagnostics.append(RemovalDiagnostic(
                        article_id=ann.article_id, field=name, string=value,
                        best_score=result.score, threshold=threshold))
        if diagnostics:
            removed.append(RemovedAnnotation(ann, tuple(diagnostics)))
        else:
            kept.append(ann)
    return kept, removed
