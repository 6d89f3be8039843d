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

One scanner, _best_window, runs the edit-distance recurrence of
text.prefix_distances for many window starts at once, each start one lane of
a Python int (the increased bit-parallelism of Hyyro, Fredriksson & Navarro).
Every string is decided on the marked starts, those of windows that could
reach the threshold t: two of the d + 2 text.pieces of the candidate at the
longest window length occur verbatim in such a window, each within d of the
piece's own offset. str.find on the pieces gives each hit a range of starts,
and a start is marked only where the ranges of two different pieces meet; a
match found among the marked starts is the full scan's (score, span). Where
text.pieces does not apply, or the article is shorter than the smallest
window, every start is scanned. A miss carries the best score of the marked
starts, a lower bound; fuzzy_contains and filter_gold's diagnostics scan
every start for its exact score.

Each distinct (prepared string, threshold) is decided once per Article
object and kept in Article.grounding_memo, so the k samples and the gold of
an article share one search; a miss's exact score is not kept. The memo lives
and dies with the Article; nothing is cached across loads of a corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Article
from .extraction import ExtractionRecord, GoldAnnotation, field_kind
from .identifiers import strip_trailing_punct
from .text import char_masks, normalize_text, pieces, similarity


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


DEFAULT_THRESHOLDS = Thresholds()

EMBELLISHMENT_MODES = ("fraction", "binary")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of grounding one candidate string.

    A matched result carries the exact best window score and its span. An
    unmatched result from fuzzy_contains carries the exact best score; one
    from embellishment_reward, which needs only the decision, carries a
    lower bound on it that is below the threshold: the best score of the
    starts the two-vote filter marks, 0.0 where it marks none.
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


def _window_lengths(length: int) -> tuple[int, int]:
    """Admissible window lengths ceil(0.8 * length) .. floor(1.2 * length)."""
    return max(1, -(-4 * length // 5)), 6 * length // 5


def _best_window(art: str, cand: str, starts: bytearray | None = None
                 ) -> tuple[float, tuple[int, int]]:
    """Maximum windowed similarity of *cand* over normalized article *art*.

    Returns (score, span). Inputs must already be normalized; cand non-empty.
    *starts*, one byte per start s (n - lo + 1 of them), marks with 1 the
    starts to score; the result is then the best of their windows, or
    (0.0, (0, 0)) when none is marked. None marks every start.
    """
    n, length = len(art), len(cand)
    lo, hi = _window_lengths(length)
    if n < lo:
        return similarity(cand, art), (0, n)
    if starts is None:
        starts = bytearray(b"\x01") * (n - lo + 1)
    # The scanned text is the piece art[a:b - 1 + hi] that the windows of
    # each run a..b-1 of marked starts read; pieces that touch are merged,
    # so the text is never longer than the article and a lane of a marked
    # start reads the same characters as in the article.
    runs = []
    a = starts.find(1)
    while a != -1:
        b = starts.find(0, a)
        if b == -1:
            b = len(starts)
        end = min(n, b - 1 + hi)
        if runs and a <= runs[-1][1]:
            runs[-1] = (runs[-1][0], end)
        else:
            runs.append((a, end))
        a = starts.find(1, b)
    if not runs:
        return 0.0, (0, 0)
    text = "".join(art[a:end] for a, end in runs)
    n = len(text)
    hi = min(hi, n)

    # The recurrence of text.prefix_distances, run for every start at once:
    # lane s, w bits wide, of each int below holds the state of the windows
    # starting at text[s]. A lane has length bits of pv/mv, a guard bit above
    # them for the carry of (eq & pv) + pv, and room for the distance, which
    # is < 2 ** bits, plus a flag bit at position bits (in `dist`).
    bits = max(length, hi).bit_length()
    size = max(length, bits) // 8 + 1  # bytes per lane
    w = 8 * size
    masks = char_masks(cand)
    lanes = bytearray(n * size)
    alphabet = set(text)
    for k in range((length + 7) // 8):  # byte k of every lane's mask
        table = {ord(c): masks.get(c, 0) >> 8 * k & 0xFF for c in alphabet}
        lanes[k::size] = text.translate(table).encode("latin-1")
    eqs = int.from_bytes(lanes, "little")  # lane s: masks[text[s]]

    count = n - lo + 1
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")
    # the lanes of marked starts, each a marks slice over its piece
    lanes = bytearray(count * size)
    lanes[::size] = b"".join(starts[a:end] for a, end in runs)[:count]
    wanted = int.from_bytes(lanes, "little")
    full = ones * ((1 << length) - 1)
    top = ones << (length - 1)
    pv, mv = full, 0
    dist = ones * (length + (1 << bits))  # every flag set
    best_score, best_lane, best_len = -1.0, 0, 0
    for j in range(1, hi + 1):
        # A window of j > length characters is at least j - length edits
        # away, and a longer one scores no higher: none can beat best_score.
        if j > length and 1.0 - (j - length) / j <= best_score:
            break
        # Step j feeds text[s + j - 1] to lane s. Only a carry out of pv can
        # cross into the next lane, so only pv is masked; row 0 of the DP
        # grows by one in every lane through `| ones`.
        eq = eqs >> (j - 1) * w
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ full)
        mh = pv & xh
        dist += ((ph & top) - (mh & top)) >> (length - 1)
        ph = (ph << 1) | ones
        pv = ((mh << 1) | ((xv | ph) ^ full)) & full
        mv = ph & xv
        if j < lo:
            continue
        # Wanted lanes s <= n - j hold a length-j window. d is the largest
        # distance that still beats best_score; subtracting d + 1 from each
        # of those lanes clears the flag of every lane at distance <= d.
        live = ones >> (j - lo) * w & wanted
        flags = live << bits
        m = max(length, j)
        d = min(m, int((1.0 - best_score) * m) + 1)
        while 1.0 - d / m <= best_score:
            d -= 1
        hits = flags & ~(dist - (d + 1) * live)
        if not hits:
            continue
        low = 0  # binary search for the least distance, then its lowest lane
        while low < d:
            mid = (low + d) // 2
            below = flags & ~(dist - (mid + 1) * live)
            if below:
                d, hits = mid, below
            else:
                low = mid + 1
        best_score = 1.0 - d / m
        best_lane, best_len = ((hits & -hits).bit_length() - 1) // w, j
        if best_score >= 1.0:
            break
    for a, end in runs:  # the piece of the winning lane, and its offset
        if best_lane < end - a:
            break
        best_lane -= end - a
    return best_score, (a + best_lane, a + best_lane + best_len)


def _pigeonhole_starts(art: str, cand: str, threshold: float
                       ) -> bytearray | None:
    """Marks, for _best_window, of the starts where hits of two different
    text.pieces of *cand* agree: every window scoring at least *threshold*
    starts at a marked start. None when the filter does not apply.
    """
    n, length = len(art), len(cand)
    lo, hi = _window_lengths(length)
    # a window reaching threshold holds two pieces, each within d of its offset
    split = pieces(cand, threshold, hi)
    if n < lo or split is None:
        return None
    d, count = len(split) - 2, n - lo + 1
    events = []  # (start, +1) and (end, -1) of each piece's merged ranges
    voters = 0  # pieces with a hit so far
    for p, (offset, piece) in enumerate(split):
        if voters + len(split) - p < 2:  # no start can get a second vote
            break
        ranges = []
        q = art.find(piece)
        while q != -1:
            a, b = max(0, q - offset - d), min(count, q - offset + d + 1)
            if ranges and a <= ranges[-1][1]:
                ranges[-1][1] = b
            elif a < b:
                ranges.append([a, b])
            q = art.find(piece, q + 1)
        voters += bool(ranges)
        for a, b in ranges:
            events += ((a, 1), (b, -1))
    # A start is marked where the ranges of two pieces cover it; ends sort
    # before starts at one position, as the ranges are half-open.
    marks = bytearray(count)
    votes = 0
    for x, step in sorted(events):
        votes += step
        if votes == 2 and step == 1:
            start = x
        elif votes == 1 and step == -1:
            marks[start:x] = b"\x01" * (x - start)
    return marks


def _fuzzy_contains_normalized(art_norm: str, candidate: str,
                               threshold: float) -> MatchResult:
    cand_norm = normalize_text(candidate)
    if not cand_norm:  # a blank string is grounded nowhere
        return MatchResult(candidate=candidate, matched=False, score=0.0)
    idx = art_norm.find(cand_norm)
    if idx != -1:
        return MatchResult(candidate=candidate, matched=True, score=1.0,
                           span=(idx, idx + len(cand_norm)))
    score, span = _best_window(art_norm, cand_norm, _pigeonhole_starts(
        art_norm, cand_norm, threshold))
    matched = score >= threshold
    return MatchResult(candidate=candidate, matched=matched, score=score,
                       span=span if matched and span[0] < span[1] else None)


def _exact(art_norm: str, result: MatchResult) -> MatchResult:
    """*result* with the exact best score: a miss decided on the marked
    starts carries only a lower bound, so every start is scanned for it. A
    blank string's 0.0 is exact."""
    cand_norm = normalize_text(result.candidate)
    return result if result.matched or not cand_norm else MatchResult(
        result.candidate, False, _best_window(art_norm, cand_norm)[0])


def fuzzy_contains(article_text: str, candidate: str, threshold: float) -> MatchResult:
    """Decide whether *candidate* occurs (fuzzily) in *article_text*.

    Matching is insensitive to case and whitespace variation on both sides.
    threshold must lie in (0, 1], and *candidate* must not be blank.
    """
    if not normalize_text(candidate):
        raise ValueError("candidate must be non-empty after normalization")
    art_norm = normalize_text(article_text)
    return _exact(art_norm, _fuzzy_contains_normalized(art_norm, candidate,
                                                       threshold))


def _ground(article: Article, record: ExtractionRecord, thresholds: Thresholds
            ) -> dict[str, list[tuple[str, float, MatchResult]]]:
    """Per evidence field of *record*: (string, threshold, result) for each
    of its strings, grounded in *article* with the field kind's threshold.
    Results are memoized on *article* (Article.grounding_memo)."""
    art_norm = article.normalized_body
    memo = article.grounding_memo
    grounded = {}
    for name, values in record.lists().items():
        kind = field_kind(name)
        threshold = thresholds.for_kind(kind)
        results = grounded[name] = []
        for value in values:
            # Markdown conversion tends to glue trailing slashes/punctuation
            # onto URLs.
            candidate = (strip_trailing_punct(value, extra="/") or value
                         if kind == "url" else value)
            key = (candidate, threshold)
            result = memo.get(key)
            if result is None:
                result = memo[key] = _fuzzy_contains_normalized(
                    art_norm, *key)
            results.append((value, threshold, result))
    return grounded


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
    matches = {name: tuple(result for _, _, result in results)
               for name, results in _ground(article, record,
                                            thresholds).items()}
    total = sum(len(results) for results in matches.values())
    grounded = sum(m.matched for results in matches.values() for m in results)
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
    failing string with its exact best score.
    """
    by_id = {a.id: a for a in corpus}
    kept: list[GoldAnnotation] = []
    removed: list[RemovedAnnotation] = []
    for ann in annotations:
        article = by_id.get(ann.article_id)
        if article is None:
            raise ValueError(
                f"gold annotation references unknown article {ann.article_id!r}")
        diagnostics = [
            RemovalDiagnostic(article_id=ann.article_id, field=name,
                              string=value, threshold=threshold,
                              best_score=_exact(article.normalized_body,
                                                result).score)
            for name, results in _ground(article, ann.record,
                                         thresholds).items()
            for value, threshold, result in results if not result.matched]
        if diagnostics:
            removed.append(RemovedAnnotation(ann, tuple(diagnostics)))
        else:
            kept.append(ann)
    return kept, removed
