"""Independent brute-force implementations used as test oracles.

These deliberately avoid the production code paths: the edit distance is a
full-matrix textbook DP, the window scan enumerates every window with no
short-circuits, the set matcher tries every one-to-one assignment, the
tokenizer lists the spans of a regular expression, and the percentages round
in decimal arithmetic.
"""

from __future__ import annotations

import itertools
import re
from decimal import ROUND_HALF_UP, Decimal

_TOKEN = re.compile(r"\S+")


def oracle_normalize(s: str) -> str:
    return " ".join(s.casefold().split())


def oracle_levenshtein(a: str, b: str) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[m][n]


def oracle_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - oracle_levenshtein(a, b) / max(len(a), len(b))


def oracle_windowed_score(article: str, candidate: str) -> float:
    """Maximum windowed similarity by enumerating every admissible window.

    Same contract as the production matcher: normalized inputs, window
    lengths ceil(0.8*L)..floor(1.2*L) at stride 1, similarity normalized by
    max(candidate length, window length); whole-article fallback when the
    article is shorter than the smallest window.
    """
    art = oracle_normalize(article)
    cand = oracle_normalize(candidate)
    n, length = len(art), len(cand)
    lo = max(1, -(-4 * length // 5))
    hi = 6 * length // 5
    if n < lo:
        return oracle_similarity(cand, art)
    hi = min(hi, n)
    best = -1.0
    for window_len in range(lo, hi + 1):
        for start in range(0, n - window_len + 1):
            window = art[start:start + window_len]
            sim = 1.0 - oracle_levenshtein(cand, window) / max(length, window_len)
            if sim > best:
                best = sim
    return best


def oracle_optimal_tp(predicted: list[str], gold: list[str],
                      threshold: float) -> int:
    """Maximum number of one-to-one pairs with similarity >= threshold,
    found by exhaustive search over assignments."""
    sims = [
        [oracle_similarity(oracle_normalize(p), oracle_normalize(g))
         for g in gold]
        for p in predicted
    ]
    qualifying = [
        [j for j in range(len(gold)) if sims[i][j] >= threshold]
        for i in range(len(predicted))
    ]

    best = 0

    def search(i: int, used: set[int], count: int) -> None:
        nonlocal best
        if count + (len(predicted) - i) <= best:
            return
        if i == len(predicted):
            best = max(best, count)
            return
        search(i + 1, used, count)  # leave predicted[i] unmatched
        for j in qualifying[i]:
            if j not in used:
                used.add(j)
                search(i + 1, used, count + 1)
                used.remove(j)

    search(0, set(), 0)
    return best


def oracle_f1(tp: int, fp: int, fn: int) -> float:
    """F1 via explicit precision/recall, the harmonic-mean route."""
    if tp + fp == 0 and tp + fn == 0:
        return 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def oracle_pairwise_sims(predicted: list[str], gold: list[str]) -> list[float]:
    return [
        oracle_similarity(oracle_normalize(p), oracle_normalize(g))
        for p, g in itertools.product(predicted, gold)
    ]


def oracle_count_tokens(text: str) -> int:
    return sum(1 for _ in _TOKEN.finditer(text))


def oracle_truncate_middle(text: str, budget: int,
                           marker: str) -> tuple[str, bool]:
    """Keep the first ceil and last floor of (budget - marker tokens) token
    spans, with the text between the kept spans of each side verbatim."""
    if oracle_count_tokens(text) <= budget:
        return text, False
    spans = [m.span() for m in _TOKEN.finditer(text)]
    keep = budget - oracle_count_tokens(marker)
    prefix = text[spans[0][0]:spans[(keep + 1) // 2 - 1][1]]
    suffix = text[spans[-(keep // 2)][0]:spans[-1][1]]
    return f"{prefix}\n{marker}\n{suffix}", True


def oracle_percent_half_up(count: int, total: int) -> int:
    if total == 0:
        return 0
    return int((Decimal(100 * count) / Decimal(total))
               .quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def oracle_percent_one_decimal(count: int, total: int) -> float:
    if total == 0:
        return 0.0
    return float((Decimal(100 * count) / Decimal(total))
                 .quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
