"""Text normalization, whitespace tokenization, and edit-distance primitives.

Everything in this module is deterministic and dependency-free so that the
matching layers built on top of it stay reproducible across runs.
"""

from __future__ import annotations

import re

_WS_RUN = re.compile(r"\s+")
_TOKEN = re.compile(r"\S+")


def normalize_text(s: str) -> str:
    """Casefold and collapse all whitespace runs to single spaces.

    Idempotent: normalize_text(normalize_text(s)) == normalize_text(s).
    """
    return _WS_RUN.sub(" ", s).strip().casefold()


def token_spans(text: str) -> list[tuple[int, int]]:
    """Return (start, end) character offsets of each maximal non-whitespace run."""
    return [m.span() for m in _TOKEN.finditer(text)]


def whitespace_token_count(text: str) -> int:
    """Number of maximal non-whitespace runs in *text*."""
    return sum(1 for _ in _TOKEN.finditer(text))


def char_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[c] is set iff pattern[i] == c."""
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def prefix_distances(pattern: str, text: str,
                     masks: dict[str, int] | None = None) -> list[int]:
    """[levenshtein(pattern, text[:j]) for j in 1..len(text)] in one pass.

    Bit-parallel dynamic program (Myers, JACM 1999, in Hyyro's formulation
    for global distance): one column of the pattern-by-text DP is held as
    vertical +1/-1 delta bit-vectors, Python ints of len(pattern) bits, so a
    text character costs a fixed number of integer operations. *masks* is
    char_masks(pattern), passed in when the same pattern is reused.
    """
    m = len(pattern)
    if m == 0:
        return list(range(1, len(text) + 1))
    if masks is None:
        masks = char_masks(pattern)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    out = []
    for c in text:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1  # row 0 of the DP grows by one per text character
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
        out.append(score)
    return out


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (insert / delete / substitute, unit cost).

    The shorter string is the bit-vector pattern, so the cost is
    O(len(longer)) big-integer operations on min(len) bits.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    return prefix_distances(a, b)[-1]


def similarity(a: str, b: str) -> float:
    """Normalized edit similarity: 1 - levenshtein / max(len(a), len(b)).

    Both strings empty -> 1.0.
    """
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))
