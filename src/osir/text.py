"""Text normalization, edit-distance primitives and the piece split.

Everything in this module is deterministic and dependency-free so that the
matching layers built on top of it stay reproducible across runs; pieces is
the one split of the partition lemma, for grounding and set matching.
"""

from __future__ import annotations


def normalize_text(s: str) -> str:
    """Casefold and collapse all whitespace runs to single spaces.

    Whitespace is ``str.isspace()``, the set that ``str.split()`` splits on
    and ``re``'s ``\\s`` matches in str patterns. Idempotent:
    normalize_text(normalize_text(s)) == normalize_text(s).
    """
    return " ".join(s.split()).casefold()


def char_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[c] is set iff pattern[i] == c."""
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def prefix_distances(pattern: str, text: str) -> list[int]:
    """[levenshtein(pattern, text[:j]) for j in 1..len(text)] in one pass.

    Bit-parallel dynamic program (Myers, JACM 1999, in Hyyro's formulation
    for global distance): one column of the pattern-by-text DP is held as
    vertical +1/-1 delta bit-vectors, Python ints of len(pattern) bits, so a
    text character costs a fixed number of integer operations.
    """
    m = len(pattern)
    if m == 0:
        return list(range(1, len(text) + 1))
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

    A common prefix and suffix cost no edit, so the DP runs on the rest of
    each string. The shorter rest is the bit-vector pattern, so the cost is
    O(len(longer rest)) big-integer operations on len(shorter rest) bits.
    """
    if a == b:
        return 0
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    j = 0
    while j < len(a) - i and j < len(b) - i and a[-1 - j] == b[-1 - j]:
        j += 1
    a, b = a[i:len(a) - j], b[i:len(b) - j]
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


def max_edits(threshold: float, m: int) -> int:
    """The largest edit count d with 1.0 - d / m >= threshold, in the float
    arithmetic of similarity; m >= 1 and 0 < threshold <= 1."""
    # The + 1 starts above a product that rounds just below an integer.
    d = int((1 - threshold) * m) + 1
    while 1.0 - d / m < threshold:
        d -= 1
    return d


def pieces(s: str, threshold: float, m: int) -> list[tuple[int, str]] | None:
    """*s* cut into d + 2 contiguous pieces, d = max_edits(threshold, m),
    each as (offset, piece); None for a threshold outside (0, 1], NaN
    included, or for more pieces than characters. Each edit breaks at most
    one piece, so a string within d edits of *s* holds two of them verbatim
    (the partition lemma of Baeza-Yates & Navarro): two pieces found are
    necessary for a similarity of at least *threshold* at length m or less.
    """
    if not 0 < threshold <= 1 or len(s) < 2:  # the first rejects NaN
        return None
    count, n = max_edits(threshold, m) + 2, len(s)
    return None if count > n else [
        (p * n // count, s[p * n // count:(p + 1) * n // count])
        for p in range(count)]
