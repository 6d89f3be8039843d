"""Edit-distance primitives and the piece split against brute-force oracles."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from osir.text import (levenshtein, max_edits, pieces, prefix_distances,
                       similarity)

from oracles import oracle_levenshtein, oracle_similarity

ALPHABETS = ("ab", "abcdefgh ", "aéß漢😀 ")


def _random_pairs(rng: random.Random, lengths_a, lengths_b, count: int):
    for _ in range(count):
        alphabet = rng.choice(ALPHABETS)
        a = "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths_a)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths_b)))
        yield a, b


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("", "", 0), ("", "abc", 3), ("abc", "", 3), ("a", "a", 0),
        ("a", "b", 1), ("kitten", "sitting", 3), ("flaw", "lawn", 2),
        ("é", "e", 1), ("漢字", "漢", 1),
    ])
    def test_known_values(self, a, b, d):
        assert levenshtein(a, b) == d == levenshtein(b, a)

    def test_matches_oracle_at_word_boundaries(self):
        # 63-65 characters straddle one 64-bit machine word of the bit-vector
        rng = random.Random(7)
        lengths = (0, 1, 2, 63, 64, 65)
        for a, b in _random_pairs(rng, lengths, lengths + (30, 100), 300):
            assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)

    def test_matches_oracle_on_long_strings(self):
        rng = random.Random(8)
        lengths = (150, 220, 300)
        for a, b in _random_pairs(rng, lengths, lengths, 6):
            assert levenshtein(a, b) == oracle_levenshtein(a, b)

    def test_matches_oracle_on_near_copies(self):
        rng = random.Random(9)
        for _ in range(200):
            alphabet = rng.choice(ALPHABETS)
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            b = list(a)
            for _ in range(rng.randint(0, 5)):
                pos = rng.randint(0, len(b))
                op = rng.randrange(3)
                if op == 0:
                    b.insert(pos, rng.choice(alphabet))
                elif pos < len(b):
                    if op == 1:
                        del b[pos]
                    else:
                        b[pos] = rng.choice(alphabet)
            b = "".join(b)
            assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)

    def test_similarity_matches_oracle(self):
        rng = random.Random(10)
        for a, b in _random_pairs(rng, (0, 1, 5, 20), (0, 1, 5, 20), 200):
            assert similarity(a, b) == oracle_similarity(a, b)


class TestPrefixDistances:
    def test_every_prefix_matches_oracle(self):
        rng = random.Random(11)
        for pattern, text in _random_pairs(rng, (1, 2, 10, 64, 65),
                                           (0, 1, 30, 70), 60):
            assert prefix_distances(pattern, text) == [
                oracle_levenshtein(pattern, text[:j])
                for j in range(1, len(text) + 1)], (pattern, text)

    def test_empty_pattern(self):
        assert prefix_distances("", "abc") == [1, 2, 3]


class TestMaxEdits:
    @given(st.floats(min_value=0, max_value=1, exclude_min=True),
           st.integers(1, 2000))
    def test_largest_count_reaching_the_threshold(self, threshold, m):
        # the score's own float rule, counted from zero
        d = max_edits(threshold, m)
        assert d == max(e for e in range(m + 1)
                        if 1.0 - e / m >= threshold)


#: Thresholds inside (0, 1] and out of it, NaN included.
THRESHOLDS = st.one_of(st.floats(min_value=0, max_value=1, exclude_min=True),
                       st.sampled_from((0.0, -0.5, 1.5, math.nan)))


@st.composite
def _edited(draw, s: str, d: int) -> str:
    """*s* after at most *d* random single-character edits."""
    out = list(s)
    for _ in range(draw(st.integers(0, d))):
        i = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from("ids" if i < len(out) else "i"))
        if op == "d":
            del out[i]
        else:
            out[i:i + (op == "s")] = draw(st.sampled_from("abcx"))
    return "".join(out)


class TestPieces:
    @given(st.text("abc", max_size=40), THRESHOLDS, st.integers(1, 80))
    def test_split_or_none(self, s, threshold, m):
        split = pieces(s, threshold, m)
        if not 0 < threshold <= 1:
            assert split is None
            return
        count = max_edits(threshold, m) + 2
        if count > len(s):
            assert split is None
            return
        offsets, parts = zip(*split)
        assert len(split) == len(parts) == count
        assert "".join(parts) == s
        assert list(offsets) == list(itertools.accumulate(
            map(len, parts[:-1]), initial=0))

    @given(st.data(), st.text("abc", min_size=2, max_size=40),
           st.floats(min_value=0.5, max_value=1), st.integers(1, 60))
    def test_within_d_edits_two_pieces_survive(self, data, s, threshold, m):
        split = pieces(s, threshold, m)
        assume(split is not None)
        d = len(split) - 2
        edited = data.draw(_edited(s, d))
        assert oracle_levenshtein(s, edited) <= d
        assert sum(piece in edited for _, piece in split) >= 2

    def test_empty_strings_give_none(self):
        # max_edits is never asked to divide by a length of zero
        assert pieces("", 0.9, 0) is None
        assert pieces("a", 0.9, 0) is None


def test_only_text_computes_max_edits():
    """text.pieces is the one split of the partition lemma: no other module
    imports or calls max_edits to cut pieces of its own."""
    src = Path(__file__).resolve().parent.parent / "src" / "osir"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id",
                                 getattr(node.func, "attr", None))]
            else:
                continue
            found += [path.name for name in names if name == "max_edits"]
    assert found and set(found) == {"text.py"}
