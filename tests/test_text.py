"""Edit-distance primitives against the full-matrix oracle."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osir.text import levenshtein, max_edits, prefix_distances, similarity

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
