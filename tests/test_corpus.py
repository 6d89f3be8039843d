"""Corpus loading, token counting, and middle-truncation."""

import random

import pytest

from osir.corpus import (
    Article,
    CorpusError,
    TRUNCATION_MARKER,
    build_prompt,
    count_tokens,
    load_corpus,
    save_corpus,
    truncate_middle,
)

from conftest import corpus_row, make_article, write_jsonl


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_two_valid_lines_in_order(self, tmp_corpus_file):
        arts = [make_article("A1", "body one"), make_article("A2", "body two")]
        path = tmp_corpus_file(arts)
        loaded = load_corpus(path)
        assert [a.id for a in loaded] == ["A1", "A2"]
        assert loaded == arts

    def test_duplicate_id_names_both_lines(self, tmp_path):
        rows = [corpus_row(make_article("A1", "x")),
                corpus_row(make_article("A1", "y"))]
        path = write_jsonl(tmp_path / "dup.jsonl", rows)
        with pytest.raises(CorpusError) as err:
            load_corpus(path)
        message = str(err.value)
        assert "A1" in message and "1" in message and "2" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "A1", "body_markdown": "ok"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_missing_body_is_malformed(self, tmp_path):
        path = write_jsonl(tmp_path / "nobody.jsonl", [{"id": "A1"}])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_unknown_discipline_maps_to_unknown(self, tmp_path):
        path = write_jsonl(tmp_path / "disc.jsonl",
                           [{"id": "A1", "body_markdown": "x",
                             "discipline": "Astrology"}])
        assert load_corpus(path)[0].discipline == "Unknown"

    def test_bad_published_date(self, tmp_path):
        path = write_jsonl(tmp_path / "date.jsonl",
                           [{"id": "A1", "body_markdown": "x",
                             "published": "not-a-date"}])
        with pytest.raises(CorpusError, match="ISO-8601"):
            load_corpus(path)

    @pytest.mark.parametrize("fields", [
        {"title": 5},
        {"title": ["T"]},
        {"region": ["x"]},
        {"region": 3},
        {"published": 20240115},
    ])
    def test_metadata_must_be_strings(self, tmp_path, fields):
        rows = [{"id": "A1", "body_markdown": "x"},
                {"id": "A2", "body_markdown": "y", **fields}]
        path = write_jsonl(tmp_path / "meta.jsonl", rows)
        key = next(iter(fields))
        with pytest.raises(CorpusError, match=f"line 2: '{key}' must be a"):
            load_corpus(path)

    def test_null_or_absent_metadata_keeps_defaults(self, tmp_path):
        rows = [{"id": "A1", "body_markdown": "x", "title": None,
                 "region": None, "published": None},
                {"id": "A2", "body_markdown": "y"}]
        path = write_jsonl(tmp_path / "meta.jsonl", rows)
        for article in load_corpus(path):
            assert (article.title, article.region, article.published) == \
                ("", "Unknown", None)

    def test_round_trip(self, tmp_path, tmp_corpus_file):
        arts = [
            make_article("A1", "alpha beta", discipline="Life Sciences"),
            Article(id="A2", title="T", body="gamma", region="Asia",
                    published="2024-01-15"),
        ]
        path = tmp_corpus_file(arts)
        loaded = load_corpus(path)
        out = tmp_path / "out.jsonl"
        save_corpus(loaded, out)
        assert load_corpus(out) == loaded


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_three_words(self):
        assert count_tokens("alpha beta gamma") == 3

    def test_mixed_whitespace(self):
        assert count_tokens("  a\t\tb\nc  ") == 3

    def test_self_concatenation_doubles_with_trailing_space(self):
        rng = random.Random(7)
        for _ in range(50):
            words = ["w" * rng.randint(1, 5) for _ in range(rng.randint(1, 20))]
            t = " ".join(words) + " "
            assert count_tokens(t + t) == 2 * count_tokens(t)

    def test_concatenation_never_shrinks(self):
        rng = random.Random(8)
        alphabet = "ab \t\n"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))


class TestTruncateMiddle:
    def test_under_budget_unchanged(self):
        text = " ".join(f"t{i}" for i in range(10))
        out, truncated = truncate_middle(text, 25_000)
        assert out == text
        assert truncated is False

    def test_hand_derived_split(self):
        text = " ".join(f"t{i}" for i in range(1, 11))
        out, truncated = truncate_middle(text, 7)
        assert out == "t1 t2 t3\n[TRUNCATED]\nt8 t9 t10"
        assert truncated is True

    def test_idempotent(self):
        text = " ".join(f"t{i}" for i in range(1, 11))
        once, _ = truncate_middle(text, 7)
        twice, truncated = truncate_middle(once, 7)
        assert twice == once
        assert truncated is False

    def test_budget_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            truncate_middle("a b c d", 2)

    def test_odd_remainder_favors_prefix(self):
        text = " ".join(f"t{i}" for i in range(1, 11))
        out, _ = truncate_middle(text, 8)  # keep 7 -> 4 prefix, 3 suffix
        prefix, _, suffix = out.partition(f"\n{TRUNCATION_MARKER}\n")
        assert prefix.split() == ["t1", "t2", "t3", "t4"]
        assert suffix.split() == ["t8", "t9", "t10"]

    def test_preserves_internal_whitespace(self):
        text = "a  b\tc\nd e f g h"
        out, _ = truncate_middle(text, 5)
        assert out.startswith("a  b")


class TestBuildPrompt:
    def test_short_article_verbatim(self):
        art = make_article("A1", "short body text here")
        prompt = build_prompt(art, budget=25_000)
        assert prompt.truncated is False
        assert art.body in prompt.text
        assert prompt.token_count == count_tokens(prompt.text)

    def test_over_budget_single_marker(self):
        art = make_article("A1", " ".join(f"w{i}" for i in range(2_000)))
        prompt = build_prompt(art, budget=500)
        assert prompt.truncated is True
        assert prompt.text.count(TRUNCATION_MARKER) == 1
        assert prompt.token_count <= 500

    def test_deterministic(self):
        art = make_article("A1", " ".join(f"w{i}" for i in range(1_000)))
        assert build_prompt(art, 300) == build_prompt(art, 300)
