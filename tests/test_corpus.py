"""Corpus loading, token counting, and middle-truncation."""

import dataclasses
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osir import corpus
from osir.corpus import (
    Article,
    CorpusError,
    PROMPT_PREAMBLE,
    PreparedPrompt,
    TRUNCATION_MARKER,
    build_prompt,
    count_tokens,
    load_corpus,
    save_corpus,
    truncate_middle,
)

from conftest import corpus_row, make_article, write_jsonl
from oracles import oracle_count_tokens, oracle_truncate_middle

# Whitespace of every class that str.isspace() and re's \s both accept,
# "\r\n" pairs, and the zero-width look-alikes U+200B and U+FEFF, which are
# not whitespace and so belong to tokens.
WHITESPACE = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2000", "\u200a",
              "\u2028", "\u2029", "\u202f", "\u205f", "\u3000"]
_ws = st.lists(st.sampled_from(WHITESPACE), max_size=3).map("".join)
_word = st.sampled_from(["a", "bc", "\u200b", "\ufeff", "\u00e9",
                         "\U0001f600"])
_texts = st.builds(
    lambda lead, pairs: lead + "".join(w + ws for w, ws in pairs),
    _ws, st.lists(st.tuples(_word, _ws), max_size=50))

# The str.isspace() code points outside ASCII, which send count_tokens to
# str.split; an ASCII text is counted on its bytes.
NON_ASCII_SPACES = ["\x85", "\xa0", "\u1680", "\u2000", "\u2001", "\u2002",
                    "\u2003", "\u2004", "\u2005", "\u2006", "\u2007", "\u2008",
                    "\u2009", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f",
                    "\u3000"]
_ascii_chars = st.one_of(
    st.integers(0, 0x7f).map(chr),                # ASCII, its spaces included
    st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"]),
)
_other_chars = st.one_of(
    st.sampled_from(["\u00e9", "\u4e2d"]),        # non-ASCII, not spaces
    st.sampled_from(NON_ASCII_SPACES),
    st.integers(0xd800, 0xdfff).map(chr),         # lone surrogates
)
# ASCII texts, counted on their bytes, and texts with other characters too,
# which are split.
_mixed_texts = st.one_of(
    st.lists(_ascii_chars, max_size=60).map("".join),
    st.lists(st.one_of(_ascii_chars, _other_chars), max_size=60).map("".join))


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

    @pytest.mark.parametrize("key", ["id", "title", "body_markdown",
                                     "region"])
    def test_lone_surrogate_names_line(self, tmp_path, key):
        # json.dumps writes the lone surrogate as a \ud800 escape, which
        # json.loads decodes back; no UTF-8 writer, hash or request body can
        # encode it later in the run
        rows = [{"id": "A1", "body_markdown": "caf\u00e9 \U0001f600"},
                {"id": "A2", "body_markdown": "y", key: "x \ud800 y"}]
        path = tmp_path / "surrogate.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows),
                        encoding="ascii")
        with pytest.raises(CorpusError,
                           match=f"line 2: '{key}' holds a lone surrogate "
                                 f"at index 2"):
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

    def test_separators_are_exactly_re_whitespace(self):
        # Pins, on the running Python, that str.split() and re's \s agree on
        # every code point.
        for cp in range(sys.maxunicode + 1):
            c = chr(cp)
            assert (count_tokens("a" + c + "b") == 2) == \
                bool(re.fullmatch(r"\s", c)), hex(cp)

    def test_ascii_space_literal_is_exactly_isspace(self):
        assert corpus._ASCII_SPACES == \
            "".join(c for c in map(chr, range(0x80)) if c.isspace())


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
        assert prompt.token_count == 500 == count_tokens(prompt.text)

    @pytest.mark.parametrize("extra,truncated", [(0, False), (1, True)])
    def test_body_at_and_just_over_the_body_budget(self, extra, truncated):
        budget = 500
        body_budget = budget - count_tokens(PROMPT_PREAMBLE)
        art = make_article(
            "A1", " ".join(f"w{i}" for i in range(body_budget + extra)))
        prompt = build_prompt(art, budget=budget)
        assert prompt.truncated is truncated
        assert prompt.token_count == budget == count_tokens(prompt.text)

    def test_deterministic(self):
        art = make_article("A1", " ".join(f"w{i}" for i in range(1_000)))
        assert build_prompt(art, 300) == build_prompt(art, 300)

    @pytest.mark.parametrize("words", [10, 1_000])
    def test_prompt_holds_the_body_not_its_text(self, words):
        art = make_article("A1", " ".join(f"w{i}" for i in range(words)))
        prompt = build_prompt(art, 300)
        assert prompt.truncated is (words > 300)
        assert prompt.body is art.body
        assert "text" not in {f.name for f in dataclasses.fields(PreparedPrompt)}


class TestTokenizerOracle:
    """count_tokens, truncate_middle and build_prompt against the regex
    tokenizer of tests/oracles.py. The properties are static methods, so
    that the small-chunk test can run them again."""

    @staticmethod
    @settings(max_examples=400, deadline=None)
    @given(text=_texts, data=st.data())
    def test_agrees_with_oracle(text, data):
        # Budgets from 3 up to one past the token count, so that many texts
        # are cut.
        budget = data.draw(st.integers(
            min_value=3, max_value=max(3, oracle_count_tokens(text) + 1)))
        assert count_tokens(text) == oracle_count_tokens(text)
        assert truncate_middle(text, budget) == \
            oracle_truncate_middle(text, budget, TRUNCATION_MARKER)
        if not text:
            return
        prompt_budget = oracle_count_tokens(PROMPT_PREAMBLE) + budget
        prompt = build_prompt(make_article("A1", text), prompt_budget)
        body, truncated = oracle_truncate_middle(text, budget,
                                                 TRUNCATION_MARKER)
        want = f"{PROMPT_PREAMBLE}\n{body}"
        assert (prompt.text, prompt.token_count, prompt.truncated) == \
            (want, oracle_count_tokens(want), truncated)

    @staticmethod
    @settings(max_examples=400, deadline=None)
    @given(text=_mixed_texts, data=st.data())
    def test_byte_count_agrees_with_oracle(text, data):
        # ASCII texts and others, so that both the byte count and its
        # str.split fallback are checked.
        assert count_tokens(text) == oracle_count_tokens(text)
        if not text:
            return
        budget = data.draw(st.integers(
            min_value=3, max_value=max(3, oracle_count_tokens(text) + 1)))
        prompt_budget = oracle_count_tokens(PROMPT_PREAMBLE) + budget
        prompt = build_prompt(make_article("A1", text), prompt_budget)
        body, truncated = oracle_truncate_middle(text, budget,
                                                 TRUNCATION_MARKER)
        want = f"{PROMPT_PREAMBLE}\n{body}"
        assert (prompt.text, prompt.token_count, prompt.truncated) == \
            (want, oracle_count_tokens(want), truncated)

    @staticmethod
    @settings(max_examples=400, deadline=None)
    @given(text=_mixed_texts, data=st.data())
    def test_cuts_are_the_split_offsets(text, data):
        # The cuts are where str.split and str.rsplit with a maxsplit cut.
        budget = data.draw(st.integers(min_value=3, max_value=30))
        keep = budget - oracle_count_tokens(TRUNCATION_MARKER)
        head, tail = (keep + 1) // 2, keep // 2
        prompt = build_prompt(make_article("A1", text or "x"),
                              oracle_count_tokens(PROMPT_PREAMBLE) + budget)
        body = prompt.body
        if oracle_count_tokens(body) <= budget:
            assert prompt.cuts is None
        else:
            assert prompt.cuts == (
                len(body) - len(body.split(None, head)[-1]),
                len(body.rsplit(None, tail)[0]))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8])
    def test_agrees_with_oracle_in_small_chunks(self, monkeypatch, chunk):
        # The properties' texts are shorter than one default chunk, so the
        # chunked cut search is checked across chunk edges here.
        monkeypatch.setattr(corpus, "_CUT_CHUNK", chunk)
        self.test_agrees_with_oracle()
        self.test_byte_count_agrees_with_oracle()
        self.test_cuts_are_the_split_offsets()
