"""Fuzzy grounding: normalization, window matching, embellishment, gold filtering."""

import random
import string

import pytest

from osir.extraction import GoldAnnotation
from osir.grounding import (
    Thresholds,
    _best_window,
    embellishment_reward,
    filter_gold,
    fuzzy_contains,
    normalize_text,
)

from conftest import make_article, make_record
from oracles import oracle_normalize, oracle_windowed_score

DECISION_THRESHOLDS = (0.5, 0.7, 0.9, 0.95, 1.0)


def _perturb(rng: random.Random, s: str, alphabet: str, edits: int) -> str:
    chars = list(s)
    for _ in range(edits):
        pos = rng.randint(0, len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars.insert(pos, rng.choice(alphabet))
        elif pos < len(chars) and len(chars) > 1:
            if op == 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice(alphabet)
    return "".join(chars)


def _decision_cases(seed: int, count: int):
    """(article, candidate) pairs over small alphabets, so candidate pieces
    occur many times; near copies sit at the article's start, its end or
    anywhere, and some candidates are longer than the article."""
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.choice(("ab", "abc ", "abcd"))
        length = rng.choice((1, 2, rng.randint(3, 12)))
        cand = "".join(rng.choice(alphabet) for _ in range(length))
        rest = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 45)))
        near = _perturb(rng, cand, alphabet, rng.randint(0, 3))
        if rng.random() < 0.3:
            # a character the article never has: no exact hit, and at one or
            # two characters the pigeonhole filter cannot apply (k + 1 > L)
            cand = cand[:-1] + "z"
        place = rng.randrange(4)
        if place == 0:
            art = near + rest
        elif place == 1:
            art = rest + near
        elif place == 2:
            cut = rng.randint(0, len(rest))
            art = rest[:cut] + near + rest[cut:]
        else:
            art = rest[:rng.randint(0, max(0, length - 2))]  # often n < lo
        if oracle_normalize(cand) and oracle_normalize(art):
            yield art, cand


class TestNormalizeText:
    def test_collapses_and_casefolds(self):
        assert normalize_text("  Foo\n\tBar ") == "foo bar"

    def test_idempotent(self):
        s = normalize_text("Some Ümlaut  Text\r\n")
        assert normalize_text(s) == s

    def test_doi_example(self):
        assert normalize_text("DOI: 10.1371/JOURNAL.PONE.0230416") == \
            "doi: 10.1371/journal.pone.0230416"


class TestFuzzyContains:
    def test_verbatim_short_circuit(self):
        result = fuzzy_contains("data at GSE12345 here", "GSE12345", 0.95)
        assert result.matched
        assert result.score == 1.0
        assert result.span == (8, 16)

    def test_one_substitution_scores_point_nine(self):
        result = fuzzy_contains("xx ABCDEFGHIX yy", "ABCDEFGHIJ", 0.9)
        assert result.matched
        assert result.score == pytest.approx(0.9, abs=1e-12)

    def test_absent_candidate_not_matched(self):
        result = fuzzy_contains("completely unrelated text body",
                                "zqwxv98765", 0.9)
        assert not result.matched
        assert result.span is None

    def test_case_and_whitespace_insensitive(self):
        a = fuzzy_contains("The  DATA Availability statement", "data availability", 0.9)
        b = fuzzy_contains("the data\navailability statement", "DATA  AVAILABILITY", 0.9)
        assert a.matched and b.matched
        assert a.score == b.score == 1.0

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fuzzy_contains("text", "   ", 0.9)

    def test_candidate_longer_than_article(self):
        result = fuzzy_contains("tiny", "a much longer candidate string", 0.9)
        assert not result.matched
        assert 0.0 <= result.score < 0.9

    def test_matches_brute_force_on_random_cases(self):
        rng = random.Random(42)
        alphabet = string.ascii_lowercase + "  "
        for _ in range(40):
            art = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            cand = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
            if not cand.strip():
                cand = "x"
            expected = oracle_windowed_score(art, cand)
            got = fuzzy_contains(art, cand, 0.9).score
            assert got == pytest.approx(expected, abs=1e-9), (art, cand)

    def test_threshold_monotonicity(self):
        rng = random.Random(43)
        for _ in range(50):
            art = " ".join("w%d" % rng.randint(0, 30) for _ in range(20))
            cand = "w%d x" % rng.randint(0, 30)
            t1, t2 = sorted((rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
            if fuzzy_contains(art, cand, t2).matched:
                assert fuzzy_contains(art, cand, t1).matched

    def test_span_within_normalized_text(self):
        art = "  The DATASET  gse999 lives here  "
        result = fuzzy_contains(art, "gse99x", 0.8)
        if result.matched:
            norm = normalize_text(art)
            start, end = result.span
            assert 0 <= start < end <= len(norm)


class TestEmbellishmentReward:
    def test_decision_equals_oracle(self):
        """The reward path decides exactly as the full window enumeration;
        a match carries the full search's (score, span), a miss a score
        below the threshold and no higher than the true best."""
        for art, cand in _decision_cases(2024, 400):
            expected = oracle_windowed_score(art, cand)
            full = _best_window(normalize_text(art), normalize_text(cand))
            article = make_article("A1", art)
            record = make_record(new_data_accessions=(cand,))
            for t in DECISION_THRESHOLDS:
                report = embellishment_reward(
                    article, record, Thresholds(identifier=t, citation=t))
                (result,) = report.matches["new_data_accessions"]
                assert result.matched == (expected >= t), (art, cand, t)
                if result.matched:
                    assert (result.score, result.span) == full, (art, cand, t)
                else:
                    assert result.score < t and result.score <= expected

    @pytest.mark.parametrize("body", ["zz abcdexfghi zz", "zz abxcdefghi zz"])
    def test_one_insertion_scores_exactly_the_threshold(self, body):
        # 1 - 9/10 = 0.9 reaches the citation threshold, but (1 - 0.9) * 10
        # rounds to just below 1 edit. In the second body the unedited piece
        # sits one character right of its offset in the candidate.
        record = make_record(new_data_citations=("abcdefghi",))
        report = embellishment_reward(make_article("A1", body), record)
        (result,) = report.matches["new_data_citations"]
        assert result.matched
        assert result.score == 0.9
        assert result.span == (3, 13)

    def test_no_evidence_vacuous(self):
        art = make_article("A1", "some body")
        report = embellishment_reward(art, make_record())
        assert report.e == 1.0
        assert report.total_count == 0

    def test_all_verbatim(self):
        art = make_article("A1", "Data: GSE12345 and 10.1/xyz via "
                           "https://example.org/d plus Smith et al. 2020.")
        record = make_record(
            new_data_accessions=("GSE12345",),
            new_data_dois=("10.1/xyz",),
            new_data_urls=("https://example.org/d",),
            new_data_citations=("Smith et al. 2020",),
        )
        report = embellishment_reward(art, record)
        assert report.e == 1.0
        assert report.grounded_count == report.total_count == 4

    def test_three_of_four_grounded(self):
        art = make_article("A1", "Data: GSE12345 and 10.1/xyz via "
                           "https://example.org/d in the text.")
        record = make_record(
            new_data_accessions=("GSE12345",),
            new_data_dois=("10.1/xyz", "10.9999/fabricated.99"),
            new_data_urls=("https://example.org/d",),
        )
        report = embellishment_reward(art, record)
        assert report.e == pytest.approx(0.75)
        assert report.grounded_count == 3

    def test_binary_mode(self):
        art = make_article("A1", "only GSE12345 appears")
        record = make_record(new_data_accessions=("GSE12345", "FAKE999XYZ"),)
        assert embellishment_reward(art, record, mode="binary").e == 0.0
        clean = make_record(new_data_accessions=("GSE12345",))
        assert embellishment_reward(art, clean, mode="binary").e == 1.0

    def test_hallucination_never_increases_e(self):
        art = make_article("A1", "evidence GSE12345 and 10.1/abc here")
        base = make_record(new_data_accessions=("GSE12345",),
                           new_data_dois=("10.1/abc",))
        with_fake = make_record(new_data_accessions=("GSE12345", "ZZZZ987654"),
                                new_data_dois=("10.1/abc",))
        assert embellishment_reward(art, with_fake).e <= \
            embellishment_reward(art, base).e

    def test_verbatim_addition_never_decreases_e(self):
        art = make_article("A1", "evidence GSE12345 and FAKE-free 10.1/abc")
        base = make_record(new_data_accessions=("GSE12345",),
                           new_data_dois=("10.9/zzzqqq",))
        more = make_record(new_data_accessions=("GSE12345",),
                           new_data_dois=("10.9/zzzqqq", "10.1/abc"))
        assert embellishment_reward(art, more).e >= \
            embellishment_reward(art, base).e

    def test_url_trailing_slash_tolerated(self):
        art = make_article("A1", "available at https://example.org/data in full")
        record = make_record(reuse_data_urls=("https://example.org/data/",))
        assert embellishment_reward(art, record).e == 1.0


class TestFilterGold:
    def test_no_evidence_kept(self):
        corpus = [make_article("A1", "body text")]
        gold = [GoldAnnotation("A1", make_record(reuse_data=True))]
        kept, removed = filter_gold(corpus, gold)
        assert kept == gold
        assert removed == []

    def test_verbatim_doi_kept(self):
        corpus = [make_article("A1", "cites 10.1371/journal.pone.0230416 data")]
        gold = [GoldAnnotation("A1", make_record(
            reuse_data_dois=("10.1371/journal.pone.0230416",)))]
        kept, removed = filter_gold(corpus, gold)
        assert len(kept) == 1 and not removed

    def test_deleted_citation_removed_with_diagnostic(self):
        citation = "Garcia and Lmont, Nature Methods 2019"
        body = f"Intro. We reused data from {citation}. Conclusion."
        truncated_body = "Intro. We reused data from. Conclusion."
        corpus = [make_article("A1", truncated_body)]
        gold = [GoldAnnotation("A1", make_record(
            reuse_data_citations=(citation,)))]
        kept, removed = filter_gold(corpus, gold)
        assert kept == []
        assert len(removed) == 1
        diag = removed[0].diagnostics[0]
        assert diag.string == citation
        assert diag.field == "reuse_data_citations"
        assert diag.best_score < diag.threshold

    def test_partition(self):
        corpus = [make_article("A1", "has GSE12345"),
                  make_article("A2", "nothing relevant")]
        gold = [
            GoldAnnotation("A1", make_record(new_data_accessions=("GSE12345",))),
            GoldAnnotation("A2", make_record(new_data_accessions=("GSE99999",))),
        ]
        kept, removed = filter_gold(corpus, gold)
        assert {g.article_id for g in kept} | \
            {r.annotation.article_id for r in removed} == {"A1", "A2"}
        assert len(kept) + len(removed) == 2

    def test_dangling_article_reference(self):
        gold = [GoldAnnotation("GHOST", make_record())]
        with pytest.raises(KeyError, match="GHOST"):
            filter_gold([make_article("A1", "x")], gold)

    def test_stricter_threshold_never_rescues(self):
        corpus = [make_article("A1", "approximate GSE1234X evidence")]
        gold = [GoldAnnotation("A1", make_record(
            new_data_accessions=("GSE12345",)))]
        loose_kept, _ = filter_gold(corpus, gold,
                                    Thresholds(identifier=0.5, citation=0.5))
        strict_kept, _ = filter_gold(corpus, gold,
                                     Thresholds(identifier=0.99, citation=0.99))
        assert len(strict_kept) <= len(loose_kept)
