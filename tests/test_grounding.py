"""Fuzzy grounding: normalization, window matching, embellishment, gold filtering."""

import random
import re
import string
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osir import grounding
from osir.corpus import load_corpus
from osir.extraction import GoldAnnotation, LIST_FIELDS
from osir.grounding import (
    EMBELLISHMENT_MODES,
    MatchResult,
    Thresholds,
    _best_window,
    _pigeonhole_starts,
    embellishment_reward,
    filter_gold,
    fuzzy_contains,
    normalize_text,
)
from osir.scoring import match_sets
from osir.text import max_edits, prefix_distances, similarity

from conftest import (LETTERS, corpus_row, edit_all_but_two_pieces,
                      make_article, make_record, write_jsonl)
from oracles import oracle_normalize, oracle_similarity, oracle_windowed_score

DECISION_THRESHOLDS = (0.5, 0.7, 0.9, 0.95, 1.0)

#: Every character str.isspace() accepts (29 in current Unicode).
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


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


def _scan_every_start(art: str, cand: str, starts: bytearray | None = None
                      ) -> tuple[float, tuple[int, int]]:
    """_best_window's (score, span), scoring each start on its own with
    text.prefix_distances: windows in order of length, then start, so the
    strict > keeps the shortest, then leftmost, of equal scores. With
    *starts*, only the starts marked 1 are scored; (0.0, (0, 0)) when none
    is."""
    n, length = len(art), len(cand)
    lo, hi = max(1, -(-4 * length // 5)), min(6 * length // 5, n)
    if n < lo:
        return similarity(cand, art), (0, n)
    scored = [s for s in range(n - lo + 1) if starts is None or starts[s]]
    if not scored:
        return 0.0, (0, 0)
    dists = {s: prefix_distances(cand, art[s:s + hi]) for s in scored}
    best_score, best_span = -1.0, (0, 0)
    for j in range(lo, hi + 1):
        for s in scored:
            if s > n - j:
                break
            score = 1.0 - dists[s][j - 1] / max(length, j)
            if score > best_score:
                best_score, best_span = score, (s, s + j)
    return best_score, best_span


class TestNormalizeText:
    def test_collapses_and_casefolds(self):
        assert normalize_text("  Foo\n\tBar ") == "foo bar"

    def test_idempotent(self):
        s = normalize_text("Some Ümlaut  Text\r\n")
        assert normalize_text(s) == s

    def test_doi_example(self):
        assert normalize_text("DOI: 10.1371/JOURNAL.PONE.0230416") == \
            "doi: 10.1371/journal.pone.0230416"

    @pytest.mark.parametrize("ws", WHITESPACE,
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_each_whitespace_character_separates(self, ws):
        assert normalize_text(f"A{ws}b") == "a b"
        assert normalize_text(f"{ws}A{ws}{ws}b{ws}") == "a b"

    @given(st.lists(st.sampled_from(
        WHITESPACE + ["\r\n", "\u200b", "\ufeff", "ß", "İ"]
        + list(string.ascii_letters))).map("".join))
    def test_equals_regex_collapse_and_oracle(self, s):
        assert normalize_text(s) == \
            re.sub(r"\s+", " ", s).strip().casefold() == oracle_normalize(s)


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

    @pytest.mark.parametrize(
        "length", [7, 8, 15, 16, 29, 30, 31, 63, 64, 65, 127, 128, 129, 150])
    def test_scan_equals_per_start_kernel(self, length):
        # Lengths on either side of the scan's lane-width steps; small
        # alphabets, so equal scores and equal distances are common.
        rng = random.Random(length)
        lo = max(1, -(-4 * length // 5))
        for alphabet in ("ab", "abc", "aé€𝄞"):
            cand = "".join(rng.choice(alphabet) for _ in range(length))
            for n in (lo - 1, lo, lo + rng.randint(1, 10),
                      2 * length + rng.randint(0, 20)):
                art = list(_perturb(rng, cand, alphabet, rng.randint(1, 4))
                           * (1 + n // length))
                for _ in range(len(art) // 8):
                    art[rng.randrange(len(art))] = rng.choice(alphabet)
                art = "".join(art)[:n]
                assert _best_window(art, cand) == _scan_every_start(
                    art, cand), (art, cand)

    @pytest.mark.parametrize("length", [7, 8, 15, 16, 31, 32, 63, 64])
    def test_marked_scan_equals_per_start_kernel(self, length):
        # Marked starts: none, one, the last, every one, a random tenth, and
        # runs whose pieces art[a:b - 1 + hi] (run a..b-1) overlap by one
        # character, touch, or lie one character apart.
        rng = random.Random(length)
        lo, hi = max(1, -(-4 * length // 5)), 6 * length // 5
        for alphabet in ("ab", "abc", "aé€𝄞"):
            cand = "".join(rng.choice(alphabet) for _ in range(length))
            for gaps in ((-1, 0), (0, 1), (1, -1)):
                runs, a = [], rng.randint(0, 3)
                for gap in gaps + (None,):
                    b = a + rng.randint(1, 4)
                    runs.append((a, b))
                    if gap is not None:
                        a = b - 1 + hi + gap
                n = runs[-1][1] - 1 + lo + rng.randint(0, hi)
                art = ""
                while len(art) < n:  # edited copies of cand, end to end
                    art += _perturb(rng, cand, alphabet, rng.randint(0, 3))
                art = art[:n]
                count = n - lo + 1
                one, in_runs = bytearray(count), bytearray(count)
                one[rng.randrange(count)] = 1
                for a, b in runs:
                    in_runs[a:b] = b"\x01" * (b - a)
                for marks in (bytearray(count), one,
                              bytearray(count - 1) + b"\x01",
                              bytearray(b"\x01" * count), in_runs,
                              bytearray(rng.random() < 0.1
                                        for _ in range(count))):
                    assert _best_window(art, cand, marks) == \
                        _scan_every_start(art, cand, marks), (art, cand, marks)

    def test_marked_runs_whose_pieces_overlap_by_one(self):
        # The piece of start 0 is art[0:13] and start 12 is marked too. Read
        # as two pieces, lane 12 would see art[12] twice: "aabcdefghij", an
        # exact copy, where the article has only "abcdefghij" (one deletion).
        art = "zzzzzzzzzzzzabcdefghijzzzz"
        marks = bytearray(len(art) - 9 + 1)
        marks[0] = marks[12] = 1
        assert _best_window(art, "aabcdefghij", marks) == (1 - 1 / 11, (12, 22))

    def test_span_within_normalized_text(self):
        art = "  The DATASET  gse999 lives here  "
        result = fuzzy_contains(art, "gse99x", 0.8)
        if result.matched:
            norm = normalize_text(art)
            start, end = result.span
            assert 0 <= start < end <= len(norm)


class TestEmbellishmentReward:
    @pytest.mark.parametrize("blank", ["", " ", "\n\t"])
    def test_blank_string_is_an_ungrounded_miss(self, blank):
        # not vacuously exact: blanks cannot pad a list to raise e
        report = embellishment_reward(
            make_article("A1", "cites 10.5/abc here"),
            make_record(new_data_dois=("10.5/abc", blank)))
        assert report.e == 0.5
        assert report.matches["new_data_dois"][1] == \
            MatchResult(blank, matched=False, score=0.0)

    def test_decision_equals_oracle(self):
        """The reward path and fuzzy_contains decide exactly as the full
        window enumeration. A match carries the full search's (score,
        span); a miss carries, from the reward, a score below the threshold
        and no higher than the true best, and from fuzzy_contains the true
        best."""
        for art, cand in _decision_cases(2024, 400):
            expected = oracle_windowed_score(art, cand)
            full = _best_window(normalize_text(art), normalize_text(cand))
            article = make_article("A1", art)
            record = make_record(new_data_accessions=(cand,))
            for t in DECISION_THRESHOLDS:
                report = embellishment_reward(
                    article, record, Thresholds(identifier=t, citation=t))
                (result,) = report.matches["new_data_accessions"]
                contains = fuzzy_contains(art, cand, t)
                assert result.matched == contains.matched == (expected >= t), \
                    (art, cand, t)
                if result.matched:
                    assert (result.score, result.span) == full, (art, cand, t)
                    assert contains == result, (art, cand, t)
                else:
                    assert result.score < t and result.score <= expected
                    assert contains.score == pytest.approx(
                        expected, abs=1e-9), (art, cand, t)
                    assert contains.span is None

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


def _least_growth(threshold: float, length: int) -> int | None:
    """The least net growth g of a copy of a length-*length* candidate for
    which d edits, d = max_edits(threshold, floor(1.2 * length)), still
    score at least *threshold*; None when no g <= d does."""
    d = max_edits(threshold, 6 * length // 5)
    return next((g for g in range(d + 1)
                 if max_edits(threshold, length + g) >= d), None)


@st.composite
def _two_vote_cases(draw):
    """(threshold, candidate, near copy, article, start of the copy): the
    copy has one edit in each of d of the candidate's d + 2 pieces, d as in
    _pigeonhole_starts, so only two pieces survive, yet it scores at least
    the threshold. The article's other characters are digits, which the
    candidate never holds."""
    t = draw(st.sampled_from((0.9, 0.95)))
    length = draw(st.integers(20, 90).filter(
        lambda n: _least_growth(t, n) is not None))
    d, growth = max_edits(t, 6 * length // 5), _least_growth(t, length)
    inserts = draw(st.integers(growth, d))
    deletes = draw(st.integers(0, min(inserts - growth, d - inserts)))
    cand = draw(st.text(LETTERS, min_size=length, max_size=length))
    near = edit_all_but_two_pieces(
        draw, cand, "i" * inserts + "d" * deletes
        + "s" * (d - inserts - deletes))
    left, right = (draw(st.text(string.digits, max_size=40))
                   for _ in range(2))
    return t, cand, near, left + near + right, len(left)


class TestTwoVoteFilter:
    @given(_two_vote_cases())
    @settings(deadline=None)
    def test_window_with_two_surviving_pieces_is_marked(self, case):
        t, cand, near, art, start = case
        assert oracle_similarity(cand, near) >= t
        marks = _pigeonhole_starts(art, cand, t)
        assert marks is not None and marks[start] == 1
        record = make_record(new_data_accessions=(cand,))
        (result,) = embellishment_reward(
            make_article("A1", art), record,
            Thresholds(identifier=t, citation=t)).matches[
                "new_data_accessions"]
        assert result.matched
        assert result == fuzzy_contains(art, cand, t)

    @pytest.mark.parametrize("t, m, d", [
        (0.95, 20, 1), (0.95, 40, 2), (0.95, 60, 3), (0.9, 30, 3),
        (0.9, 50, 5)])
    def test_exact_product_boundary(self, t, m, d):
        # (1 - t) * m is the integer d in exact arithmetic but not in
        # floats; a copy d substitutions away scores exactly t.
        assert max_edits(t, m) == d
        rng = random.Random(m)
        cand = "".join(rng.choice(LETTERS) for _ in range(m))
        near = list(cand)
        for p in range(1, d + 1):  # one in each piece but the first and last
            i = p * m // (d + 2)
            near[i] = "z" if cand[i] != "z" else "y"
        near = "".join(near)
        assert oracle_similarity(cand, near) == t
        art = "0123 " + near + " 4567"
        (result,) = embellishment_reward(
            make_article("A1", art), make_record(new_data_accessions=(cand,)),
            Thresholds(identifier=t, citation=t)).matches[
                "new_data_accessions"]
        assert result.matched and result.score == t
        assert result == fuzzy_contains(art, cand, t)
        assert match_sets([near], [cand], t).pairs == ((near, cand, t),)


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
        with pytest.raises(ValueError, match="GHOST"):
            filter_gold([make_article("A1", "x")], gold)

    def test_blank_string_removed_with_score_zero(self):
        corpus = [make_article("A1", "cites 10.5/abc here")]
        gold = [GoldAnnotation("A1", make_record(
            new_data_dois=("10.5/abc", " ")))]
        kept, (removed,) = filter_gold(corpus, gold)
        assert kept == []
        assert [(d.string, d.best_score) for d in removed.diagnostics] == \
            [(" ", 0.0)]

    def test_stricter_threshold_never_rescues(self):
        corpus = [make_article("A1", "approximate GSE1234X evidence")]
        gold = [GoldAnnotation("A1", make_record(
            new_data_accessions=("GSE12345",)))]
        loose_kept, _ = filter_gold(corpus, gold,
                                    Thresholds(identifier=0.5, citation=0.5))
        strict_kept, _ = filter_gold(corpus, gold,
                                     Thresholds(identifier=0.99, citation=0.99))
        assert len(strict_kept) <= len(loose_kept)


MEMO_BODY = (
    "Methods. Reads were deposited under GSE123456 and the tables at "
    "10.5061/dryad.abc123. We reused data from Smith J, Lee K (2019) Global "
    "survey of soil microbes. Nature 12:34-56, retrieved from "
    "https://example.org/data/soil.")
#: A near copy of the body's citation: grounded, but not verbatim.
NEAR_MISS = "Smith J, Lee K (2019) Global survey of soil microbs. Nature 12:34-56"
MEMO_STRINGS = (
    "GSE123456", "GSE123465", "GSE999999", "10.5061/dryad.abc123",
    "10.5061/dryad.abc12", NEAR_MISS, "Nobody et al. (1999) Unrelated work",
    "https://example.org/data/soil", "https://example.org/data/soil/",
    "https://example.org/data/soil.", "https://example.org/data/soil),")


@pytest.fixture
def window_scans(monkeypatch):
    """The candidates passed to _best_window, one entry per call."""
    calls = []

    def counted(art, cand, starts=None):
        calls.append(cand)
        return _best_window(art, cand, starts)

    monkeypatch.setattr(grounding, "_best_window", counted)
    return calls


@pytest.fixture
def full_scans(monkeypatch):
    """The candidates passed to _best_window with no marks, one entry per
    call: the scans of every start."""
    calls = []

    def counted(art, cand, starts=None):
        if starts is None:
            calls.append(cand)
        return _best_window(art, cand, starts)

    monkeypatch.setattr(grounding, "_best_window", counted)
    return calls


class TestOnlyAMissScansEveryStart:
    """A string is decided on the marked starts; fuzzy_contains and
    filter_gold scan every start only for the exact score of a miss."""

    def test_matched_near_miss_scans_no_start_unmarked(self, full_scans):
        result = fuzzy_contains(MEMO_BODY, NEAR_MISS, 0.9)
        assert result.matched and 0.9 <= result.score < 1.0
        record = make_record(reuse_data_citations=(NEAR_MISS,))
        kept, removed = filter_gold([make_article("A1", MEMO_BODY)],
                                    [GoldAnnotation("A1", record)])
        assert len(kept) == 1 and not removed
        assert full_scans == []

    @pytest.mark.parametrize("miss", ["GSE999999", "GSE123465",
                                      "Nobody et al. (1999) Unrelated work"])
    def test_miss_scans_every_start_once(self, full_scans, miss):
        result = fuzzy_contains(MEMO_BODY, miss, 0.95)
        assert not result.matched
        assert result.score == pytest.approx(
            oracle_windowed_score(MEMO_BODY, miss), abs=1e-9)
        assert full_scans == [normalize_text(miss)]
        record = make_record(new_data_accessions=(miss,))
        _, (removed,) = filter_gold([make_article("A1", MEMO_BODY)],
                                    [GoldAnnotation("A1", record)])
        (diagnostic,) = removed.diagnostics
        assert diagnostic.best_score == result.score
        assert full_scans == [normalize_text(miss)] * 2


class TestGroundingMemo:
    def test_recurring_string_scanned_once(self, window_scans):
        article = make_article("A1", MEMO_BODY)
        records = [make_record(reuse_data_citations=(NEAR_MISS,),
                               new_data_accessions=(accession,))
                   for accession in ("GSE123456", "GSE123465", "GSE999999")]
        reports = [embellishment_reward(article, r) for r in records]
        assert window_scans.count(normalize_text(NEAR_MISS)) == 1
        # the verbatim accession needs no scan, the other two one each
        assert len(window_scans) == 3
        (near,) = reports[0].matches["reuse_data_citations"]
        assert near.matched and near.score < 1.0
        assert all(r.matches["reuse_data_citations"] == (near,)
                   for r in reports)

    @given(st.lists(st.dictionaries(
        st.sampled_from(LIST_FIELDS),
        st.lists(st.sampled_from(MEMO_STRINGS), max_size=3), max_size=4),
        min_size=1, max_size=4), st.sampled_from(EMBELLISHMENT_MODES))
    @example([{name: ["https://example.org/data/soil.", NEAR_MISS]
               for name in LIST_FIELDS}] * 2, "fraction")
    @settings(deadline=None)
    def test_shared_article_equals_fresh_article(self, lists, mode):
        shared = make_article("A1", MEMO_BODY)
        for fields in lists:
            record = make_record(**{name: tuple(values)
                                    for name, values in fields.items()})
            assert embellishment_reward(shared, record, mode=mode) == \
                embellishment_reward(make_article("A1", MEMO_BODY), record,
                                     mode=mode)

    def test_filter_gold_is_never_served_a_lower_bound(self):
        article = make_article("A1", MEMO_BODY)
        record = make_record(new_data_accessions=("GSE999999",))
        (bound,) = embellishment_reward(article, record).matches[
            "new_data_accessions"]
        exact = oracle_windowed_score(MEMO_BODY, "GSE999999")
        assert not bound.matched and bound.score < exact
        _, removed = filter_gold([article], [GoldAnnotation("A1", record)])
        (diagnostic,) = removed[0].diagnostics
        assert diagnostic.best_score == pytest.approx(exact, abs=1e-9)
        # and the reward after filter_gold still gets its own result
        assert embellishment_reward(article, record).matches[
            "new_data_accessions"] == (bound,)

    def test_reward_and_filter_gold_share_one_search(self, window_scans):
        article = make_article("A1", MEMO_BODY)
        record = make_record(reuse_data_citations=(NEAR_MISS,))
        (near,) = embellishment_reward(article, record).matches[
            "reuse_data_citations"]
        kept, _ = filter_gold([article], [GoldAnnotation("A1", record)])
        assert len(kept) == 1
        assert window_scans == [normalize_text(NEAR_MISS)]
        assert article.grounding_memo == {(NEAR_MISS, 0.9): near}

    def test_loads_share_no_memo(self, tmp_path, window_scans):
        path = write_jsonl(tmp_path / "corpus.jsonl",
                           [corpus_row(make_article("A1", MEMO_BODY))])
        record = make_record(reuse_data_citations=(NEAR_MISS,))
        for load in (1, 2):
            (article,) = load_corpus(path)
            assert article.grounding_memo == {}
            embellishment_reward(article, record)
            embellishment_reward(article, record)
            assert len(window_scans) == load
