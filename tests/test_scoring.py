"""Set matching, field F1, accuracy reward, and the composite reward."""

import itertools
import random
import sys

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osir import scoring
from osir.cli import main
from osir.extraction import (GoldAnnotation, ParseOutcome, RawCompletion,
                             SCORED_FIELDS)
from osir.scoring import (
    RewardBreakdown,
    accuracy_reward,
    field_f1,
    match_sets,
    outcome_reward,
    total_reward,
)
from osir.text import max_edits, similarity

from conftest import (LETTERS, completion_row, completion_text,
                      edit_all_but_two_pieces, gold_row, make_article,
                      make_completion, make_record, write_jsonl)
from oracles import (oracle_f1, oracle_greedy_pairs, oracle_normalize,
                     oracle_optimal_tp, oracle_recursive_pairs,
                     oracle_similarity)


class TestMatchSets:
    def test_identical_sets(self):
        items = ["GSE1", "GSE2", "GSE3"]
        m = match_sets(items, list(items), 0.9)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)

    def test_disjoint_dissimilar(self):
        m = match_sets(["aaaaaaaa"], ["zzzzzzzz"], 0.9)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_partial_overlap(self):
        m = match_sets(["10.1/a", "10.1/b"], ["10.1/a", "10.1/c"], 0.99)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.pairs[0][:2] == ("10.1/a", "10.1/a")

    def test_normalization_insensitive(self):
        m = match_sets(["  GSE12345 "], ["gse12345"], 0.95)
        assert m.tp == 1

    def test_one_to_one(self):
        # two predicted copies cannot both consume the single gold entry
        m = match_sets(["GSE1", "GSE1"], ["GSE1"], 0.9)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)

    def test_greedy_matches_exhaustive_on_random_sets(self):
        rng = random.Random(11)
        vocab = ["GSE%05d" % rng.randint(0, 99999) for _ in range(40)]
        for _ in range(60):
            gold = rng.sample(vocab, rng.randint(0, 5))
            predicted = []
            for g in gold:
                roll = rng.random()
                if roll < 0.6:
                    predicted.append(g)
                elif roll < 0.8:
                    pos = rng.randrange(len(g))
                    predicted.append(g[:pos] + "X" + g[pos + 1:])
            predicted += ["FAKE%05d" % rng.randint(0, 99999)
                          for _ in range(rng.randint(0, 2))]
            m = match_sets(predicted, gold, 0.9)
            assert m.tp <= oracle_optimal_tp(predicted, gold, 0.9)
            assert m.fp == len(predicted) - m.tp
            assert m.fn == len(gold) - m.tp

    def test_greedy_short_of_the_optimum_is_augmented(self):
        # Greedy pairs the exact copies (1.0) and leaves two pairs at 0.8;
        # crossing them gives two pairs at 0.9.
        m = match_sets(["ABCDEFGHIJ", "ABCDEFGHYJ"],
                       ["ABCDEFGHIJ", "ABCDEFGHIX"], 0.9)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)
        assert m.pairs == (("ABCDEFGHIJ", "ABCDEFGHIX", 0.9),
                           ("ABCDEFGHYJ", "ABCDEFGHIJ", 0.9))
        assert field_f1(m) == 1.0

    def test_optimal_on_tied_similarities(self):
        """tp is the optimum where similarities tie, which the acceptance
        matching oracle skips."""
        rng = random.Random(13)
        tied = 0
        for _ in range(400):
            threshold = rng.choice((0.5, 0.7, 0.8, 0.9))
            predicted, gold = (
                ["".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(0, 6))] for _ in range(2))
            sims = [oracle_similarity(oracle_normalize(p), oracle_normalize(g))
                    for p, g in itertools.product(predicted, gold)]
            if len(set(sims)) == len(sims):
                continue
            tied += 1
            m = match_sets(predicted, gold, threshold)
            assert m.tp == oracle_optimal_tp(predicted, gold, threshold), (
                predicted, gold, threshold)
            for p, g, sim in m.pairs:
                assert sim >= threshold
                assert sim == oracle_similarity(oracle_normalize(p),
                                                oracle_normalize(g))
        assert tied > 200

    def test_pairs_equal_greedy_over_every_pair(self):
        """Pairs skipped for their length gap are never ones greedy keeps;
        where greedy is short of the optimum, the augmented tp is optimal."""
        rng = random.Random(12)
        for _ in range(150):
            threshold = rng.choice((0.5, 0.8, 0.9, 0.95))
            strings = ["".join(rng.choice("abc")
                               for _ in range(rng.randint(0, 12)))
                       for _ in range(rng.randint(0, 8))]
            predicted, gold = strings[::2], strings[1::2]
            scored = []
            for (i, p), (j, g) in itertools.product(enumerate(predicted),
                                                    enumerate(gold)):
                sim = oracle_similarity(oracle_normalize(p),
                                        oracle_normalize(g))
                if sim >= threshold:
                    scored.append((-sim, i, j))
            expected, used_pred, used_gold = [], set(), set()
            for neg_sim, i, j in sorted(scored):
                if i not in used_pred and j not in used_gold:
                    used_pred.add(i)
                    used_gold.add(j)
                    expected.append((predicted[i], gold[j], -neg_sim))
            m = match_sets(predicted, gold, threshold)
            optimal = oracle_optimal_tp(predicted, gold, threshold)
            if len(expected) == optimal:
                assert m.pairs == tuple(expected)
            else:
                assert m.tp == optimal, (predicted, gold, threshold)


@st.composite
def _two_surviving_pieces(draw):
    """(threshold, candidate, copy): the copy has one substitution in each
    of d of the candidate's d + 2 pieces, d = max_edits(t, len), so only two
    pieces survive and the pair scores exactly 1 - d / len >= t."""
    t = draw(st.sampled_from((0.7, 0.8, 0.9, 0.95)))
    length = draw(st.integers(10, 60))
    d = max_edits(t, length)
    assume(d + 2 <= length // 2)  # pieces of two characters or more
    cand = draw(st.text(LETTERS, min_size=length, max_size=length))
    return t, cand, edit_all_but_two_pieces(draw, cand, "s" * d)


class TestTwoVoteFilter:
    @given(_two_surviving_pieces(),
           st.lists(st.text("abc", max_size=12), max_size=2),
           st.lists(st.text("abc", max_size=12), max_size=2))
    @settings(deadline=None)
    def test_pair_with_two_surviving_pieces_matches(self, case, more_predicted,
                                                     more_gold):
        t, cand, near = case
        predicted, gold = [near, *more_predicted], [cand, *more_gold]
        m = match_sets(predicted, gold, t)
        assert m.tp == oracle_optimal_tp(predicted, gold, t) >= 1
        for p, g, sim in m.pairs:
            assert sim == oracle_similarity(oracle_normalize(p),
                                            oracle_normalize(g))
        assert match_sets([near], [cand], t).pairs == (
            (near, cand, oracle_similarity(near, cand)),)

    def test_pair_without_two_shared_pieces_skips_similarity(self,
                                                           monkeypatch):
        # at 0.9 over 20 characters, d = 2: pieces of five characters
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return similarity(a, b)

        monkeypatch.setattr(scoring, "similarity", counted)
        gold = "abcdefghijklmnopqrst"
        for none_or_one_shared in ("tsrqponmlkjihgfedcba",
                                   "abcdeXghijXlmnoXqrsX"):
            assert match_sets([none_or_one_shared], [gold], 0.9).tp == 0
        assert calls == []
        assert match_sets(["abcdeXghijklmnoXqrst"], [gold], 0.9).tp == 1
        assert len(calls) == 1


def _chain(text: str, n: int, length: int) -> tuple[list[str], list[str]]:
    """(predicted, gold), n strings a side, from windows of *text* (at least
    n + length - 1 characters): gold j is text[j:j + length], and predicted
    i is gold i without its first character and with "#" appended. So
    predicted i is 1 edit from gold i + 1 and 2 from gold i, greedy pairs i
    with i + 1 for every i < n - 1, and the one maximum matching, i with i,
    takes an augmenting path through all n pairs."""
    gold = [text[j:j + length] for j in range(n)]
    return [g[1:] + "#" for g in gold], gold


@st.composite
def _augmenting_instances(draw):
    """(predicted, gold): one to three chains of 10-character strings (see
    _chain), with a few repeated or unrelated strings, in a random order."""
    predicted, gold = [], []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 4))
        text = draw(st.text(LETTERS, min_size=n + 9, max_size=n + 9))
        more_predicted, more_gold = _chain(text, n, 10)
        predicted += more_predicted
        gold += more_gold
    predicted += draw(st.lists(st.sampled_from(gold), max_size=2))
    gold += draw(st.lists(st.sampled_from(predicted), max_size=2))
    gold += draw(st.lists(st.text(LETTERS, min_size=8, max_size=12),
                          max_size=2))
    return draw(st.permutations(predicted)), draw(st.permutations(gold))


class TestAugmentingPaths:
    """match_sets walks each augmenting path with its own stack of frames,
    so a path longer than the recursion limit still matches."""

    @given(_augmenting_instances())
    @settings(deadline=None)
    def test_pairs_equal_the_recursive_form(self, instance):
        predicted, gold = instance
        threshold = 0.75  # 2 edits in 10 reach it, 3 do not
        assume(len(oracle_greedy_pairs(predicted, gold, threshold))
               < oracle_optimal_tp(predicted, gold, threshold))
        assert match_sets(predicted, gold, threshold).pairs == \
            oracle_recursive_pairs(predicted, gold, threshold)

    def test_chain_longer_than_the_recursion_limit(self, tmp_path):
        n, limit = 300, 200
        rng = random.Random(14)
        text = "".join(rng.choice(LETTERS) for _ in range(n + 39))
        predicted, gold = _chain(text, n, 40)
        assert similarity(predicted[0], gold[1]) > 0.95
        assert similarity(predicted[0], gold[0]) == 0.95
        record = make_record(new_data_accessions=tuple(predicted))
        completions = write_jsonl(tmp_path / "completions.jsonl", [
            completion_row(make_completion("a1", 0, record))])
        gold_path = write_jsonl(tmp_path / "gold.jsonl", [gold_row(
            GoldAnnotation("a1", make_record(
                new_data_accessions=tuple(gold))))])
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            m = match_sets(predicted, gold, 0.95)
            result = CliRunner().invoke(main, [
                "eval", "--completions", str(completions),
                "--gold", str(gold_path),
                "--out", str(tmp_path / "report.json")])
        finally:
            sys.setrecursionlimit(saved)
        assert (m.tp, m.fp, m.fn) == (n, 0, 0)
        assert result.exit_code == 0, result.output


class TestFieldF1:
    def test_half(self):
        m = match_sets(["10.1/a", "10.1/b"], ["10.1/a", "10.1/c"], 0.99)
        assert field_f1(m) == pytest.approx(0.5)
        assert field_f1(m) == pytest.approx(oracle_f1(m.tp, m.fp, m.fn))

    def test_both_empty(self):
        assert field_f1(match_sets([], [], 0.9)) == 1.0

    def test_zero_tp(self):
        m = match_sets(["xxxxxxxx"], ["yyyyyyyy"], 0.9)
        assert field_f1(m) == 0.0


class TestAccuracyReward:
    def test_identical(self):
        record = make_record(new_data_generated=True,
                             new_data_accessions=("GSE1",))
        gold = GoldAnnotation("A1", record)
        v, sub = accuracy_reward(record, gold)
        assert v == 1.0
        assert all(s == 1.0 for s in sub.values())

    def test_flipped_booleans_perfect_lists(self):
        gold_record = make_record(new_data_generated=True, reuse_data=False,
                                  new_data_accessions=("GSE1", "GSE2"),
                                  reuse_data_dois=("10.1/z",))
        flipped = make_record(new_data_generated=False, reuse_data=True,
                              new_data_accessions=("GSE1", "GSE2"),
                              reuse_data_dois=("10.1/z",))
        v, sub = accuracy_reward(flipped, GoldAnnotation("A1", gold_record))
        assert v == pytest.approx(0.8)
        assert sub["new_data_generated"] == 0.0
        assert sub["reuse_data"] == 0.0

    def test_vacuous_agreement(self):
        record = make_record()
        v, _ = accuracy_reward(record, GoldAnnotation("A1", record))
        assert v == 1.0

    def test_reflexivity_random_records(self):
        rng = random.Random(13)
        for _ in range(50):
            record = make_record(
                new_data_generated=rng.random() < 0.5,
                reuse_data=rng.random() < 0.5,
                new_data_accessions=tuple(
                    "GSE%d" % rng.randint(0, 999)
                    for _ in range(rng.randint(0, 3))),
                reuse_data_urls=tuple(
                    "https://x.org/%d" % rng.randint(0, 999)
                    for _ in range(rng.randint(0, 3))),
            )
            v, _ = accuracy_reward(record, GoldAnnotation("A", record))
            assert v == 1.0

    def test_corrupting_one_element_lowers_v(self):
        gold_record = make_record(new_data_accessions=("GSE11111", "GSE22222"))
        gold = GoldAnnotation("A1", gold_record)
        corrupted = make_record(new_data_accessions=("GSE11111", "QQWWEE99"))
        v_good, _ = accuracy_reward(gold_record, gold)
        v_bad, _ = accuracy_reward(corrupted, gold)
        assert v_bad < v_good


class TestTotalReward:
    def budget_fixture(self):
        body = ("We deposited reads under GSE12345 and also analyzed "
                "10.5061/dryad.abc plus https://osf.io/xyz and GSE67890 "
                "from earlier work.")
        article = make_article("A1", body)
        gold = GoldAnnotation("A1", make_record(
            new_data_generated=True, reuse_data=True,
            new_data_accessions=("GSE12345",),
            reuse_data_accessions=("GSE67890",),
        ))
        return article, gold

    def test_unparseable_is_zero(self):
        article, gold = self.budget_fixture()
        raw = RawCompletion("A1", 0, "no payload at all")
        breakdown = total_reward(article, raw, gold)
        assert breakdown == RewardBreakdown(f=0, e=0.0, v=0.0, r=0.0,
                                            sub_scores={})

    def test_perfect_completion(self):
        article, gold = self.budget_fixture()
        raw = RawCompletion("A1", 0, completion_text(gold.record))
        breakdown = total_reward(article, raw, gold)
        assert breakdown.f == 1
        assert breakdown.e == 1.0
        assert breakdown.v == 1.0
        assert breakdown.r == 1.0

    def test_component_product(self):
        # e = 0.8 (4 of 5 strings grounded), v = 0.9 (one boolean flipped)
        article, gold = self.budget_fixture()
        record = make_record(
            new_data_generated=False,  # gold says True
            reuse_data=True,
            new_data_accessions=("GSE12345",),
            reuse_data_accessions=("GSE67890",),
            reuse_data_dois=("10.5061/dryad.abc",),
            reuse_data_urls=("https://osf.io/xyz", "https://fake.invalid/q"),
        )
        gold2 = GoldAnnotation("A1", make_record(
            new_data_generated=True, reuse_data=True,
            new_data_accessions=("GSE12345",),
            reuse_data_accessions=("GSE67890",),
            reuse_data_dois=("10.5061/dryad.abc",),
            reuse_data_urls=("https://osf.io/xyz", "https://fake.invalid/q"),
        ))
        raw = RawCompletion("A1", 0, completion_text(record))
        breakdown = total_reward(article, raw, gold2)
        assert breakdown.f == 1
        assert breakdown.e == pytest.approx(4 / 5)
        assert breakdown.v == pytest.approx(0.9)
        assert breakdown.r == pytest.approx(breakdown.f * breakdown.e * breakdown.v)

    def test_article_mismatch(self):
        article, gold = self.budget_fixture()
        raw = RawCompletion("OTHER", 0, completion_text(gold.record))
        with pytest.raises(ValueError, match="OTHER"):
            total_reward(article, raw, gold)

    def test_article_id_mismatch(self):
        # outcome_reward pairs the article with its gold, parsed or not
        article, gold = self.budget_fixture()
        for outcome in (ParseOutcome(status="parsed", record=gold.record),
                        ParseOutcome(status="format_failure",
                                     failure_reason="bad")):
            with pytest.raises(ValueError, match="mismatch.*'A2'.*'A1'"):
                outcome_reward(make_article("A2", article.body), outcome,
                               gold)

    def test_sub_scores_cover_scored_fields(self):
        article, gold = self.budget_fixture()
        raw = RawCompletion("A1", 0, completion_text(gold.record))
        breakdown = total_reward(article, raw, gold)
        assert set(breakdown.sub_scores) == set(SCORED_FIELDS)
