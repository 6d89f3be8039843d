"""Set matching, field F1, accuracy reward, and the composite reward."""

import itertools
import random

import pytest

from osir.extraction import GoldAnnotation, RawCompletion, SCORED_FIELDS
from osir.scoring import (
    RewardBreakdown,
    accuracy_reward,
    field_f1,
    match_sets,
    total_reward,
)

from conftest import completion_text, make_article, make_record
from oracles import (oracle_f1, oracle_normalize, oracle_optimal_tp,
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

    def test_pairs_equal_greedy_over_every_pair(self):
        """Pairs skipped for their length gap are never ones greedy keeps."""
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
            assert m.pairs == tuple(expected)


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

    def test_article_id_mismatch(self):
        record = make_record()
        with pytest.raises(ValueError, match="mismatch"):
            accuracy_reward(record, GoldAnnotation("A1", record),
                            article_id="A2")

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

    def test_sub_scores_cover_scored_fields(self):
        article, gold = self.budget_fixture()
        raw = RawCompletion("A1", 0, completion_text(gold.record))
        breakdown = total_reward(article, raw, gold)
        assert set(breakdown.sub_scores) == set(SCORED_FIELDS)
