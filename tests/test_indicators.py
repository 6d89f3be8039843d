"""Verdict resolution and corpus-level indicator aggregation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osir.evaluation import SampleSet
from osir.extraction import ParseOutcome
from osir.indicators import (
    ArticleVerdict,
    accession_stats,
    aggregate_by,
    percent_half_up,
    percent_one_decimal,
    resolve_verdict,
    trace_coverage,
)

from conftest import make_article, make_record
from oracles import oracle_percent_half_up, oracle_percent_one_decimal


def parsed_samples(article_id: str, records: list) -> SampleSet:
    outcomes = tuple(
        ParseOutcome(status="parsed", record=r) if r is not None
        else ParseOutcome(status="format_failure", failure_reason="bad")
        for r in records
    )
    return SampleSet(article_id=article_id, outcomes=outcomes)


def verdict(article_id: str = "A", generated: bool = False,
            reused: bool = False, accession: bool = False,
            gen_trace: bool = False, reuse_trace: bool = False,
            reused_accessions: tuple = ()) -> ArticleVerdict:
    return ArticleVerdict(
        article_id=article_id,
        new_data_generated=generated,
        data_reused=reused,
        neither=not generated and not reused,
        has_accession=accession,
        has_generation_trace=gen_trace,
        has_reuse_trace=reuse_trace,
        reused_accessions=reused_accessions,
    )


class TestResolveVerdict:
    def test_identical_samples(self):
        record = make_record(new_data_generated=True, reuse_data=False,
                             new_data_description="we measured things")
        v = resolve_verdict(parsed_samples("A1", [record] * 3))
        assert v.new_data_generated is True
        assert v.data_reused is False
        assert v.neither is False
        assert v.has_generation_trace is True
        assert v.has_reuse_trace is False
        assert v.unresolved is False

    def test_majority_two_to_one(self):
        records = [make_record(reuse_data=True), make_record(reuse_data=True),
                   make_record(reuse_data=False)]
        v = resolve_verdict(parsed_samples("A1", records))
        assert v.data_reused is True

    def test_tie_defaults_false(self):
        records = [make_record(reuse_data=True), make_record(reuse_data=False)]
        v = resolve_verdict(parsed_samples("A1", records))
        assert v.data_reused is False

    def test_zero_parsed_unresolved(self):
        v = resolve_verdict(parsed_samples("A1", [None, None, None]))
        assert v.unresolved is True
        assert v.neither is True
        assert v.new_data_generated is False and v.data_reused is False

    def test_evidence_union_and_canonicalization(self):
        records = [
            make_record(reuse_data_accessions=("gse12345", "()")),
            make_record(reuse_data_accessions=("GSE12345.", "GSE777")),
            make_record(new_data_accessions=("PRJNA1",)),
        ]
        v = resolve_verdict(parsed_samples("A1", records))
        assert v.reused_accessions == ("GSE12345", "GSE777")
        assert v.has_accession is True

    def test_empty_canonical_accession_counts_nowhere(self):
        records = [make_record(reuse_data_accessions=(".", "()")),
                   make_record(new_data_accessions=("[ ]", " "))]
        v = resolve_verdict(parsed_samples("A1", records))
        assert v.reused_accessions == ()
        assert v.has_accession is False
        stats = accession_stats([v])
        assert stats.articles_with_accession == 0
        assert stats.accessions == ()

    def test_no_samples_unresolved(self):
        # the verdict of an article with samples, none parsed
        assert resolve_verdict(SampleSet(article_id="A1", outcomes=())) == \
            resolve_verdict(parsed_samples("A1", [None]))


class TestPercentRounding:
    def test_half_up_not_bankers(self):
        assert percent_half_up(1, 8) == 13  # 12.5 rounds up
        assert percent_half_up(25, 1000) == 3  # 2.5 rounds up
        assert percent_half_up(0, 10) == 0
        assert percent_half_up(10, 10) == 100

    def test_one_decimal(self):
        assert percent_one_decimal(487, 4475) == 10.9
        assert percent_one_decimal(1, 16) == 6.3  # 6.25 -> half-up

    def test_empty_total_is_zero(self):
        assert percent_half_up(0, 0) == 0
        assert percent_one_decimal(0, 0) == 0.0

    def test_match_decimal_oracle_on_every_small_total(self):
        # exact halves, where the rounding rule shows, are common here
        for total in range(200):
            for count in range(total + 1):
                assert percent_half_up(count, total) == \
                    oracle_percent_half_up(count, total)
                assert percent_one_decimal(count, total) == \
                    oracle_percent_one_decimal(count, total)

    @given(st.one_of(st.integers(1, 400), st.integers(1, 10**9)).flatmap(
        lambda total: st.tuples(st.integers(0, total), st.just(total))))
    def test_match_decimal_oracle(self, count_total):
        count, total = count_total
        assert percent_half_up(count, total) == \
            oracle_percent_half_up(count, total)
        assert percent_one_decimal(count, total) == \
            oracle_percent_one_decimal(count, total)


def discipline_fixture():
    """Synthetic verdict population with controlled per-discipline counts."""
    table = {
        "Health Sciences": (1842, 1070, 739, 185),
        "Life Sciences": (1029, 780, 382, 48),
        "Physical Sciences": (783, 368, 365, 143),
        "Social Sciences": (817, 395, 409, 59),
    }
    verdicts, articles = [], {}
    serial = 0
    for discipline, (pubs, generated, reused, neither) in table.items():
        union = pubs - neither
        overlap = generated + reused - union
        assert overlap >= 0
        reuse_start = generated - overlap
        for i in range(pubs):
            aid = f"P{serial}"
            serial += 1
            is_gen = i < generated
            is_reuse = reuse_start <= i < reuse_start + reused
            verdicts.append(verdict(aid, generated=is_gen, reused=is_reuse))
            articles[aid] = make_article(aid, "body", discipline=discipline)
    return verdicts, articles, table


class TestAggregateBy:
    def test_discipline_percentages(self):
        verdicts, articles, table = discipline_fixture()
        rows = {r.group: r for r in aggregate_by(verdicts, "discipline",
                                                 articles)}
        expected = {
            "Health Sciences": (58, 40, 10),
            "Life Sciences": (76, 37, 5),
            "Physical Sciences": (47, 47, 18),
            "Social Sciences": (48, 50, 7),
        }
        for discipline, (gen_pct, reuse_pct, neither_pct) in expected.items():
            row = rows[discipline]
            assert row.publications == table[discipline][0]
            assert row.generated_pct == gen_pct
            assert row.reused_pct == reuse_pct
            assert row.neither_pct == neither_pct

    def test_single_article_neither(self):
        rows = aggregate_by([verdict("A1")], "total")
        assert rows[0].generated_pct == 0
        assert rows[0].reused_pct == 0
        assert rows[0].neither_pct == 100

    def test_group_counts_sum_to_total(self):
        verdicts, articles, _ = discipline_fixture()
        rows = aggregate_by(verdicts, "discipline", articles)
        total = rows[-1]
        assert total.group == "Total"
        groups = rows[:-1]
        assert sum(r.publications for r in groups) == total.publications
        assert sum(r.generated_count for r in groups) == total.generated_count
        assert sum(r.reused_count for r in groups) == total.reused_count
        assert sum(r.neither_count for r in groups) == total.neither_count

    def test_permutation_invariance(self):
        verdicts, articles, _ = discipline_fixture()
        shuffled = list(verdicts)
        random.Random(3).shuffle(shuffled)
        assert aggregate_by(verdicts, "discipline", articles) == \
            aggregate_by(shuffled, "discipline", articles)

    def test_percent_recomputable_from_counts(self):
        verdicts, articles, _ = discipline_fixture()
        for row in aggregate_by(verdicts, "discipline", articles):
            assert row.generated_pct == percent_half_up(row.generated_count,
                                                        row.publications)
            assert row.reused_pct == percent_half_up(row.reused_count,
                                                     row.publications)
            assert row.neither_pct == percent_half_up(row.neither_count,
                                                      row.publications)

    def test_unknown_grouping(self):
        with pytest.raises(ValueError, match="grouping"):
            aggregate_by([], "journal")

    def test_region_grouping(self):
        verdicts = [verdict("A1", generated=True), verdict("A2", reused=True)]
        articles = {
            "A1": make_article("A1", "x", region="Africa"),
            "A2": make_article("A2", "x", region="Europe"),
        }
        rows = aggregate_by(verdicts, "region", articles)
        assert [r.group for r in rows] == ["Africa", "Europe", "Total"]


class TestTraceCoverage:
    def test_published_counts(self):
        n, any_n, gen_n, reuse_n = 4475, 4370, 4001, 3531
        overlap = gen_n + reuse_n - any_n
        verdicts = []
        for i in range(n):
            gen_trace = i < gen_n
            reuse_trace = (gen_n - overlap) <= i < (gen_n - overlap) + reuse_n
            verdicts.append(verdict(f"A{i}", gen_trace=gen_trace,
                                    reuse_trace=reuse_trace))
        cov = trace_coverage(verdicts)
        assert (cov.any_count, cov.generation_count, cov.reuse_count) == \
            (any_n, gen_n, reuse_n)
        assert (cov.any_pct, cov.generation_pct, cov.reuse_pct) == (98, 89, 79)

    def test_all_traced(self):
        verdicts = [verdict(f"A{i}", gen_trace=True, reuse_trace=True)
                    for i in range(5)]
        cov = trace_coverage(verdicts)
        assert (cov.any_pct, cov.generation_pct, cov.reuse_pct) == (100, 100, 100)

    def test_none_traced(self):
        verdicts = [verdict(f"A{i}") for i in range(5)]
        cov = trace_coverage(verdicts)
        assert (cov.any_pct, cov.generation_pct, cov.reuse_pct) == (0, 0, 0)


class TestAccessionStats:
    def test_published_share(self):
        verdicts = [verdict(f"A{i}", accession=i < 487) for i in range(4475)]
        stats = accession_stats(verdicts)
        assert stats.articles_with_accession == 487
        assert stats.articles_with_accession_pct == 10.9

    def test_unique_canonicalization_across_articles(self):
        verdicts = [
            verdict("A1", accession=True, reused_accessions=("GSE12345",)),
            verdict("A2", accession=True, reused_accessions=("GSE12345",)),
        ]
        stats = accession_stats(verdicts)
        assert stats.unique_reused_accessions == 1
        assert stats.accessions == ("GSE12345",)

    def test_empty(self):
        stats = accession_stats([])
        assert stats.articles_with_accession == 0
        assert stats.articles_with_accession_pct == 0.0
        assert stats.unique_reused_accessions == 0
        assert stats.accessions == ()
