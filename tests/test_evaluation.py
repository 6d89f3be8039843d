"""Pass@1 / pass@k evaluation, report assembly, and disagreement flagging."""

import hashlib
import random

import pytest
from click.testing import CliRunner

from osir import scoring
from osir.cli import main
from osir.config import PipelineConfig
from osir.corpus import load_corpus
from osir.evaluation import (
    EvaluationError,
    FlaggedArticle,
    SampleSet,
    build_eval_report,
    build_sample_sets,
    evaluate_boolean_field,
    evaluate_list_field,
    flag_disagreements,
    majority_vote,
    render_report_table,
    score_samples,
)
from osir.extraction import (
    BOOLEAN_FIELDS,
    GoldAnnotation,
    LIST_FIELDS,
    ParseOutcome,
    load_completions,
    load_gold,
)
from osir.grounding import DEFAULT_THRESHOLDS
from osir.pipeline import parse_stage, score_stage

from conftest import (
    build_unparseable_bundle,
    make_completion,
    make_record,
    perturb_lists,
)


def sample_set(article_id: str, records_or_none: list) -> SampleSet:
    outcomes = tuple(
        ParseOutcome(status="parsed", record=r) if r is not None
        else ParseOutcome(status="format_failure", failure_reason="bad")
        for r in records_or_none
    )
    return SampleSet(article_id=article_id, outcomes=outcomes)


def gold_for(article_id: str, **overrides) -> GoldAnnotation:
    return GoldAnnotation(article_id, make_record(**overrides))


class TestBuildSampleSets:
    def test_groups_and_parses(self):
        completions = [
            make_completion("A2", 0, make_record()),
            make_completion("A1", 1, make_record(reuse_data=True)),
            make_completion("A1", 0, make_record()),
            make_completion("A2", 1, make_record()),
        ]
        sets = build_sample_sets(parse_stage(completions))
        assert [s.article_id for s in sets] == ["A1", "A2"]
        assert sets[0].outcomes[1].record.reuse_data is True

    def test_ragged_counts_rejected(self):
        completions = [
            make_completion("A1", 0, make_record()),
            make_completion("A2", 0, make_record()),
            make_completion("A2", 1, make_record()),
        ]
        with pytest.raises(EvaluationError, match="unequal"):
            build_sample_sets(parse_stage(completions))

    def test_gap_in_indices_rejected(self):
        completions = [
            make_completion("A1", 0, make_record()),
            make_completion("A1", 2, make_record()),
        ]
        with pytest.raises(EvaluationError, match="0..1"):
            build_sample_sets(parse_stage(completions))

    def test_pinned_k_mismatch(self):
        completions = [make_completion("A1", 0, make_record())]
        with pytest.raises(EvaluationError, match="expected 3"):
            build_sample_sets(parse_stage(completions), samples_per_article=3)


class TestEvaluateBooleanField:
    def test_all_correct(self):
        gold = [gold_for("A1", new_data_generated=True)]
        samples = [sample_set("A1", [make_record(new_data_generated=True)] * 3)]
        m = evaluate_boolean_field("new_data_generated", samples, gold)
        assert m.pass_at_1 == m.pass_at_k == 1.0

    def test_one_of_three_correct_per_article(self):
        gold = [gold_for(f"A{i}", new_data_generated=True) for i in range(4)]
        samples = [
            sample_set(f"A{i}", [
                make_record(new_data_generated=True),
                make_record(new_data_generated=False),
                make_record(new_data_generated=False),
            ])
            for i in range(4)
        ]
        m = evaluate_boolean_field("new_data_generated", samples, gold)
        assert m.pass_at_1 == pytest.approx(1 / 3)
        assert m.pass_at_k == 1.0

    def test_zero_correct(self):
        gold = [gold_for("A1", reuse_data=True)]
        samples = [sample_set("A1", [make_record(reuse_data=False)] * 3)]
        m = evaluate_boolean_field("reuse_data", samples, gold)
        assert m.pass_at_1 == m.pass_at_k == 0.0

    def test_unparsed_counts_as_wrong(self):
        gold = [gold_for("A1", reuse_data=False)]
        samples = [sample_set("A1", [None, make_record(), make_record()])]
        m = evaluate_boolean_field("reuse_data", samples, gold)
        assert m.pass_at_1 == pytest.approx(2 / 3)
        assert m.pass_at_k == 1.0

    def test_first_mode_uses_sample_zero(self):
        gold = [gold_for("A1", reuse_data=True)]
        samples = [sample_set("A1", [
            make_record(reuse_data=False),
            make_record(reuse_data=True),
            make_record(reuse_data=True),
        ])]
        m = evaluate_boolean_field("reuse_data", samples, gold,
                                   pass1_mode="first")
        assert m.pass_at_1 == 0.0
        assert m.pass_at_k == 1.0

    def test_missing_gold(self):
        samples = [sample_set("A1", [make_record()])]
        with pytest.raises(EvaluationError, match="A1"):
            evaluate_boolean_field("reuse_data", samples, [])


class TestEvaluateListField:
    def test_perfect(self):
        gold = [gold_for("A1", new_data_dois=("10.1/a",))]
        samples = [sample_set("A1",
                              [make_record(new_data_dois=("10.1/a",))] * 3)]
        m = evaluate_list_field("new_data_dois", samples, gold, 0.95)
        assert m.pass_at_1 == m.pass_at_k == 1.0

    def test_hand_averaged_f1s(self):
        # per-sample F1s {0.5, 1.0, 0.0} -> pass@1 = 0.5, pass@3 = 1.0
        gold = [gold_for("A1", new_data_dois=("10.1/a", "10.1/b"))]
        samples = [sample_set("A1", [
            make_record(new_data_dois=("10.1/a", "10.999/zzz")),  # F1 0.5
            make_record(new_data_dois=("10.1/a", "10.1/b")),      # F1 1.0
            make_record(new_data_dois=("10.777/qqq", "10.888/w")),  # F1 0.0
        ])]
        m = evaluate_list_field("new_data_dois", samples, gold, 0.95)
        assert m.pass_at_1 == pytest.approx(0.5)
        assert m.pass_at_k == 1.0

    def test_all_unparsed(self):
        gold = [gold_for("A1", new_data_dois=("10.1/a",))]
        samples = [sample_set("A1", [None, None, None])]
        m = evaluate_list_field("new_data_dois", samples, gold, 0.95)
        assert m.pass_at_1 == m.pass_at_k == 0.0


class TestFlagDisagreements:
    def test_unanimous_agreement_not_flagged(self):
        record = make_record(reuse_data=True,
                             reuse_data_accessions=("GSE1",))
        gold = [GoldAnnotation("A1", record)]
        samples = [sample_set("A1", [record] * 3)]
        assert flag_disagreements(samples, gold) == []

    def test_majority_boolean_disagreement(self):
        gold = [gold_for("A1", reuse_data=False)]
        samples = [sample_set("A1", [
            make_record(reuse_data=True),
            make_record(reuse_data=True),
            make_record(reuse_data=False),
        ])]
        flagged = flag_disagreements(samples, gold)
        assert len(flagged) == 1
        assert any("reuse_data majority disagreement" in r
                   for r in flagged[0].reasons)

    def test_low_best_f1_flagged(self):
        # best-sample F1 on reuse_data_citations = 2*1/(2*1+1+2) = 0.4 < 0.5
        gold = [gold_for("A1", reuse_data_citations=(
            "Alpha et al. 2019", "Beta et al. 2020", "Gamma et al. 2021"))]
        samples = [sample_set("A1", [
            make_record(reuse_data_citations=("Alpha et al. 2019",
                                              "Unrelated 1987")),
        ] * 3)]
        flagged = flag_disagreements(samples, gold)
        assert len(flagged) == 1
        assert any("reuse_data_citations" in r for r in flagged[0].reasons)

    def test_floor_configurable(self):
        gold = [gold_for("A1", reuse_data_citations=(
            "Alpha et al. 2019", "Beta et al. 2020", "Gamma et al. 2021"))]
        samples = [sample_set("A1", [
            make_record(reuse_data_citations=("Alpha et al. 2019",
                                              "Unrelated 1987")),
        ] * 3)]
        assert flag_disagreements(samples, gold, f1_floor=0.3) == []


class TestBuildEvalReport:
    def test_empty_samples_error(self):
        with pytest.raises(EvaluationError, match="no samples"):
            build_eval_report([], [])

    def test_k1_pass1_equals_passk(self):
        rng = random.Random(5)
        gold, samples = [], []
        for i in range(10):
            flag = rng.random() < 0.5
            gold.append(gold_for(f"A{i}", new_data_generated=flag))
            predicted = make_record(new_data_generated=rng.random() < 0.5)
            samples.append(sample_set(f"A{i}", [predicted]))
        report = build_eval_report(samples, gold)
        for metrics in {**report.boolean_fields, **report.list_fields}.values():
            assert metrics.pass_at_1 == metrics.pass_at_k

    def test_dominance_and_table_rendering(self):
        rng = random.Random(6)
        gold, samples = [], []
        for i in range(8):
            gold.append(gold_for(
                f"A{i}",
                new_data_generated=rng.random() < 0.5,
                new_data_accessions=("GSE%d" % i,),
            ))
            samples.append(sample_set(f"A{i}", [
                make_record(new_data_generated=rng.random() < 0.5,
                            new_data_accessions=("GSE%d" % i,)
                            if rng.random() < 0.7 else ())
                for _ in range(3)
            ]))
        report = build_eval_report(samples, gold)
        for metrics in {**report.boolean_fields, **report.list_fields}.values():
            assert metrics.pass_at_k >= metrics.pass_at_1
        table = render_report_table(report)
        assert "pass@1" in table and "pass@3" in table
        assert "new_data_generated" in table

    def test_list_field_agrees_with_direct_recomputation(self):
        # independently recompute per-sample F1s, then average / take maxima
        rng = random.Random(99)
        from osir.scoring import field_f1, match_sets
        for _ in range(30):
            gold, samples = [], []
            k = rng.randint(1, 3)
            for i in range(rng.randint(1, 20)):
                want = tuple("GSE%d" % rng.randint(0, 50)
                             for _ in range(rng.randint(0, 3)))
                gold.append(gold_for(f"A{i}", reuse_data_accessions=want))
                records = []
                for _ in range(k):
                    if rng.random() < 0.2:
                        records.append(None)
                    else:
                        records.append(make_record(reuse_data_accessions=tuple(
                            "GSE%d" % rng.randint(0, 50)
                            for _ in range(rng.randint(0, 3)))))
                samples.append(sample_set(f"A{i}", records))
            metrics = evaluate_list_field("reuse_data_accessions", samples,
                                          gold, 0.95)
            by_id = {g.article_id: g for g in gold}
            per_article = []
            for s in samples:
                want = by_id[s.article_id].record.reuse_data_accessions
                f1s = []
                for o in s.outcomes:
                    if not o.parsed:
                        f1s.append(0.0)
                    else:
                        f1s.append(field_f1(match_sets(
                            o.record.reuse_data_accessions, want, 0.95)))
                per_article.append(f1s)
            flat = [f1 for f1s in per_article for f1 in f1s]
            assert metrics.pass_at_1 == pytest.approx(sum(flat) / len(flat))
            assert metrics.pass_at_k == pytest.approx(
                sum(max(f1s) for f1s in per_article) / len(per_article))

    def test_article_order_invariance(self):
        gold = [gold_for("A1", reuse_data=True),
                gold_for("A2", reuse_data=False)]
        samples = [
            sample_set("A1", [make_record(reuse_data=True), None]),
            sample_set("A2", [make_record(reuse_data=True),
                              make_record(reuse_data=False)]),
        ]
        forward = evaluate_boolean_field("reuse_data", samples, gold)
        backward = evaluate_boolean_field("reuse_data", samples[::-1],
                                          gold[::-1])
        assert forward == backward

    def test_sample_order_invariance_for_passk(self):
        gold = [gold_for("A1", reuse_data=True)]
        records = [make_record(reuse_data=True), make_record(reuse_data=False),
                   None]
        forward = evaluate_boolean_field(
            "reuse_data", [sample_set("A1", records)], gold)
        backward = evaluate_boolean_field(
            "reuse_data", [sample_set("A1", records[::-1])], gold)
        assert forward.pass_at_k == backward.pass_at_k
        assert forward.pass_at_1 == backward.pass_at_1


def _flags_by_best_parsed_f1(samples, gold, f1_floor=0.5):
    """flag_disagreements' rule, with each list field's best F1 taken over
    the parsed samples by field_score, as a reference."""
    by_id = {g.article_id: g.record for g in gold}
    flagged = []
    for s in samples:
        want = by_id[s.article_id]
        parsed = [o.record for o in s.outcomes if o.parsed]
        reasons = [f"{name} majority disagreement" for name in BOOLEAN_FIELDS
                   if majority_vote(parsed, name) != getattr(want, name)]
        for name in LIST_FIELDS:
            best = max((scoring.field_score(name, r, want, DEFAULT_THRESHOLDS)
                        for r in parsed), default=0.0)
            if best < f1_floor:
                reasons.append(
                    f"{name} best F1 {best:.2f} below floor {f1_floor:.2f}")
        if reasons:
            flagged.append(FlaggedArticle(s.article_id, tuple(reasons)))
    return flagged


class TestEvalScoresEachSampleOnce:
    """osir eval scores every (parsed sample, list field) pair once, and the
    report and the review flags share those scores."""

    #: sha256 of report.json for the bundle below, as written when the
    #: report and the flags each scored every sample.
    REPORT_SHA256 = (
        "79995cb015bba8e15d911d1a81b88acaab51a615de5b43656d41e78a889245b1")

    def test_one_match_per_parsed_sample_and_list_field(self, tmp_path,
                                                        monkeypatch):
        paths = build_unparseable_bundle(tmp_path / "in", seed=1)
        perturb_lists(paths["fixture"], seed=1)
        samples = build_sample_sets(
            parse_stage(load_completions(paths["fixture"])))
        gold = load_gold(paths["gold"])
        parsed = sum(o.parsed for s in samples for o in s.outcomes)
        assert parsed == 144

        calls = []
        match_sets = scoring.match_sets

        def counted(*args):
            calls.append(args)
            return match_sets(*args)

        monkeypatch.setattr(scoring, "match_sets", counted)
        report_path = tmp_path / "report.json"
        result = CliRunner().invoke(main, [
            "eval", "--completions", str(paths["fixture"]),
            "--gold", str(paths["gold"]), "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        assert len(calls) == parsed * len(LIST_FIELDS) == 1152
        monkeypatch.undo()

        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == \
            self.REPORT_SHA256
        expected = _flags_by_best_parsed_f1(samples, gold)
        assert any("best F1" in r for f in expected for r in f.reasons)
        assert flag_disagreements(samples, gold) == expected
        lines = [f"  {f.article_id}: {'; '.join(f.reasons)}"
                 for f in expected]
        assert f"\n{len(expected)} articles flagged for review\n" + \
            "\n".join(lines) + "\n" in result.output


class TestScoresAreTheRewardSubScores:
    """score_samples gives each sample the sub_scores of its rewards.jsonl
    row: one score table for osir score and osir eval."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_score_stage_rows(self, tmp_path, seed):
        paths = build_unparseable_bundle(tmp_path, seed=seed)
        perturb_lists(paths["fixture"], seed=seed)
        completions = load_completions(paths["fixture"])
        gold = load_gold(paths["gold"])
        articles = {a.id: a for a in load_corpus(paths["corpus"])}
        config = PipelineConfig()
        rows = score_stage(parse_stage(completions), articles,
                           {g.article_id: g for g in gold}, config)
        expected: dict[str, dict[int, dict]] = {}
        for row in rows:
            expected.setdefault(row["article_id"], {})[row["sample_index"]] = \
                row["sub_scores"]
        assert any({} in by_index.values() for by_index in expected.values())

        samples = build_sample_sets(parse_stage(completions))
        scores = score_samples(samples, gold, config.thresholds())
        assert {s.article_id: dict(enumerate(article))
                for s, article in zip(samples, scores)} == expected
