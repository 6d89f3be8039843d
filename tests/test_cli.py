"""CLI subcommands exercised through click's test runner."""

import csv
import json
import random
from dataclasses import replace

import pytest
from click.testing import CliRunner

from osir.cli import main

from conftest import (
    build_replay_bundle,
    completion_text,
    corpus_row,
    gold_row,
    make_article,
    make_record,
    write_jsonl,
)
from osir.extraction import GoldAnnotation


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bundle(tmp_path):
    return build_replay_bundle(tmp_path, n_articles=4)


class TestIngest:
    def test_reports_composition(self, runner, bundle):
        result = runner.invoke(main, ["ingest", "--corpus",
                                      str(bundle["corpus"]), "--validate"])
        assert result.exit_code == 0, result.output
        assert "4 articles" in result.output
        assert "corpus OK" in result.output

    def test_malformed_corpus_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        result = runner.invoke(main, ["ingest", "--corpus", str(bad),
                                      "--validate"])
        assert result.exit_code != 0
        assert "line 1" in result.output


class TestExtract:
    def test_replay_extraction(self, runner, bundle, tmp_path):
        out = tmp_path / "completions.jsonl"
        records = tmp_path / "records.jsonl"
        result = runner.invoke(main, [
            "extract", "--corpus", str(bundle["corpus"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--samples", "3", "--out", str(out), "--records", str(records),
        ])
        assert result.exit_code == 0, result.output
        assert "12 completions" in result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert records.exists()

    def test_missing_fixture_entry(self, runner, bundle, tmp_path):
        result = runner.invoke(main, [
            "extract", "--corpus", str(bundle["corpus"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--samples", "5", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code != 0
        assert "no fixture completion" in result.output


class TestScore:
    def extract_first(self, runner, bundle, tmp_path):
        completions = tmp_path / "completions.jsonl"
        runner.invoke(main, [
            "extract", "--corpus", str(bundle["corpus"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--out", str(completions),
        ])
        return completions

    def test_scores_all_samples(self, runner, bundle, tmp_path):
        completions = self.extract_first(runner, bundle, tmp_path)
        out = tmp_path / "rewards.jsonl"
        result = runner.invoke(main, [
            "score", "--corpus", str(bundle["corpus"]),
            "--completions", str(completions),
            "--gold", str(bundle["gold"]), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 12
        for row in rows:
            assert row["r"] == pytest.approx(row["f"] * row["e"] * row["v"])
            assert 0.0 <= row["r"] <= 1.0

    def test_select_filters_by_min_reward(self, runner, bundle, tmp_path):
        completions = self.extract_first(runner, bundle, tmp_path)
        out = tmp_path / "selected.jsonl"
        result = runner.invoke(main, [
            "score", "--corpus", str(bundle["corpus"]),
            "--completions", str(completions),
            "--gold", str(bundle["gold"]), "--out", str(out),
            "--min-reward", "0.9", "--select",
        ])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows, "replayed gold completions should clear 0.9"
        assert all(row["r"] >= 0.9 for row in rows)

    def test_select_requires_min_reward(self, runner, bundle, tmp_path):
        completions = self.extract_first(runner, bundle, tmp_path)
        result = runner.invoke(main, [
            "score", "--corpus", str(bundle["corpus"]),
            "--completions", str(completions),
            "--gold", str(bundle["gold"]),
            "--out", str(tmp_path / "x.jsonl"), "--select",
        ])
        assert result.exit_code != 0


class TestEval:
    def test_table_and_report(self, runner, bundle, tmp_path):
        completions = tmp_path / "completions.jsonl"
        runner.invoke(main, [
            "extract", "--corpus", str(bundle["corpus"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--out", str(completions),
        ])
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, [
            "eval", "--completions", str(completions),
            "--gold", str(bundle["gold"]), "--samples", "3",
            "--out", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        assert "pass@1" in result.output and "pass@3" in result.output
        payload = json.loads(report_path.read_text())
        assert payload["samples_per_article"] == 3
        assert set(payload["boolean_fields"]) == {"new_data_generated",
                                                  "reuse_data"}
        for metrics in payload["list_fields"].values():
            assert metrics["pass_at_k"] >= metrics["pass_at_1"]


class TestFilterGold:
    def test_removals_report(self, runner, tmp_path):
        articles = [
            make_article("K1", "body mentions GSE11111 plainly"),
            make_article("K2", "body without the accession"),
        ]
        gold = [
            GoldAnnotation("K1", make_record(new_data_accessions=("GSE11111",))),
            GoldAnnotation("K2", make_record(new_data_accessions=("GSE22222",))),
        ]
        corpus_path = write_jsonl(tmp_path / "c.jsonl",
                                  [corpus_row(a) for a in articles])
        gold_path = write_jsonl(tmp_path / "g.jsonl",
                                [gold_row(g) for g in gold])
        kept_path = tmp_path / "kept.jsonl"
        removed_path = tmp_path / "removed.csv"
        result = runner.invoke(main, [
            "filter-gold", "--corpus", str(corpus_path),
            "--gold", str(gold_path),
            "--out-kept", str(kept_path), "--out-removed", str(removed_path),
        ])
        assert result.exit_code == 0, result.output
        assert "kept 1" in result.output and "removed 1" in result.output
        with removed_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["article_id"] == "K2"
        assert rows[0]["string"] == "GSE22222"
        assert float(rows[0]["best_score"]) < float(rows[0]["threshold"])


class TestAggregate:
    def test_indicator_outputs(self, runner, bundle, tmp_path):
        records = tmp_path / "records.jsonl"
        runner.invoke(main, [
            "extract", "--corpus", str(bundle["corpus"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--out", str(tmp_path / "c.jsonl"), "--records", str(records),
        ])
        out_dir = tmp_path / "ind"
        result = runner.invoke(main, [
            "aggregate", "--records", str(records),
            "--corpus", str(bundle["corpus"]),
            "--by", "discipline", "--out", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        with (out_dir / "indicators.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["group"] == "Total"
        assert int(rows[-1]["publications"]) == 4
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "trace_coverage" in summary and "accessions" in summary

    def test_article_without_records_counts_as_neither(self, runner, tmp_path):
        articles = [make_article("R1", "has GSE1 data"),
                    make_article("R2", "no model output for this one")]
        corpus_path = write_jsonl(tmp_path / "c.jsonl",
                                  [corpus_row(a) for a in articles])
        record = make_record(new_data_generated=True,
                             new_data_accessions=("GSE1",))
        records_path = tmp_path / "r.jsonl"
        row = {"article_id": "R1", "sample_index": 0}
        from osir.extraction import record_to_payload
        row.update(record_to_payload(record))
        write_jsonl(records_path, [row])
        out_dir = tmp_path / "ind"
        result = runner.invoke(main, [
            "aggregate", "--records", str(records_path),
            "--corpus", str(corpus_path), "--by", "total",
            "--out", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        with (out_dir / "indicators.csv").open() as fh:
            total = list(csv.DictReader(fh))[0]
        assert total["publications"] == "2"
        assert total["generated_count"] == "1"
        assert total["neither_count"] == "1"


    def test_record_of_unknown_article_fails(self, runner, tmp_path):
        corpus_path = write_jsonl(tmp_path / "c.jsonl",
                                  [corpus_row(make_article("R1", "text"))])
        row = {"article_id": "R9", "sample_index": 0}
        from osir.extraction import record_to_payload
        row.update(record_to_payload(make_record()))
        records_path = write_jsonl(tmp_path / "r.jsonl", [row])
        result = runner.invoke(main, [
            "aggregate", "--records", str(records_path),
            "--corpus", str(corpus_path), "--out", str(tmp_path / "ind"),
        ])
        assert result.exit_code != 0
        assert "'R9'" in result.output and "unknown article" in result.output


class TestRun:
    def test_full_pipeline(self, runner, bundle, tmp_path):
        out_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]),
            "--gold", str(bundle["gold"]),
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--out", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        assert "6 stages" in result.output
        assert (out_dir / "manifest.json").exists()

    def test_config_file_drives_run(self, runner, bundle, tmp_path):
        config_path = tmp_path / "osir.json"
        config_path.write_text(json.dumps({
            "backend_mode": "replay",
            "fixture_path": str(bundle["fixture"]),
            "group_by": "region",
        }))
        out_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]),
            "--out", str(out_dir), "--config", str(config_path),
        ])
        assert result.exit_code == 0, result.output
        with (out_dir / "indicators.csv").open() as fh:
            groups = [row["group"] for row in csv.DictReader(fh)]
        assert "Total" in groups and len(groups) > 1

    def test_bad_config_value_fails_before_any_stage(self, runner, bundle,
                                                     tmp_path):
        config_path = tmp_path / "osir.json"
        config_path.write_text(json.dumps({
            "fixture_path": str(bundle["fixture"]), "group_by": "country"}))
        out_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]),
            "--out", str(out_dir), "--config", str(config_path),
        ])
        assert result.exit_code != 0
        assert "group_by must be one of" in result.output
        assert not (out_dir / "completions.jsonl").exists()

    def test_bad_env_value_fails_when_no_sample_parses(self, runner, bundle,
                                                       tmp_path):
        # No stage reads embellishment_mode when nothing parses.
        fixture = write_jsonl(tmp_path / "prose.jsonl", [
            {"article_id": f"art-{i:03d}", "sample_index": s,
             "text": "no payload"} for i in range(4) for s in range(3)])
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]),
            "--gold", str(bundle["gold"]), "--backend", "replay",
            "--fixture", str(fixture), "--out", str(tmp_path / "run"),
        ], env={"OSIR_EMBELLISHMENT_MODE": "binry"})
        assert result.exit_code != 0
        assert "embellishment_mode must be one of" in result.output


def build_unparseable_bundle(directory, seed, n_articles=120, samples=3):
    """A replay bundle where 60% of the samples are unparseable: 12 in 120
    articles have no parseable sample (unresolved verdicts), 72 have one
    and 36 have two. Parseable samples vote on the booleans at random."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    unparseable = [3] * 12 + [2] * 72 + [1] * 36
    rng.shuffle(unparseable)
    corpus, gold, fixture = [], [], []
    for i, bad in enumerate(unparseable[:n_articles]):
        aid = f"syn-{seed}-{i:03d}"
        accession, doi = f"PRJ{rng.randrange(10**6):06d}", f"10.1/x.{i}"
        body = (f"# Study {i}\n\nReads are under {accession}; tables at "
                f"{doi}. Earlier work by Author{i} et al. was reused.")
        corpus.append(corpus_row(make_article(
            aid, body, discipline=rng.choice(["Health Sciences",
                                              "Life Sciences"]),
            region=rng.choice(["Europe", "Asia"]))))
        record = make_record(
            new_data_generated=rng.random() < 0.5,
            reuse_data=rng.random() < 0.5,
            new_data_accessions=(accession,), new_data_dois=(doi,),
            reuse_data_citations=(f"Author{i} et al.",),
            new_data_description=rng.choice([None, "new reads"]))
        gold.append(gold_row(GoldAnnotation(aid, record)))
        bad_indices = set(rng.sample(range(samples), bad))
        for s in range(samples):
            if s in bad_indices:
                text = rng.choice([
                    f"No payload for study {i}.",
                    '{"new_data_generated": "yes", "reuse_data": false}',
                    '```json\n{"new_data_generated": true,\n```'])
            else:
                voted = replace(record,
                                new_data_generated=rng.random() < 0.5,
                                reuse_data=rng.random() < 0.5)
                text = completion_text(voted, fenced=rng.random() < 0.5)
            fixture.append({"article_id": aid, "sample_index": s,
                            "text": text})
    return {"corpus": write_jsonl(directory / "corpus.jsonl", corpus),
            "gold": write_jsonl(directory / "gold.jsonl", gold),
            "fixture": write_jsonl(directory / "fixture.jsonl", fixture)}


class TestStageChain:
    """extract --records -> score -> aggregate writes the same bytes as run."""

    CHAIN_FILES = ("completions.jsonl", "records.jsonl", "rewards.jsonl",
                   "indicators.csv", "summary.json")

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_chain_equals_run(self, runner, tmp_path, seed):
        if seed is None:
            paths = build_replay_bundle(tmp_path / "in", n_articles=4)
        else:
            paths = build_unparseable_bundle(tmp_path / "in", seed)
        corpus, gold = str(paths["corpus"]), str(paths["gold"])
        replay = ["--backend", "replay", "--fixture", str(paths["fixture"])]
        ran, chain = tmp_path / "run", tmp_path / "chain"
        chain.mkdir()
        for args in (
            ["run", "--corpus", corpus, "--gold", gold, *replay,
             "--out", str(ran)],
            ["extract", "--corpus", corpus, *replay,
             "--out", str(chain / "completions.jsonl"),
             "--records", str(chain / "records.jsonl")],
            ["score", "--corpus", corpus, "--gold", gold,
             "--completions", str(chain / "completions.jsonl"),
             "--out", str(chain / "rewards.jsonl")],
            ["aggregate", "--corpus", corpus,
             "--records", str(chain / "records.jsonl"), "--out", str(chain)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in self.CHAIN_FILES:
            assert (chain / name).read_bytes() == (ran / name).read_bytes(), \
                name
        if seed is not None:
            verdicts = [json.loads(line) for line in
                        (ran / "verdicts.jsonl").read_text().splitlines()]
            assert sum(v["unresolved"] for v in verdicts) == 12
