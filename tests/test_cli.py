"""CLI subcommands exercised through click's test runner."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from osir.backend import ReplayBackend
from osir.cli import main
from osir.config import PipelineConfig
from osir.jsonl import field_dict

from conftest import (
    build_replay_bundle,
    build_unparseable_bundle,
    corpus_row,
    gold_row,
    make_article,
    make_record,
    perturb_lists,
    write_jsonl,
)
from osir.extraction import GoldAnnotation, SCORED_FIELDS


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bundle(tmp_path):
    return build_replay_bundle(tmp_path, n_articles=4)


class TestIngest:
    def test_reports_composition(self, runner, bundle):
        result = runner.invoke(main, ["ingest", "--corpus",
                                      str(bundle["corpus"])])
        assert result.exit_code == 0, result.output
        assert "4 articles" in result.output
        assert "corpus OK" in result.output

    def test_malformed_corpus_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        result = runner.invoke(main, ["ingest", "--corpus", str(bad)])
        assert result.exit_code != 0
        assert "line 1" in result.output


class TestImports:
    def test_numpy_not_imported(self):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, osir, osir.cli; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


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
        outputs = {}
        for name, extra in (("all", []),
                            ("selected", ["--min-reward", "0.9"])):
            outputs[name] = tmp_path / f"{name}.jsonl"
            result = runner.invoke(main, [
                "score", "--corpus", str(bundle["corpus"]),
                "--completions", str(completions),
                "--gold", str(bundle["gold"]), "--out", str(outputs[name]),
                *extra,
            ])
            assert result.exit_code == 0, result.output
        rows = {name: [json.loads(line)
                       for line in path.read_text().splitlines()]
                for name, path in outputs.items()}
        assert rows["selected"], "replayed gold completions should clear 0.9"
        assert rows["selected"] == [row for row in rows["all"]
                                    if row["r"] >= 0.9]
        assert len(rows["selected"]) < len(rows["all"])

    def test_nan_min_reward_is_a_usage_error(self, runner, bundle, tmp_path):
        completions = self.extract_first(runner, bundle, tmp_path)
        out = tmp_path / "rewards.jsonl"
        result = runner.invoke(main, [
            "score", "--corpus", str(bundle["corpus"]),
            "--completions", str(completions),
            "--gold", str(bundle["gold"]), "--out", str(out),
            "--min-reward", "nan",
        ])
        assert result.exit_code == 2, result.output
        assert "--min-reward" in result.output
        assert not out.exists()


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

    def test_config_file_sets_thresholds(self, runner, tmp_path):
        paths = build_unparseable_bundle(tmp_path / "in", seed=3)
        perturb_lists(paths["fixture"], seed=3)
        completions = tmp_path / "completions.jsonl"
        result = runner.invoke(main, [
            "extract", "--corpus", str(paths["corpus"]),
            "--backend", "replay", "--fixture", str(paths["fixture"]),
            "--out", str(completions)])
        assert result.exit_code == 0, result.output
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold_citation": 0.5}))
        reports = {}
        for name, extra in (("default", []), ("config", ["--config",
                                                         str(config)])):
            reports[name] = tmp_path / f"{name}.json"
            result = runner.invoke(main, [
                "eval", "--completions", str(completions),
                "--gold", str(paths["gold"]), "--out", str(reports[name]),
                *extra])
            assert result.exit_code == 0, result.output
        default, configured = (json.loads(reports[name].read_text())
                               for name in ("default", "config"))
        assert default["config"]["threshold_citation"] != 0.5
        assert configured["config"]["threshold_citation"] == 0.5
        citations = ("list_fields", "reuse_data_citations", "pass_at_1")
        assert (configured[citations[0]][citations[1]][citations[2]]
                > default[citations[0]][citations[1]][citations[2]])

    def test_samples_pins_only_the_count_checked(self, runner, bundle,
                                                 tmp_path, monkeypatch):
        # samples_per_article from a file or the environment does not
        # reach eval; --samples alone pins the count it checks.
        args = ["eval", "--completions", str(bundle["fixture"]),
                "--gold", str(bundle["gold"]),
                "--out", str(tmp_path / "report.json")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples_per_article": 5}))
        result = runner.invoke(main, args + ["--config", str(config)])
        assert result.exit_code == 0, result.output
        monkeypatch.setenv("OSIR_SAMPLES_PER_ARTICLE", "5")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, args + ["--samples", "5"])
        assert result.exit_code == 1
        assert "expected 5 samples per article, found 3" in result.output
        result = runner.invoke(main, args + ["--samples", "0"])
        assert result.exit_code == 2
        assert "'--samples'" in result.output


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
        from osir.jsonl import field_dict
        row.update(field_dict(record))
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
        from osir.jsonl import field_dict
        row.update(field_dict(make_record()))
        records_path = write_jsonl(tmp_path / "r.jsonl", [row])
        result = runner.invoke(main, [
            "aggregate", "--records", str(records_path),
            "--corpus", str(corpus_path), "--out", str(tmp_path / "ind"),
        ])
        assert result.exit_code != 0
        assert "'R9'" in result.output and "unknown article" in result.output

    def test_duplicate_sample_exits_1_naming_both_lines(self, runner,
                                                         tmp_path):
        corpus_path = write_jsonl(tmp_path / "c.jsonl",
                                  [corpus_row(make_article("a", "text"))])
        rows = [{"article_id": "a", "sample_index": 0,
                 **field_dict(make_record(new_data_generated=generated))}
                for generated in (True, False)]
        records_path = write_jsonl(tmp_path / "r.jsonl", rows)
        result = runner.invoke(main, [
            "aggregate", "--records", str(records_path),
            "--corpus", str(corpus_path), "--out", str(tmp_path / "ind"),
        ])
        assert result.exit_code == 1
        assert "duplicate key ('a', 0) on lines 1 and 2 of the records file" \
            in result.output
        assert not (tmp_path / "ind").exists()


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

    @pytest.mark.parametrize("with_gold", [True, False])
    def test_stdout_lists_every_output_in_manifest_order(self, runner, bundle,
                                                         tmp_path, with_gold):
        out_dir = tmp_path / "run"
        gold = ["--gold", str(bundle["gold"])] if with_gold else []
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]), *gold,
            "--backend", "replay", "--fixture", str(bundle["fixture"]),
            "--out", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        outputs = [("prompt", "prompts.jsonl"),
                   ("complete", "completions.jsonl"),
                   ("parse", "records.jsonl"),
                   *([("score", "rewards.jsonl")] if with_gold else []),
                   ("verdicts", "verdicts.jsonl"),
                   ("aggregate", "indicators.csv"),
                   ("aggregate", "summary.json")]
        stages = len({stage for stage, _ in outputs})
        assert result.output == f"{stages} stages -> {out_dir}\n" + "".join(
            f"  {stage}: {name} sha256:"
            f"{hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:12]}\n"
            for stage, name in outputs)

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

    # The HTTP cases name a local endpoint that no request may reach.
    @pytest.mark.parametrize("setting, message", [
        pytest.param({"group_by": "country"}, "group_by must be one of",
                     id="group_by"),
        pytest.param({"backend_mode": "http", "endpoint": "http://127.0.0.1:9/",
                      "auth_token_env": None},
                     "bad value for auth_token_env", id="auth_token_env"),
        pytest.param({"backend_mode": "http", "endpoint": "http://127.0.0.1:9/",
                      "decode_params": {"temperature": float("nan")}},
                     "bad value for decode_params", id="decode_params"),
    ])
    def test_bad_config_value_fails_before_any_stage(self, runner, bundle,
                                                     tmp_path, setting,
                                                     message):
        config_path = tmp_path / "osir.json"
        config_path.write_text(json.dumps({
            "fixture_path": str(bundle["fixture"]), **setting}))
        out_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "run", "--corpus", str(bundle["corpus"]),
            "--out", str(out_dir), "--config", str(config_path),
        ])
        assert result.exit_code != 0
        assert message in result.output
        assert not (out_dir / "completions.jsonl").exists()
        assert not (out_dir / "prompts.jsonl").exists()

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


class TestScoreAndEvalAgree:
    """osir eval's pass@1 and pass@k are means of the reward's sub-scores."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pass_metrics_are_means_of_sub_scores(self, runner, tmp_path,
                                                  seed):
        paths = build_unparseable_bundle(tmp_path / "in", seed)
        perturb_lists(paths["fixture"], seed)
        ran, report_path = tmp_path / "run", tmp_path / "report.json"
        for args in (
            ["run", "--corpus", str(paths["corpus"]),
             "--gold", str(paths["gold"]), "--backend", "replay",
             "--fixture", str(paths["fixture"]), "--out", str(ran)],
            ["eval", "--completions", str(ran / "completions.jsonl"),
             "--gold", str(paths["gold"]), "--out", str(report_path)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in
                (ran / "rewards.jsonl").read_text().splitlines()]
        report = json.loads(report_path.read_text())
        assert report["pass1_mode"] == "mean"
        metrics = {**report["boolean_fields"], **report["list_fields"]}
        assert sorted(metrics) == sorted(SCORED_FIELDS)
        assert any(not row["sub_scores"] for row in rows)
        assert any(0 < row["sub_scores"].get("new_data_accessions", 0) < 1
                   for row in rows)
        for field in SCORED_FIELDS:
            scores = [row["sub_scores"].get(field, 0.0) for row in rows]
            best: dict[str, float] = {}
            for row, score in zip(rows, scores):
                best[row["article_id"]] = max(
                    best.get(row["article_id"], 0.0), score)
            assert metrics[field]["pass_at_1"] == sum(scores) / len(scores)
            assert metrics[field]["pass_at_k"] == \
                sum(best.values()) / len(best)


class TestErrorBoundary:
    """The main group reports any command's failure as a one-line error."""

    # Every input path of a command names the same missing file.
    INPUTS = {
        "ingest": ["--corpus"],
        "extract": ["--corpus", "--fixture"],
        "score": ["--corpus", "--completions", "--gold"],
        "eval": ["--completions", "--gold"],
        "filter-gold": ["--corpus", "--gold"],
        "aggregate": ["--records", "--corpus"],
        "run": ["--corpus", "--fixture"],
    }
    OUTPUTS = {"ingest": [], "filter-gold": ["--out-kept", "--out-removed"]}

    def test_every_command_is_covered(self):
        assert sorted(self.INPUTS) == sorted(main.commands)

    @pytest.mark.parametrize("command", sorted(INPUTS))
    def test_missing_input_file(self, runner, tmp_path, command):
        missing = tmp_path / "missing.jsonl"
        args = [command]
        for flag in self.INPUTS[command]:
            args += [flag, str(missing)]
        for flag in self.OUTPUTS.get(command, ["--out"]):
            args += [flag, str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert result.output.rstrip().endswith(str(missing))
        assert "Traceback" not in result.output

    def test_key_error_prints_its_message(self, runner, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl",
                             [corpus_row(make_article("K1", "body"))])
        gold = write_jsonl(tmp_path / "g.jsonl",
                           [gold_row(GoldAnnotation("zz", make_record()))])
        result = runner.invoke(main, [
            "filter-gold", "--corpus", str(corpus), "--gold", str(gold),
            "--out-kept", str(tmp_path / "kept.jsonl"),
            "--out-removed", str(tmp_path / "removed.csv")])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: gold annotation references unknown article 'zz'"]

    @pytest.mark.parametrize("command", sorted(INPUTS))
    def test_help_exits_zero(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"Usage: main {command} ")


class TestOutputPaths:
    """An output path that cannot be written is a usage error, found while
    the options are parsed: before any input is read or request is sent."""

    # Each command's output options that name a file, and those that name a
    # directory.
    FILES = {"extract": ["--out", "--records"], "score": ["--out"],
             "eval": ["--out"], "filter-gold": ["--out-kept", "--out-removed"]}
    DIRECTORIES = {"aggregate": ["--out"], "run": ["--out"]}

    @pytest.fixture
    def calls(self, monkeypatch):
        """The article ids of every ReplayBackend.complete call."""
        calls = []
        complete = ReplayBackend.complete

        def counting(backend, prompt, n):
            calls.append(prompt.article_id)
            return complete(backend, prompt, n)

        monkeypatch.setattr(ReplayBackend, "complete", counting)
        return calls

    @staticmethod
    def bad_path(tmp_path, kind):
        if kind == "directory":
            return tmp_path
        if kind == "symlink into a missing directory":
            link = tmp_path / "link.jsonl"
            link.symlink_to(tmp_path / "missing" / "x.jsonl")
            return link
        if kind == "symlink loop":
            loop = tmp_path / "loop.jsonl"
            loop.symlink_to(loop)
            return loop
        return tmp_path / "missing" / "dir" / "x.jsonl"

    def extract(self, runner, bundle, tmp_path, **outputs):
        args = ["extract", "--corpus", str(bundle["corpus"]),
                "--backend", "replay", "--fixture", str(bundle["fixture"]),
                "--out", str(tmp_path / "c.jsonl")]
        for flag, path in outputs.items():
            args += [f"--{flag}", str(path)]
        return runner.invoke(main, args)

    def test_every_command_is_covered(self):
        assert sorted([*self.FILES, *self.DIRECTORIES, "ingest"]) == \
            sorted(main.commands)

    def test_good_paths_call_the_backend(self, runner, bundle, tmp_path,
                                         calls):
        result = self.extract(runner, bundle, tmp_path,
                              records=tmp_path / "r.jsonl")
        assert result.exit_code == 0, result.output
        assert len(calls) == 4

    @pytest.mark.parametrize("kind", ["directory", "missing parent",
                                      "symlink into a missing directory",
                                      "symlink loop"])
    @pytest.mark.parametrize("flag", ["out", "records"])
    def test_extract_makes_no_request(self, runner, bundle, tmp_path, calls,
                                      flag, kind):
        result = self.extract(runner, bundle, tmp_path,
                              **{flag: self.bad_path(tmp_path, kind)})
        assert result.exit_code == 2
        assert f"Invalid value for '--{flag}'" in result.output
        assert calls == []
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("kind, message", [
        ("directory", "is a directory"), ("missing parent", "no directory"),
        ("symlink into a missing directory", "no directory"),
        ("symlink loop", "Too many levels of symbolic links")])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FILES.items() for flag in flags])
    def test_file_output_rejected(self, runner, tmp_path, calls, command, flag,
                                  kind, message):
        args = [command]
        for input_flag in TestErrorBoundary.INPUTS[command]:
            args += [input_flag, str(tmp_path / "in.jsonl")]
        for out_flag in self.FILES[command]:
            path = (self.bad_path(tmp_path, kind) if out_flag == flag
                    else tmp_path / "out.jsonl")
            args += [out_flag, str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output
        assert message in result.output
        assert calls == []

    @pytest.mark.parametrize("command", sorted(DIRECTORIES))
    def test_directory_output_that_is_a_file_rejected(self, runner, tmp_path,
                                                      command):
        args = [command]
        for input_flag in TestErrorBoundary.INPUTS[command]:
            args += [input_flag, str(tmp_path / "in.jsonl")]
        (tmp_path / "out").write_text("")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "Invalid value for '--out'" in result.output
        assert "is a file" in result.output


class TestConfigTable:
    """README's configuration table matches PipelineConfig and the CLI."""

    def _table(self) -> list[list[str]]:
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        lines = readme.split("\n| Key | Flag |", 1)[1].split("\n\n", 1)[0]
        return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in lines.splitlines()[2:]]

    def test_keys_are_the_config_fields_in_order(self):
        assert [row[0] for row in self._table()] == \
            [f.name for f in fields(PipelineConfig)]

    def test_flags_are_the_ones_the_cli_declares(self):
        settings = {f.name for f in fields(PipelineConfig)}
        declared: dict[str, set[str]] = {}
        for command in main.commands.values():
            for param in command.params:
                if param.name in settings:
                    declared.setdefault(param.name, set()).update(param.opts)
        documented = {row[0]: {row[1]} - {""} for row in self._table()}
        assert {key: declared.get(key, set()) for key in documented} == \
            documented
