"""End-to-end pipeline orchestration and manifest reproducibility."""

import json
import threading
import time

import pytest

from click.testing import CliRunner

import osir.evaluation
import osir.pipeline
import osir.scoring
from osir.cli import main
from osir.config import PipelineConfig, load_config
from osir.extraction import RawCompletion, parse_extraction
from osir.pipeline import PipelineError, config_digest, file_digest, run_pipeline

from conftest import build_replay_bundle


class CountingBackend:
    """Records the peak number of concurrent complete() calls."""

    def __init__(self, delay=0.01):
        self.lock = threading.Lock()
        self.delay = delay
        self.active = 0
        self.peak = 0

    def complete(self, prompt, n):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(self.delay)
        with self.lock:
            self.active -= 1
        return [RawCompletion(prompt.article_id, i, "no payload")
                for i in range(n)]


def replay_config(fixture_path, **kw):
    return load_config(env={}, fixture_path=str(fixture_path),
                       backend_mode="replay", **kw)


class TestRunPipeline:
    def test_all_stages_with_gold(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        out = tmp_path / "out"
        manifest = run_pipeline(paths["corpus"], out,
                                replay_config(paths["fixture"]),
                                gold_path=paths["gold"])
        assert [s.name for s in manifest.stages] == \
            ["prompt", "complete", "parse", "score", "verdicts", "aggregate"]
        for stage in manifest.stages:
            for rel in stage.paths:
                assert (out / rel).exists()
        assert (out / "manifest.json").exists()

    def test_no_gold_skips_score(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        manifest = run_pipeline(paths["corpus"], tmp_path / "out",
                                replay_config(paths["fixture"]))
        assert [s.name for s in manifest.stages] == \
            ["prompt", "complete", "parse", "verdicts", "aggregate"]

    def test_digests_stable_across_reruns(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        config = replay_config(paths["fixture"])
        digests = []
        for run_dir in ("run1", "run2"):
            manifest = run_pipeline(paths["corpus"], tmp_path / run_dir, config,
                                    gold_path=paths["gold"])
            digests.append([s.digests for s in manifest.stages])
        assert digests[0] == digests[1]

    def test_deleting_intermediates_regenerates_identically(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        config = replay_config(paths["fixture"])
        out = tmp_path / "out"
        run_pipeline(paths["corpus"], out, config, gold_path=paths["gold"])
        before = {p.name: file_digest(p) for p in out.iterdir()}
        (out / "records.jsonl").unlink()
        (out / "verdicts.jsonl").unlink()
        run_pipeline(paths["corpus"], out, config, gold_path=paths["gold"])
        after = {p.name: file_digest(p) for p in out.iterdir()}
        assert before == after

    def test_malformed_corpus_aborts_in_ingest(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "A1", "body_markdown": "ok"}\nbroken\n')
        fixture = build_replay_bundle(tmp_path / "b", 1)["fixture"]
        with pytest.raises(PipelineError) as err:
            run_pipeline(bad, tmp_path / "out", replay_config(fixture))
        assert err.value.stage == "ingest"
        assert "line 2" in str(err.value)

    def test_missing_fixture_key_aborts_in_complete(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=2, samples=2)
        config = replay_config(paths["fixture"], samples_per_article=3)
        with pytest.raises(PipelineError) as err:
            run_pipeline(paths["corpus"], tmp_path / "out", config)
        assert err.value.stage == "complete"

    def test_manifest_payload_shape(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=2)
        out = tmp_path / "out"
        run_pipeline(paths["corpus"], out, replay_config(paths["fixture"]),
                     gold_path=paths["gold"])
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["corpus"]["sha256"] == file_digest(paths["corpus"])
        assert payload["gold"]["sha256"] == file_digest(paths["gold"])
        assert payload["prompt_template_version"]
        assert all(o["sha256"] for s in payload["stages"]
                   for o in s["outputs"])

    def test_max_in_flight_bounds_concurrency(self, tmp_path, monkeypatch):
        paths = build_replay_bundle(tmp_path, n_articles=12)
        limit = 2
        backend = CountingBackend()
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        config = replay_config(paths["fixture"], max_in_flight=limit)
        run_pipeline(paths["corpus"], tmp_path / "out", config)
        assert 1 <= backend.peak <= limit

    def test_verdicts_reflect_majority(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=4)
        out = tmp_path / "out"
        run_pipeline(paths["corpus"], out, replay_config(paths["fixture"]))
        verdicts = [json.loads(line) for line in
                    (out / "verdicts.jsonl").read_text().splitlines()]
        by_id = {v["article_id"]: v for v in verdicts}
        # article 1: generated (1 % 3 != 0), not reused (1 % 2 != 0)
        assert by_id["art-001"]["new_data_generated"] is True
        assert by_id["art-001"]["data_reused"] is False
        # article 0 has one unparseable sample but two parsed ones agree
        assert by_id["art-000"]["data_reused"] is True

    def test_http_backend_end_to_end(self, tmp_path):
        # a live (stub) completion service drives the same pipeline
        from test_backend import _FlakyHandler
        from http.server import HTTPServer

        server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _FlakyHandler.failures_left = 1  # first request retried once
            paths = build_replay_bundle(tmp_path, n_articles=2)
            config = load_config(
                env={}, backend_mode="http",
                endpoint=f"http://127.0.0.1:{server.server_port}/complete",
                max_in_flight=1, backoff_base=0.01)
            manifest = run_pipeline(paths["corpus"], tmp_path / "out", config)
            assert [s.name for s in manifest.stages] == \
                ["prompt", "complete", "parse", "verdicts", "aggregate"]
            # stub completions carry no payload, so every verdict is unresolved
            verdicts = [json.loads(line) for line in
                        (tmp_path / "out" / "verdicts.jsonl")
                        .read_text().splitlines()]
            assert all(v["unresolved"] for v in verdicts)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestSharedStages:
    def test_extract_honours_max_in_flight(self, tmp_path, monkeypatch):
        paths = build_replay_bundle(tmp_path, n_articles=12)
        backend = CountingBackend(delay=0.02)
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        config_path = tmp_path / "osir.json"
        config_path.write_text(json.dumps({"max_in_flight": 2}))
        result = CliRunner().invoke(main, [
            "extract", "--corpus", str(paths["corpus"]),
            "--fixture", str(paths["fixture"]), "--config", str(config_path),
            "--out", str(tmp_path / "completions.jsonl")])
        assert result.exit_code == 0, result.output
        assert backend.peak == 2

    @pytest.mark.parametrize("with_gold", [True, False])
    def test_each_completion_parsed_once(self, tmp_path, monkeypatch,
                                         with_gold):
        paths = build_replay_bundle(tmp_path, n_articles=5)
        calls = []

        def counting_parse(raw):
            calls.append((raw.article_id, raw.sample_index))
            return parse_extraction(raw)

        for module in (osir.pipeline, osir.scoring, osir.evaluation):
            monkeypatch.setattr(module, "parse_extraction", counting_parse)
        run_pipeline(paths["corpus"], tmp_path / "out",
                     replay_config(paths["fixture"]),
                     gold_path=paths["gold"] if with_gold else None)
        assert len(calls) == 15
        assert len(set(calls)) == 15

    def test_config_digest_is_pinned(self):
        # The digest in manifest.json; it must not move when the payload
        # derivation changes.
        assert config_digest(PipelineConfig()) == \
            "227de776d4e2788a50aaed32af628fbc4eb611c973e0300d1f14f46be0dce470"
