"""End-to-end pipeline orchestration and manifest reproducibility."""

import ast
import hashlib
import importlib
import json
import random
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from click.testing import CliRunner

import osir.pipeline
from osir.backend import RetryableError
from osir.cli import main
from osir.config import PipelineConfig, load_config
from osir.corpus import (
    PREAMBLE_TOKENS,
    PROMPT_TEMPLATE_VERSION,
    build_prompt,
    load_corpus,
)
from osir.extraction import GoldAnnotation, RawCompletion, parse_extraction
from osir.jsonl import DIGEST_CHUNK
from osir.pipeline import (
    PipelineError,
    config_digest,
    file_digest,
    run_pipeline,
)

from conftest import (
    build_replay_bundle,
    completion_row,
    corpus_row,
    gold_row,
    make_article,
    make_completion,
    make_record,
    write_jsonl,
)


def parse_callers() -> set[tuple[str, str]]:
    """(module, innermost enclosing function or "<module>") of every
    reference to parse_extraction in src/osir, outside its definition and
    the imports."""
    src = Path(__file__).resolve().parent.parent / "src" / "osir"
    found = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if getattr(node, "id", getattr(node, "attr", None)) == \
                "parse_extraction":
            found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem,
              "<module>")
    return found


def test_one_parse_implementation():
    """parse_stage is the one parse of a run, of osir score and of osir
    eval; total_reward parses the single completion it is given. No other
    code in src/osir calls parse_extraction."""
    assert parse_callers() == {("pipeline", "parse_stage"),
                               ("scoring", "total_reward")}


class CountingBackend:
    """Records the peak number of concurrent complete() calls and the threads
    that made them; the first attempt of each article in *fail_first* raises
    RetryableError."""

    def __init__(self, delay=0.01, fail_first=()):
        self.lock = threading.Lock()
        self.delay = delay
        self.fail_first = set(fail_first)
        self.active = 0
        self.peak = 0
        self.threads = set()

    def complete(self, prompt, n):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.threads.add(threading.get_ident())
        time.sleep(self.delay)
        with self.lock:
            self.active -= 1
            if prompt.article_id in self.fail_first:
                self.fail_first.remove(prompt.article_id)
                raise RetryableError("HTTP 503")
        return [RawCompletion(prompt.article_id, i, "no payload")
                for i in range(n)]


def replay_config(fixture_path, **kw):
    return load_config(env={}, fixture_path=str(fixture_path),
                       backend_mode="replay", **kw)


class TestRunPipeline:
    @pytest.mark.parametrize("where", ["out_dir", "its parent"])
    def test_out_dir_under_a_file_raises_pipeline_error(self, tmp_path,
                                                        monkeypatch, where):
        paths = build_replay_bundle(tmp_path, n_articles=2)
        backend = CountingBackend(delay=0)
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "out_dir" else blocker / "out"
        with pytest.raises(PipelineError, match="stage 'ingest'") as info:
            run_pipeline(paths["corpus"], out, replay_config(paths["fixture"]))
        assert info.value.stage == "ingest"
        assert backend.threads == set()

    def test_gold_gap_fails_in_ingest_before_any_request(self, tmp_path,
                                                         monkeypatch):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        rows = paths["gold"].read_text().splitlines(keepends=True)
        paths["gold"].write_text(rows[0])  # art-001 and art-002 lack gold
        backend = CountingBackend(delay=0)
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match="no gold annotation") as info:
            run_pipeline(paths["corpus"], out, replay_config(paths["fixture"]),
                         gold_path=paths["gold"])
        assert (info.value.stage, info.value.article_id) == \
            ("ingest", "art-001")
        assert backend.threads == set()
        assert not (out / "prompts.jsonl").exists()

    def test_all_stages_with_gold(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        out = tmp_path / "out"
        manifest = run_pipeline(paths["corpus"], out,
                                replay_config(paths["fixture"]),
                                gold_path=paths["gold"])
        assert [s["name"] for s in manifest["stages"]] == \
            ["prompt", "complete", "parse", "score", "verdicts", "aggregate"]
        for stage in manifest["stages"]:
            for output in stage["outputs"]:
                assert (out / output["path"]).exists()
        assert (out / "manifest.json").exists()

    def test_no_gold_skips_score(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        manifest = run_pipeline(paths["corpus"], tmp_path / "out",
                                replay_config(paths["fixture"]))
        assert [s["name"] for s in manifest["stages"]] == \
            ["prompt", "complete", "parse", "verdicts", "aggregate"]

    def test_digests_stable_across_reruns(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        config = replay_config(paths["fixture"])
        digests = []
        for run_dir in ("run1", "run2"):
            manifest = run_pipeline(paths["corpus"], tmp_path / run_dir, config,
                                    gold_path=paths["gold"])
            digests.append([s["outputs"] for s in manifest["stages"]])
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

    @pytest.mark.parametrize("with_gold", [True, False])
    def test_returns_the_manifest_it_writes(self, tmp_path, with_gold):
        paths = build_replay_bundle(tmp_path, n_articles=2)
        out = tmp_path / "out"
        manifest = run_pipeline(paths["corpus"], out,
                                replay_config(paths["fixture"]),
                                gold_path=paths["gold"] if with_gold else None)
        assert manifest == json.loads(
            (out / "manifest.json").read_text("utf-8"))

    @pytest.mark.parametrize("budget", [None, PREAMBLE_TOKENS + 10])
    def test_prompt_rows_rebuild_from_the_corpus(self, tmp_path, budget):
        # budget None keeps every body whole; the other cuts every body
        paths = build_replay_bundle(tmp_path, n_articles=4)
        overrides = {} if budget is None else {"token_budget": budget}
        config = replay_config(paths["fixture"], **overrides)
        out = tmp_path / "out"
        run_pipeline(paths["corpus"], out, config)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["prompt_template_version"] == PROMPT_TEMPLATE_VERSION
        rows = [json.loads(line) for line in
                (out / "prompts.jsonl").read_text("utf-8").splitlines()]
        articles = load_corpus(paths["corpus"])
        assert [row["article_id"] for row in rows] == \
            [article.id for article in articles]
        for row, article in zip(rows, articles):
            assert set(row) == {"article_id", "prompt_sha256", "token_count",
                                "truncated"}
            prompt = build_prompt(article, config.token_budget)
            assert row["prompt_sha256"] == \
                hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
            assert row["token_count"] == prompt.token_count
            assert row["truncated"] is prompt.truncated is (budget is not None)

    def test_prompt_rows_survive_an_aborted_complete(self, tmp_path):
        paths = build_replay_bundle(tmp_path, n_articles=2, samples=2)
        config = replay_config(paths["fixture"], samples_per_article=3)
        with pytest.raises(PipelineError):
            run_pipeline(paths["corpus"], tmp_path / "out", config)
        rows = (tmp_path / "out" / "prompts.jsonl").read_text().splitlines()
        assert len(rows) == 2
        assert not (tmp_path / "out" / "completions.jsonl").exists()

    def test_max_in_flight_bounds_concurrency(self, tmp_path, monkeypatch):
        paths = build_replay_bundle(tmp_path, n_articles=12)
        limit = 2
        backend = CountingBackend()
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        config = replay_config(paths["fixture"], max_in_flight=limit)
        run_pipeline(paths["corpus"], tmp_path / "out", config)
        assert 1 <= backend.peak <= limit

    def test_retries_keep_concurrency_bound(self, tmp_path, monkeypatch):
        paths = build_replay_bundle(tmp_path, n_articles=12)
        limit = 2
        backend = CountingBackend(
            fail_first=[f"art-{i:03d}" for i in range(0, 12, 3)])
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: backend)
        config = replay_config(paths["fixture"], max_in_flight=limit,
                               backoff_base=0.01)
        run_pipeline(paths["corpus"], tmp_path / "out", config)
        assert not backend.fail_first  # every planned failure happened
        assert 1 <= backend.peak <= limit
        assert len(backend.threads) <= limit
        completions = (tmp_path / "out" / "completions.jsonl").read_text()
        assert len(completions.splitlines()) == 12 * 3

    def test_unwaitable_retry_fails_the_complete_stage(self, tmp_path,
                                                       monkeypatch):
        # a Retry-After beyond threading.TIMEOUT_MAX cannot be waited, so the
        # run fails rather than writing art-001 an unresolved verdict
        class Backend:
            def complete(self, prompt, n):
                if prompt.article_id == "art-001":
                    raise RetryableError("HTTP 429", retry_after=1e12)
                return [RawCompletion(prompt.article_id, i, "no payload")
                        for i in range(n)]

        paths = build_replay_bundle(tmp_path, n_articles=4)
        monkeypatch.setattr(osir.pipeline, "make_backend",
                            lambda config: Backend())
        config = replay_config(paths["fixture"], max_in_flight=2)
        with pytest.raises(PipelineError, match="retry 'art-001'") as err:
            run_pipeline(paths["corpus"], tmp_path / "out", config)
        assert err.value.stage == "complete"
        assert not (tmp_path / "out" / "verdicts.jsonl").exists()

    def test_blank_evidence_string_is_ungrounded(self, tmp_path):
        record = make_record(new_data_dois=("10.5/abc", " "))
        corpus = write_jsonl(tmp_path / "corpus.jsonl", [
            corpus_row(make_article("a0", "cites 10.5/abc here"))])
        fixture = write_jsonl(tmp_path / "fixture.jsonl", [
            completion_row(make_completion("a0", 0, record))])
        gold = write_jsonl(tmp_path / "gold.jsonl", [
            gold_row(GoldAnnotation("a0", record))])
        run_pipeline(corpus, tmp_path / "out",
                     replay_config(fixture, samples_per_article=1), gold)
        (row,) = [json.loads(line) for line in
                  (tmp_path / "out" / "rewards.jsonl").read_text().splitlines()]
        assert (row["e"], row["v"], row["r"]) == (0.5, 1.0, 0.5)

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
            assert [s["name"] for s in manifest["stages"]] == \
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

        for module in {module for module, _ in parse_callers()}:
            monkeypatch.setattr(importlib.import_module(f"osir.{module}"),
                                "parse_extraction", counting_parse)
        run_pipeline(paths["corpus"], tmp_path / "out",
                     replay_config(paths["fixture"]),
                     gold_path=paths["gold"] if with_gold else None)
        assert len(calls) == 15
        assert len(set(calls)) == 15

    def test_config_digest_is_pinned(self):
        # The digest in manifest.json; it must not move when the payload
        # derivation changes.
        assert config_digest(PipelineConfig()) == \
            "de133892c7ac89e5746e17fd4c1f5ed487584d753acbff1cc387b4475d1a97c6"


def rewrite_texts(fixture, text):
    """Replace every completion text of *fixture* with text(old text)."""
    rows = [json.loads(line)
            for line in fixture.read_text(encoding="utf-8").splitlines()]
    write_jsonl(fixture, [{**row, "text": text(row["text"])} for row in rows])


class TestHashAsWritten:
    """The manifest's output digests are those the writers return, so
    run_pipeline reads back no output, and they are the sha256 of the bytes
    on disk."""

    @pytest.mark.parametrize("with_gold, reads", [(True, 2), (False, 1)])
    def test_only_inputs_are_read_to_be_hashed(self, tmp_path, monkeypatch,
                                               with_gold, reads):
        paths = build_replay_bundle(tmp_path, n_articles=3)
        hashed = []

        def counting_digest(path):
            hashed.append(path)
            return file_digest(path)

        monkeypatch.setattr(osir.pipeline, "file_digest", counting_digest)
        run_pipeline(paths["corpus"], tmp_path / "out",
                     replay_config(paths["fixture"]),
                     gold_path=paths["gold"] if with_gold else None)
        assert hashed == [paths["corpus"], paths["gold"]][:reads]

    @pytest.mark.parametrize("text, parses", [
        (lambda old: f"Résumé, 中文 notes:\n{old}", True),
        (lambda old: "No payload: é 中", False),
    ], ids=["non-ascii", "all-unparseable"])
    def test_output_digests_are_the_bytes_on_disk(self, tmp_path, text,
                                                  parses):
        paths = build_replay_bundle(tmp_path, n_articles=4)
        rewrite_texts(paths["fixture"], text)
        out = tmp_path / "out"
        run_pipeline(paths["corpus"], out, replay_config(paths["fixture"]),
                     gold_path=paths["gold"])
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        digests = {o["path"]: o["sha256"]
                   for stage in manifest["stages"] for o in stage["outputs"]}
        assert set(digests) == {p.name for p in out.iterdir()} - \
            {"manifest.json"}
        for name, digest in digests.items():
            assert digest == hashlib.sha256(
                (out / name).read_bytes()).hexdigest(), name
        assert "中".encode() in (out / "completions.jsonl").read_bytes()
        assert bool((out / "records.jsonl").read_bytes()) is parses


class TestMemory:
    @pytest.mark.parametrize("size", [0, 1, DIGEST_CHUNK - 1, DIGEST_CHUNK,
                                      DIGEST_CHUNK + 1])
    def test_file_digest_reads_in_chunks(self, tmp_path, size):
        path = tmp_path / "data.bin"
        path.write_bytes(random.Random(size).randbytes(size))
        assert file_digest(path) == \
            hashlib.sha256(path.read_bytes()).hexdigest()

    def test_run_holds_each_body_once(self, tmp_path):
        # Four 1 MB bodies of 20,000 tokens each, under the default budget,
        # so that a stored prompt text would copy each body whole. The bodies
        # are the only large thing the run must hold; a second copy of them
        # (prompt texts kept for the run, or the corpus file read whole for
        # its digest) reaches twice the corpus file's size.
        rng = random.Random(5)
        articles = [
            make_article(f"big-{i}", " ".join(
                "".join(rng.choices("abcdefghij", k=49))
                for _ in range(20_000)))
            for i in range(4)]
        corpus = write_jsonl(tmp_path / "corpus.jsonl",
                             [corpus_row(a) for a in articles])
        fixture = write_jsonl(tmp_path / "fixture.jsonl", [
            completion_row(make_completion(a.id, 0, make_record()))
            for a in articles])
        config = replay_config(fixture, samples_per_article=1)
        tracemalloc.start()
        try:
            run_pipeline(corpus, tmp_path / "out", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "prompts.jsonl").read_text().splitlines()]
        assert [row["truncated"] for row in rows] == [False] * 4
        assert peak < 2 * corpus.stat().st_size
