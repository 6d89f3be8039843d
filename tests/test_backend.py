"""Replay and HTTP completion backends."""

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from osir.backend import (
    BackendConfig,
    BackendError,
    HttpBackend,
    ReplayBackend,
    ReplayFixtureError,
    complete,
    make_backend,
)
from osir.corpus import PreparedPrompt

from conftest import write_jsonl


def prompt_for(article_id: str) -> PreparedPrompt:
    return PreparedPrompt(article_id=article_id, text=f"prompt for {article_id}",
                          token_count=3, truncated=False)


class TestBackendConfig:
    def test_replay_needs_fixture(self):
        with pytest.raises(ValueError, match="fixture"):
            BackendConfig(mode="replay", fixture_path=None)

    def test_http_needs_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            BackendConfig(mode="http", endpoint=None)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            BackendConfig(mode="grpc", fixture_path="x")

    def test_bounds(self):
        with pytest.raises(ValueError):
            BackendConfig(mode="replay", fixture_path="x", samples_per_article=0)
        with pytest.raises(ValueError):
            BackendConfig(mode="replay", fixture_path="x", max_in_flight=0)


class TestReplayBackend:
    def fixture(self, tmp_path, rows):
        return write_jsonl(tmp_path / "fixture.jsonl", rows)

    def test_three_entries_in_index_order(self, tmp_path):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 1, "text": "second"},
            {"article_id": "A", "sample_index": 0, "text": "first"},
            {"article_id": "A", "sample_index": 2, "text": "third"},
        ])
        backend = ReplayBackend(path)
        out = backend.complete(prompt_for("A"), 3)
        assert [(c.sample_index, c.text) for c in out] == \
            [(0, "first"), (1, "second"), (2, "third")]

    def test_missing_key_names_it(self, tmp_path):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 0, "text": "x"},
            {"article_id": "A", "sample_index": 1, "text": "y"},
        ])
        backend = ReplayBackend(path)
        with pytest.raises(ReplayFixtureError) as err:
            backend.complete(prompt_for("A"), 3)
        assert "'A'" in str(err.value) and "2" in str(err.value)

    def test_duplicate_fixture_key(self, tmp_path):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 0, "text": "x"},
            {"article_id": "A", "sample_index": 0, "text": "y"},
        ])
        with pytest.raises(ReplayFixtureError, match="duplicate"):
            ReplayBackend(path)

    @pytest.mark.parametrize("fields", [
        {"text": 123},
        {"text": None},
        {"article_id": ["A"]},
        {"sample_index": True},
    ])
    def test_fixture_field_types(self, tmp_path, fields):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 0, "text": "x"},
            {"article_id": "A", "sample_index": 1, "text": "y", **fields},
        ])
        with pytest.raises(ReplayFixtureError, match="line 2"):
            ReplayBackend(path)

    def test_missing_fixture_file(self, tmp_path):
        with pytest.raises(ReplayFixtureError, match="not found"):
            ReplayBackend(tmp_path / "missing.jsonl")

    def test_complete_helper(self, tmp_path):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 0, "text": "only"},
        ])
        config = BackendConfig(mode="replay", fixture_path=str(path))
        out = complete(prompt_for("A"), 1, config)
        assert len(out) == 1 and out[0].text == "only"


class _FlakyHandler(BaseHTTPRequestHandler):
    """Fails with 500 a configurable number of times, then succeeds."""

    failures_left = 0
    requests_seen = 0

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = {"completions": [f"completion {i} for {body['n']}"
                                   for i in range(body["n"])]}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    thread.join(timeout=5)


class TestHttpBackend:
    def config(self, endpoint: str, **kw) -> BackendConfig:
        defaults = dict(mode="http", endpoint=endpoint, max_attempts=3,
                        backoff_base=0.01, timeout=5.0)
        defaults.update(kw)
        return BackendConfig(**defaults)

    def test_fails_twice_then_succeeds_with_two_retries_logged(
            self, flaky_server, caplog):
        _FlakyHandler.failures_left = 2
        _FlakyHandler.requests_seen = 0
        backend = HttpBackend(self.config(flaky_server))
        with caplog.at_level(logging.WARNING, logger="osir.backend"):
            out = backend.complete(prompt_for("A"), 3)
        assert [c.sample_index for c in out] == [0, 1, 2]
        assert _FlakyHandler.requests_seen == 3
        retries = [r for r in caplog.records if "retrying" in r.getMessage()]
        assert len(retries) == 2

    def test_exhausted_attempts(self, flaky_server):
        _FlakyHandler.failures_left = 10
        backend = HttpBackend(self.config(flaky_server))
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.complete(prompt_for("A"), 1)

    def test_unreachable_endpoint(self):
        backend = HttpBackend(self.config("http://127.0.0.1:1/none",
                                          max_attempts=2))
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.complete(prompt_for("A"), 1)

    def test_auth_header_from_env(self, flaky_server, monkeypatch):
        _FlakyHandler.failures_left = 0
        captured = {}

        original = _FlakyHandler.do_POST

        def spy(handler):
            captured["auth"] = handler.headers.get("Authorization")
            return original(handler)

        monkeypatch.setattr(_FlakyHandler, "do_POST", spy)
        monkeypatch.setenv("OSIR_TOKEN", "secret-token")
        backend = HttpBackend(self.config(flaky_server))
        backend.complete(prompt_for("A"), 1)
        assert captured["auth"] == "Bearer secret-token"

    def test_make_backend_dispatch(self, tmp_path, flaky_server):
        fixture = write_jsonl(tmp_path / "f.jsonl",
                              [{"article_id": "A", "sample_index": 0,
                                "text": "t"}])
        replay = make_backend(BackendConfig(mode="replay",
                                            fixture_path=str(fixture)))
        assert isinstance(replay, ReplayBackend)
        http = make_backend(self.config(flaky_server))
        assert isinstance(http, HttpBackend)
