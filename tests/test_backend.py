"""Replay and HTTP completion backends."""

import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.client import HTTPSConnection
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import osir
from osir.backend import (
    BackendError,
    HttpBackend,
    ReplayBackend,
    ReplayFixtureError,
    RetryableError,
    complete,
    complete_all,
    make_backend,
)
from osir.config import ConfigError, PipelineConfig
from osir.corpus import PROMPT_PREAMBLE, PreparedPrompt
from osir.extraction import RawCompletion

from conftest import build_replay_bundle, write_jsonl


def prompt_for(article_id: str) -> PreparedPrompt:
    """A prompt whose text is the preamble then "prompt for <article_id>"."""
    return PreparedPrompt(article_id=article_id, body=f"prompt for {article_id}",
                          token_count=3)


class TestBackendSettings:
    def test_replay_needs_fixture(self):
        with pytest.raises(ValueError, match="fixture"):
            make_backend(PipelineConfig(backend_mode="replay",
                                        fixture_path=None))

    def test_http_needs_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            make_backend(PipelineConfig(backend_mode="http", endpoint=None))

    @pytest.mark.parametrize("endpoint", [
        "localhost:8000/complete", "ftp://x/complete", "http://",
        "http://127.0.0.1:port/complete", "http://[::1/complete"])
    def test_http_endpoint_must_be_an_http_url(self, endpoint):
        with pytest.raises(ValueError,
                           match=re.escape(f"endpoint {endpoint!r} is not")):
            make_backend(PipelineConfig(backend_mode="http",
                                        endpoint=endpoint))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="backend_mode"):
            PipelineConfig(backend_mode="grpc", fixture_path="x")

    @pytest.mark.parametrize("field", ["samples_per_article", "max_in_flight",
                                       "max_attempts"])
    def test_bounds(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be at least 1"):
            PipelineConfig(fixture_path="x", **{field: 0})
        assert getattr(PipelineConfig(fixture_path="x", **{field: 1}),
                       field) == 1


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

    def test_lone_surrogate_in_text_names_line(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        path.write_text(
            '{"article_id": "A", "sample_index": 0, "text": "ok"}\n'
            '{"article_id": "A", "sample_index": 1, '
            '"text": "bad \\ud800 text"}\n', encoding="utf-8")
        with pytest.raises(ReplayFixtureError,
                           match="line 2: text holds a lone surrogate at "
                                 "index 4"):
            ReplayBackend(path)

    def test_missing_fixture_file(self, tmp_path):
        with pytest.raises(ReplayFixtureError, match="not found"):
            ReplayBackend(tmp_path / "missing.jsonl")

    def test_complete_helper(self, tmp_path):
        path = self.fixture(tmp_path, [
            {"article_id": "A", "sample_index": 0, "text": "only"},
        ])
        config = PipelineConfig(backend_mode="replay", fixture_path=str(path))
        out = complete(prompt_for("A"), 1, config)
        assert len(out) == 1 and out[0].text == "only"


class _FlakyHandler(BaseHTTPRequestHandler):
    """Fails a configurable number of times, then succeeds.

    Each failure answers failure_status with failure_headers; a success
    answers 200 with success_body, or with n completions when that is None.
    seen lists the article id of every request in arrival order.
    """

    failures_left = 0
    failure_status = 500
    failure_headers: dict[str, str] = {}
    success_body: bytes | None = None
    requests_seen = 0
    seen: list[str] = []

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        cls.seen.append(body["prompt"].removeprefix(
            f"{PROMPT_PREAMBLE}\nprompt for "))
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self.send_response(cls.failure_status)
            for name, value in cls.failure_headers.items():
                self.send_header(name, value)
            self.end_headers()
            return
        payload = {"completions": [f"completion {i} for {body['n']}"
                                   for i in range(body["n"])]}
        data = cls.success_body
        if data is None:
            data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server(monkeypatch):
    """A one-thread server: it answers requests one at a time, in order."""
    monkeypatch.setattr(_FlakyHandler, "failures_left", 0)
    monkeypatch.setattr(_FlakyHandler, "failure_status", 500)
    monkeypatch.setattr(_FlakyHandler, "failure_headers", {})
    monkeypatch.setattr(_FlakyHandler, "success_body", None)
    monkeypatch.setattr(_FlakyHandler, "seen", [])
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHttpBackend:
    def config(self, endpoint: str, **kw) -> PipelineConfig:
        defaults = dict(backend_mode="http", endpoint=endpoint,
                        max_attempts=3, backoff_base=0.01, timeout=5.0)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_fails_twice_then_succeeds_with_two_retries_logged(
            self, flaky_server, caplog):
        _FlakyHandler.failures_left = 2
        _FlakyHandler.requests_seen = 0
        with caplog.at_level(logging.WARNING, logger="osir.backend"):
            out = complete(prompt_for("A"), 3, self.config(flaky_server))
        assert [c.sample_index for c in out] == [0, 1, 2]
        assert _FlakyHandler.requests_seen == 3
        retries = [r for r in caplog.records if "retrying" in r.getMessage()]
        assert len(retries) == 2

    def test_exhausted_attempts(self, flaky_server):
        _FlakyHandler.failures_left = 10
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(prompt_for("A"), 1, self.config(flaky_server))

    def test_unreachable_endpoint(self):
        config = self.config("http://127.0.0.1:1/none", max_attempts=2)
        with pytest.raises(BackendError, match="after 2 attempts"):
            complete(prompt_for("A"), 1, config)

    def test_one_request_per_call(self, flaky_server):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_headers = {"Retry-After": "7"}
        backend = HttpBackend(self.config(flaky_server))
        with pytest.raises(RetryableError) as err:
            backend.complete(prompt_for("A"), 1)
        assert err.value.retry_after == 7.0
        assert _FlakyHandler.seen == ["A"]

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_other_4xx_is_fatal(self, flaky_server, status):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = status
        with pytest.raises(BackendError, match=f"HTTP {status}") as err:
            complete(prompt_for("A"), 1, self.config(flaky_server))
        assert not isinstance(err.value, RetryableError)
        assert _FlakyHandler.seen == ["A"]

    @pytest.mark.parametrize("status", [301, 302, 307])
    def test_redirect_is_fatal(self, flaky_server, status):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = status
        _FlakyHandler.failure_headers = {"Location": flaky_server}
        with pytest.raises(BackendError, match=f"HTTP {status}") as err:
            complete(prompt_for("A"), 1, self.config(flaky_server))
        assert not isinstance(err.value, RetryableError)
        assert _FlakyHandler.seen == ["A"]

    @pytest.mark.parametrize("body", [
        b"[1, 2]", b'"x"', b"null", b"3", b'{"choices": []}', b"not json",
        b"\xff\xfe", b'{"completions": [null]}', b'{"completions": [7]}',
        b'{"completions": "x"}', b'{"completions": []}',
        pytest.param(b"[" * 100_000 + b"]" * 100_000,
                     id="arrays-nested-100000-deep")])
    def test_malformed_response_is_fatal(self, flaky_server, body):
        _FlakyHandler.success_body = body
        with pytest.raises(BackendError,
                           match="malformed backend response for 'A'") as err:
            complete(prompt_for("A"), 1, self.config(flaky_server))
        assert not isinstance(err.value, RetryableError)
        assert _FlakyHandler.seen == ["A"]

    def test_lone_surrogate_in_a_completion_is_fatal(self, flaky_server):
        _FlakyHandler.success_body = \
            b'{"completions": ["fine", "bad \\ud800 text"]}'
        with pytest.raises(BackendError, match=re.escape(
                "malformed backend response for 'A': completion 1 holds a "
                "lone surrogate at index 4")) as err:
            complete(prompt_for("A"), 2, self.config(flaky_server))
        assert not isinstance(err.value, RetryableError)
        assert _FlakyHandler.seen == ["A"]

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_body_with_a_bom_loads(self, flaky_server, encoding):
        _FlakyHandler.success_body = json.dumps(
            {"completions": ["é, 中"]}, ensure_ascii=False).encode(encoding)
        out = complete(prompt_for("A"), 1, self.config(flaky_server))
        assert [c.text for c in out] == ["é, 中"]

    def test_proxy_variables_are_not_read(self, flaky_server, monkeypatch):
        for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
            monkeypatch.setenv(name, "http://127.0.0.1:1")
        out = complete(prompt_for("A"), 1, self.config(flaky_server))
        assert len(out) == 1 and _FlakyHandler.seen == ["A"]

    def retry_after(self, endpoint: str, header: str | None) -> float | None:
        """The retry_after of a 429 answered with *header* as Retry-After."""
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 429
        _FlakyHandler.failure_headers = {} if header is None else {
            "Retry-After": header}
        with pytest.raises(RetryableError) as err:
            HttpBackend(self.config(endpoint)).complete(prompt_for("A"), 1)
        return err.value.retry_after

    @pytest.mark.parametrize("header, seconds", [
        ("0", 0.0), ("2.5", 2.5), ("-1", None), ("nan", None), ("inf", None),
        (None, None)])
    def test_retry_after_is_a_number_of_seconds(self, flaky_server, header,
                                                 seconds):
        assert self.retry_after(flaky_server, header) == seconds

    @pytest.mark.parametrize("case", ["ahead", "past", "minus zero zone",
                                      "day 32", "no date"])
    def test_retry_after_http_date(self, flaky_server, case):
        # an HTTP date asks for the seconds until it, and 0 once it is past
        ahead = datetime.now(timezone.utc) + timedelta(seconds=30)
        header, low, high = {
            "ahead": (format_datetime(ahead, usegmt=True), 28, 30),
            "past": ("Wed, 21 Oct 2015 07:28:00 GMT", 0, 0),
            "minus zero zone": (format_datetime(ahead).replace(
                "+0000", "-0000"), 28, 30),
            "day 32": ("Sat, 32 Oct 2026 07:28:00 GMT", None, None),
            "no date": ("soon", None, None),
        }[case]
        seconds = self.retry_after(flaky_server, header)
        if low is None:
            assert seconds is None
        else:
            assert low <= seconds <= high

    def test_http_date_beyond_timeout_max_fails_the_run(self, flaky_server):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 429
        _FlakyHandler.failure_headers = {
            "Retry-After": "Fri, 31 Dec 9999 23:59:59 GMT"}
        with pytest.raises(BackendError,
                           match=r"^cannot wait \d+\.\d+ s to retry 'A'$"):
            complete(prompt_for("A"), 1, self.config(flaky_server))
        assert _FlakyHandler.seen == ["A"]

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
        replay = make_backend(PipelineConfig(backend_mode="replay",
                                             fixture_path=str(fixture)))
        assert isinstance(replay, ReplayBackend)
        http = make_backend(self.config(flaky_server))
        assert isinstance(http, HttpBackend)


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """An HTTP/1.1 server's handler: it keeps each connection open, or with
    close_idle closes it after the response without saying so, as a server
    drops an idle keep-alive connection. ports lists the client port of every
    request."""

    protocol_version = "HTTP/1.1"
    close_idle = False
    ports: list[int] = []

    def do_POST(self):
        cls = type(self)
        cls.ports.append(self.client_address[1])
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        data = json.dumps({"completions": ["t"] * body["n"]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = cls.close_idle

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    daemon_threads = True
    closed: threading.Event

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


@pytest.fixture
def keepalive_server(monkeypatch):
    """(endpoint, event set each time the server closes a connection)."""
    monkeypatch.setattr(_KeepAliveHandler, "close_idle", False)
    monkeypatch.setattr(_KeepAliveHandler, "ports", [])
    server = _KeepAliveServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.closed = threading.Event()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete", server.closed
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestConnections:
    def config(self, endpoint: str) -> PipelineConfig:
        return PipelineConfig(backend_mode="http", endpoint=endpoint,
                              max_attempts=3, backoff_base=0.01, timeout=5.0,
                              max_in_flight=1)

    def test_one_thread_reuses_one_connection(self, keepalive_server):
        endpoint, _ = keepalive_server
        config = self.config(endpoint)
        out = complete_all(HttpBackend(config),
                           [prompt_for(i) for i in "ABCD"], 2, config)
        assert [batch[0].article_id for batch in out] == list("ABCD")
        assert len(_KeepAliveHandler.ports) == 4
        assert len(set(_KeepAliveHandler.ports)) == 1

    def test_idle_close_costs_no_retry(self, keepalive_server, caplog):
        endpoint, closed = keepalive_server
        _KeepAliveHandler.close_idle = True
        config = self.config(endpoint)
        backend = HttpBackend(config)

        class AfterClose:
            """Sends each prompt after the server dropped the connection
            the one before it used."""

            def complete(self, prompt, n):
                if prompt.article_id != "A":
                    assert closed.wait(5)
                closed.clear()
                return backend.complete(prompt, n)

        with caplog.at_level(logging.WARNING, logger="osir.backend"):
            out = complete_all(AfterClose(), [prompt_for(i) for i in "ABC"],
                               1, config)
        assert [batch[0].article_id for batch in out] == list("ABC")
        assert not [r for r in caplog.records if "retrying" in r.getMessage()]
        assert len(_KeepAliveHandler.ports) == 3
        assert len(set(_KeepAliveHandler.ports)) == 3

    def test_connections_close_with_the_backend(self, keepalive_server):
        endpoint, closed = keepalive_server
        backend = HttpBackend(self.config(endpoint))
        backend.complete(prompt_for("A"), 1)
        assert not closed.is_set()
        del backend
        assert closed.wait(5)

    def test_https_endpoint_opens_tls(self):
        backend = HttpBackend(self.config("https://127.0.0.1:1/complete"))
        assert isinstance(backend._connection(), HTTPSConnection)


def test_start_up_and_replay_load_no_network_stack(tmp_path):
    # the network stack loads only when an HTTP backend is built
    paths = build_replay_bundle(tmp_path, n_articles=2)
    code = f"""
import sys
import osir, osir.cli
from osir.backend import make_backend
from osir.config import PipelineConfig
from osir.pipeline import run_pipeline

network = {{"http.client", "ssl", "email", "requests", "urllib3"}}
run_pipeline({str(paths["corpus"])!r}, {str(tmp_path / "out")!r},
             PipelineConfig(backend_mode="replay",
                            fixture_path={str(paths["fixture"])!r}),
             gold_path={str(paths["gold"])!r})
print(sorted(network & set(sys.modules)))
make_backend(PipelineConfig(backend_mode="http",
                            endpoint="http://127.0.0.1:1/complete"))
print("http.client" in sys.modules)
"""
    src = str(Path(osir.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[:2] == ["[]", "True"]


@pytest.fixture
def started(monkeypatch):
    """Every thread that complete_all starts."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr("osir.backend.Thread", Recorded)
    return threads


class TestScheduler:
    """complete_all against the one-thread server: requests arrive in the
    order the scheduler sends them."""

    def config(self, endpoint: str, **kw) -> PipelineConfig:
        defaults = dict(backend_mode="http", endpoint=endpoint,
                        max_attempts=3, backoff_base=0.01, timeout=5.0,
                        max_in_flight=1)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def run(self, config: PipelineConfig, ids: str):
        prompts = [prompt_for(article_id) for article_id in ids]
        return complete_all(HttpBackend(config), prompts, 1, config)

    @staticmethod
    def delays(caplog) -> list[float]:
        """The delay of each logged retry, as the scheduler set it."""
        return [r.args[-1] for r in caplog.records
                if "retrying" in r.getMessage()]

    def test_429_with_retry_after_zero_is_retried(self, flaky_server, caplog):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 429
        _FlakyHandler.failure_headers = {"Retry-After": "0"}
        with caplog.at_level(logging.WARNING, logger="osir.backend"):
            out = self.run(self.config(flaky_server, backoff_base=30.0), "A")
        assert [c.article_id for batch in out for c in batch] == ["A"]
        assert _FlakyHandler.seen == ["A", "A"]
        assert self.delays(caplog) == [0.0]

    def test_429_without_retry_after_backs_off_exponentially(
            self, flaky_server, caplog):
        _FlakyHandler.failures_left = 2
        _FlakyHandler.failure_status = 429
        with caplog.at_level(logging.WARNING, logger="osir.backend"):
            out = self.run(self.config(flaky_server, backoff_base=0.05), "A")
        assert [c.article_id for batch in out for c in batch] == ["A"]
        assert _FlakyHandler.seen == ["A", "A", "A"]
        assert self.delays(caplog) == [0.05, 0.1]

    def test_backoff_frees_the_slot(self, flaky_server):
        # A's retry is due 0.2 s after its 503 and then queues behind the
        # prompts not yet sent, so the order does not depend on timing
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 503
        out = self.run(self.config(flaky_server, backoff_base=0.2), "ABCD")
        assert _FlakyHandler.seen == ["A", "B", "C", "D", "A"]
        assert [batch[0].article_id for batch in out] == list("ABCD")

    def test_a_retry_due_at_once_waits_behind_unsent_prompts(
            self, flaky_server):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 503
        out = self.run(self.config(flaky_server, backoff_base=0), "ABCD")
        assert _FlakyHandler.seen == ["A", "B", "C", "D", "A"]
        assert [batch[0].article_id for batch in out] == list("ABCD")

    def test_fatal_error_drains_no_queue(self, flaky_server, started):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 400
        ids = [f"a{i:02d}" for i in range(30)]
        config = self.config(flaky_server, max_in_flight=2)
        with pytest.raises(BackendError, match="HTTP 400"):
            complete_all(HttpBackend(config), [prompt_for(i) for i in ids], 1,
                         config)
        assert len(_FlakyHandler.seen) <= 2 * config.max_in_flight
        assert len(started) == config.max_in_flight - 1
        assert not any(thread.is_alive() for thread in started)

    def test_exhausted_attempts_name_the_article(self, flaky_server, started):
        _FlakyHandler.failures_left = 10
        _FlakyHandler.failure_status = 503
        with pytest.raises(BackendError,
                           match=r"unreachable for 'A' after 3 attempts: "
                                 r"HTTP 503"):
            self.run(self.config(flaky_server), "A")
        assert len(started) == 0
        assert not any(thread.is_alive() for thread in started)

    def test_stress_every_result_in_prompt_order(self, started):
        # more slots than cores and a short switch interval, so that attempts
        # interleave; every third article fails twice before it succeeds
        class Fake:
            def __init__(self):
                self.lock = threading.Lock()
                self.attempts = {}
                self.active = self.peak = 0

            def complete(self, prompt, n):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                    tries = self.attempts[prompt.article_id] = \
                        self.attempts.get(prompt.article_id, 0) + 1
                time.sleep(0.0005)
                with self.lock:
                    self.active -= 1
                if int(prompt.article_id) % 3 == 0 and tries < 3:
                    raise RetryableError("HTTP 503", retry_after=0.0)
                return [RawCompletion(prompt.article_id, i, "t")
                        for i in range(n)]

        config = PipelineConfig(max_in_flight=8, max_attempts=3)
        ids = [str(i) for i in range(300)]
        backend = Fake()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = complete_all(backend, [prompt_for(i) for i in ids], 2,
                               config)
        finally:
            sys.setswitchinterval(interval)
        assert [[(c.article_id, c.sample_index) for c in batch]
                for batch in out] == [[(i, 0), (i, 1)] for i in ids]
        assert sum(backend.attempts.values()) == 300 + 2 * 100
        assert backend.peak <= config.max_in_flight
        assert len(started) == config.max_in_flight - 1
        assert not any(thread.is_alive() for thread in started)


class _Pause(RetryableError):
    """A 429 whose Retry-After records each read: (thread, time). The
    scheduler reads it holding its lock, before it sets the pause."""

    def __init__(self, seconds: float):
        self.reads = []
        self.read = threading.Event()
        super().__init__("HTTP 429", retry_after=seconds)

    @property
    def retry_after(self) -> float:
        self.reads.append((threading.get_ident(), time.monotonic()))
        self.read.set()
        return self._seconds

    @retry_after.setter
    def retry_after(self, seconds: float) -> None:
        self._seconds = seconds


#: What a scripted backend does on one attempt: the error it raises, if any.
OUTCOMES = {
    "success": lambda: None,
    "retry": lambda: RetryableError("HTTP 503"),
    "retry after 0": lambda: RetryableError("HTTP 429", retry_after=0),
    "retry after a pause": lambda: _Pause(0.005),
    "fatal": lambda: BackendError("HTTP 400"),
    "crash": lambda: RuntimeError("crash"),
}


class _Scripted:
    """A backend that answers attempt k of article i with script[i][k - 1],
    each error made once, so that a raised error is known by identity."""

    def __init__(self, script: list[list[str]]):
        self.errors = [[OUTCOMES[outcome]() for outcome in attempts]
                       for attempts in script]
        self.lock = threading.Lock()
        self.attempts = [0] * len(script)
        self.starts = []  # (thread, time) of every attempt
        self.order = []  # the article index of every attempt
        self.active = self.peak = 0

    def complete(self, prompt, n):
        index = int(prompt.article_id)
        with self.lock:
            self.starts.append((threading.get_ident(), time.monotonic()))
            self.order.append(index)
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.attempts[index] += 1
            attempt = self.attempts[index]
        time.sleep(0)
        with self.lock:
            self.active -= 1
        error = self.errors[index][attempt - 1]
        if error is not None:
            raise error
        return [RawCompletion(prompt.article_id, i, "t") for i in range(n)]

    def fate(self, index: int) -> BaseException | None:
        """The error article *index* ends with if it runs alone: its first
        non-retryable error, its last retryable one if every attempt fails,
        or None if an attempt succeeds."""
        for error in self.errors[index]:
            if not isinstance(error, RetryableError):
                return error
        return self.errors[index][-1]


@st.composite
def fault_schedules(draw):
    max_attempts = draw(st.integers(1, 3))
    script = draw(st.lists(
        st.lists(st.sampled_from(list(OUTCOMES)), min_size=max_attempts,
                 max_size=max_attempts), min_size=1, max_size=12))
    return (script, draw(st.integers(1, 4)), max_attempts,
            draw(st.integers(1, 3)))


class TestFaultSchedules:
    """complete_all under any schedule of successes, retryable, fatal and
    unexpected errors keeps its promises."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fault_schedules())
    def test_invariants(self, started, schedule):
        script, max_in_flight, max_attempts, n = schedule
        backend = _Scripted(script)
        config = PipelineConfig(max_in_flight=max_in_flight,
                                max_attempts=max_attempts, backoff_base=0)
        ids = [str(i) for i in range(len(script))]
        first_thread = len(started)
        fates = [backend.fate(i) for i in range(len(script))]
        try:
            out = complete_all(backend, [prompt_for(i) for i in ids], n,
                               config)
        except Exception as exc:
            # an exhausted article raises BackendError from its last failure
            raised = exc.__cause__ if isinstance(exc.__cause__,
                                                 RetryableError) else exc
            assert any(raised is fate for fate in fates)
        else:
            assert all(fate is None for fate in fates)
            assert [[(c.article_id, c.sample_index) for c in batch]
                    for batch in out] == [[(i, k) for k in range(n)]
                                          for i in ids]
        assert backend.peak <= max_in_flight
        assert max(backend.attempts) <= max_attempts
        if max_in_flight == 1:  # every prompt is sent once before a retry
            first = backend.order[:len(script)]
            assert first == list(range(len(first)))
        assert not any(thread.is_alive()
                       for thread in started[first_thread:])
        # No attempt starts inside a pause, except one pulled before it by
        # a worker other than the one that read the Retry-After.
        for error in (e for errors in backend.errors for e in errors):
            if isinstance(error, _Pause) and error.reads:
                reader, read = error.reads[0]
                inside = [thread for thread, start in backend.starts
                          if read < start < read + error.retry_after]
                assert reader not in inside
                assert len(inside) == len(set(inside))


class TestRetryAfterPauses:
    """A Retry-After pauses every worker of complete_all, not only the
    prompt whose attempt got it."""

    def test_pause_delays_the_other_worker(self, started):
        # A gets a 429 asking for 0.2 s while B is on the wire. B returns
        # once the scheduler has read the header, so its worker's next
        # attempt, C's, is pulled inside the pause.
        pause = _Pause(0.2)

        class Backend:
            def __init__(self):
                self.starts = {}

            def complete(self, prompt, n):
                self.starts.setdefault(prompt.article_id, time.monotonic())
                if prompt.article_id == "A" and not pause.reads:
                    self.failed = time.monotonic()
                    raise pause
                if prompt.article_id == "B":
                    assert pause.read.wait(5)
                return [RawCompletion(prompt.article_id, 0, "t")]

        backend = Backend()
        out = complete_all(backend, [prompt_for(i) for i in "ABC"], 1,
                           PipelineConfig(max_in_flight=2))
        assert [batch[0].article_id for batch in out] == list("ABC")
        assert backend.starts["C"] - backend.failed >= 0.2
        assert len(started) == 1

    def test_retry_after_zero_sets_no_timer(self, monkeypatch, started):
        # the bench's stub sends Retry-After: 0; no worker then waits on a
        # timer, so the pause changes nothing
        waits = []

        class Recorded(threading.Condition):
            def wait(self, timeout=None):
                waits.append(timeout)
                return super().wait(timeout)

        monkeypatch.setattr("osir.backend.Condition", Recorded)
        backend = _Scripted([["retry after 0", "success"]] * 6)
        out = complete_all(backend, [prompt_for(str(i)) for i in range(6)],
                           1, PipelineConfig(max_in_flight=2,
                                             backoff_base=30.0))
        assert [batch[0].article_id for batch in out] == \
            [str(i) for i in range(6)]
        assert backend.attempts == [2] * 6
        assert all(timeout is None for timeout in waits)


class TestWorkerThreads:
    """complete_all runs one worker on the calling thread, so it starts no
    thread for one worker or none, and raises the fatal error itself, or
    exhaustion with the last failure as its cause."""

    def test_no_thread_for_no_prompts(self, started):
        class Unused:
            def complete(self, prompt, n):
                raise AssertionError("no prompt to complete")

        assert complete_all(Unused(), [], 3, PipelineConfig()) == []
        assert started == []

    def test_one_worker_is_the_calling_thread(self, started):
        class Recording:
            def __init__(self):
                self.idents = []

            def complete(self, prompt, n):
                self.idents.append(threading.get_ident())
                if len(self.idents) == 1:
                    raise RetryableError("HTTP 503", retry_after=0.0)
                return [RawCompletion(prompt.article_id, 0, "t")]

        backend = Recording()
        out = complete_all(backend, [prompt_for(i) for i in "ABC"], 1,
                           PipelineConfig(max_in_flight=1))
        assert [batch[0].article_id for batch in out] == list("ABC")
        assert backend.idents == [threading.get_ident()] * 4
        assert started == []

    def test_interrupt_of_the_calling_thread_is_fatal(self, started):
        # one attempt on each worker: the calling thread's is interrupted
        # while the started thread's is on the wire
        caller = threading.get_ident()
        sent, interrupted = threading.Event(), threading.Event()

        class Interrupted:
            def __init__(self):
                self.ids = []

            def complete(self, prompt, n):
                self.ids.append(prompt.article_id)
                if threading.get_ident() == caller:
                    assert sent.wait(5)
                    interrupted.set()
                    raise KeyboardInterrupt
                sent.set()
                assert interrupted.wait(5)
                return [RawCompletion(prompt.article_id, 0, "t")]

        backend = Interrupted()
        with pytest.raises(KeyboardInterrupt):
            complete_all(backend, [prompt_for(str(i)) for i in range(6)], 1,
                         PipelineConfig(max_in_flight=2))
        assert sorted(backend.ids) == ["0", "1"]
        assert len(started) == 1
        assert not any(thread.is_alive() for thread in started)

    def test_fatal_error_is_raised_as_is(self, started):
        boom = ReplayFixtureError("no fixture completion for article '5'")

        class Fatal:
            def complete(self, prompt, n):
                if prompt.article_id == "5":
                    raise boom
                return [RawCompletion(prompt.article_id, 0, "t")]

        with pytest.raises(ReplayFixtureError) as err:
            complete_all(Fatal(), [prompt_for(str(i)) for i in range(40)], 1,
                         PipelineConfig(max_in_flight=3))
        assert err.value is boom
        assert len(started) == 2
        assert not any(thread.is_alive() for thread in started)

    def test_exhausted_attempts_keep_the_cause(self, started):
        class Failing:
            def __init__(self):
                self.errors = []

            def complete(self, prompt, n):
                self.errors.append(RetryableError("HTTP 503", retry_after=0.0))
                raise self.errors[-1]

        backend = Failing()
        config = PipelineConfig(max_in_flight=2, max_attempts=3)
        with pytest.raises(BackendError) as err:
            complete_all(backend, [prompt_for("A")], 1, config)
        assert type(err.value) is BackendError
        assert str(err.value) == \
            "backend unreachable for 'A' after 3 attempts: HTTP 503"
        assert err.value.__cause__ is backend.errors[-1]
        assert len(backend.errors) == 3
        assert len(started) == 0
        assert not any(thread.is_alive() for thread in started)


class TestUnwaitableDelays:
    """A retry delay that threading cannot wait, and any other failure of a
    worker thread, fails complete_all; it never returns an unfilled batch."""

    @staticmethod
    def stalling(fail):
        """A backend whose attempts at article 'a1' raise fail()."""
        class Stalling:
            def complete(self, prompt, n):
                if prompt.article_id == "a1":
                    raise fail()
                return [RawCompletion(prompt.article_id, i, "t")
                        for i in range(n)]

        return Stalling()

    @pytest.mark.parametrize("retry_after, backoff_base, delay", [
        (1e12, 0.5, "1000000000000.0"),
        (None, 1e300, "1e+300"),
    ])
    def test_delay_beyond_timeout_max_is_fatal(self, started, retry_after,
                                               backoff_base, delay):
        backend = self.stalling(
            lambda: RetryableError("HTTP 429", retry_after=retry_after))
        config = PipelineConfig(max_in_flight=2, backoff_base=backoff_base)
        with pytest.raises(BackendError) as err:
            complete_all(backend, [prompt_for(f"a{i}") for i in range(4)], 2,
                         config)
        assert str(err.value) == f"cannot wait {delay} s to retry 'a1'"
        assert isinstance(err.value.__cause__, RetryableError)
        assert len(started) == 1
        assert not any(thread.is_alive() for thread in started)

    def test_backoff_beyond_a_float_is_fatal(self, started):
        # 1,024 retries the server asked to make at once, then a 503 with no
        # Retry-After: 1.0 * 2**1024 is past the largest float
        class Failing:
            attempts = 0

            def complete(self, prompt, n):
                self.attempts += 1
                raise RetryableError("HTTP 503", retry_after=(
                    0.0 if self.attempts <= 1024 else None))

        backend = Failing()
        config = PipelineConfig(max_attempts=2000, backoff_base=1.0)
        with pytest.raises(BackendError, match=r"^cannot wait inf s to retry "
                                               r"'A'$"):
            complete_all(backend, [prompt_for("A")], 1, config)
        assert backend.attempts == 1025
        assert not any(thread.is_alive() for thread in started)

    def test_zero_backoff_stays_zero_after_1024_attempts(self, started):
        class Flaky:
            attempts = 0

            def complete(self, prompt, n):
                self.attempts += 1
                if self.attempts <= 1100:
                    raise RetryableError("HTTP 503")
                return [RawCompletion(prompt.article_id, 0, "t")]

        backend = Flaky()
        config = PipelineConfig(max_attempts=2000, backoff_base=0.0)
        out = complete_all(backend, [prompt_for("A")], 1, config)
        assert [[c.article_id for c in batch] for batch in out] == [["A"]]
        assert backend.attempts == 1101

    def test_a_failing_scheduler_is_fatal(self, started):
        # a retry_after that is not a number breaks the delay arithmetic
        backend = self.stalling(
            lambda: RetryableError("HTTP 429", retry_after="soon"))
        with pytest.raises(TypeError):
            complete_all(backend, [prompt_for(f"a{i}") for i in range(4)], 2,
                         PipelineConfig(max_in_flight=2))
        assert not any(thread.is_alive() for thread in started)
