"""Completion backends: a live HTTP service or deterministic replay fixtures.

The HTTP contract is intentionally minimal so any model server can be
adapted: POST {"prompt", "n", "params"} -> {"completions": [text, ...]},
bearer auth from an environment variable. The replay backend serves
pre-recorded completions keyed by (article_id, sample_index) for hermetic,
bit-reproducible runs. Both read their settings from the PipelineConfig;
make_backend checks the one setting its mode needs. A backend's complete()
makes one attempt; complete_all schedules the attempts of many prompts and
their retries for both.

The network stack (http.client, and with it ssl, socket and email) is
imported when an HttpBackend is built, so a process that only replays,
scores or evaluates never loads it.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import os
import time
import weakref
from datetime import timezone
from functools import partial
from pathlib import Path
from threading import TIMEOUT_MAX, Condition, Thread, local
from typing import TYPE_CHECKING
from urllib.parse import quote, urlsplit

from .corpus import PreparedPrompt
from .extraction import RawCompletion, read_completions
from .jsonl import check_utf8, json_object

if TYPE_CHECKING:
    from http.client import HTTPConnection

    from .config import PipelineConfig

log = logging.getLogger(__name__)

BACKEND_MODES = ("http", "replay")


class BackendError(RuntimeError):
    pass


class ReplayFixtureError(BackendError):
    pass


class RetryableError(BackendError):
    """A failed attempt worth repeating: a transport error, 429 or 5xx.

    retry_after is the delay in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ReplayBackend:
    """Serves pre-recorded completions; fails loudly on a missing key."""

    def __init__(self, fixture_path: str | Path):
        self._fixtures = read_completions(fixture_path, ReplayFixtureError,
                                          "replay fixture")

    def complete(self, prompt: PreparedPrompt, n: int) -> list[RawCompletion]:
        keys = [(prompt.article_id, i) for i in range(n)]
        for key in keys:
            if key not in self._fixtures:
                raise ReplayFixtureError(
                    f"no fixture completion for article {key[0]!r} "
                    f"sample {key[1]}")
        return [self._fixtures[key] for key in keys]


class HttpBackend:
    """Talks to a prompt-in/text-out completion endpoint, one request per call.

    The endpoint is an http or https URL with a host; https verifies the
    server against the system trust store. Each thread keeps one keep-alive
    connection for all its requests, and opens a new one when the server has
    closed it while it sat idle. The connections close once the backend is
    collected. Proxy variables in the environment are not read. The
    transport modules are imported by the constructor, not with this module.

    A transport error, 429 or 5xx raises RetryableError; any other status, a
    3xx included, or a malformed response raises BackendError.
    """

    def __init__(self, config: PipelineConfig):
        import http.client
        import ssl

        self._config = config
        scheme, host, port, self._target = _parse_endpoint(config.endpoint)
        if scheme == "https":
            self._open = partial(http.client.HTTPSConnection, host, port,
                                 timeout=config.timeout,
                                 context=ssl.create_default_context())
        else:
            self._open = partial(http.client.HTTPConnection, host, port,
                                 timeout=config.timeout)
        self._transport_errors = (OSError, http.client.HTTPException)
        self._local = local()
        self._connections: list[HTTPConnection] = []
        weakref.finalize(self, _close_all, self._connections)

    def _connection(self) -> HTTPConnection:
        """This thread's connection. An idle socket that reads as ready has
        been closed by the server, so it is dropped for a new one."""
        import select

        conn = getattr(self._local, "connection", None)
        if conn is None:
            conn = self._local.connection = self._open()
            self._connections.append(conn)
        elif conn.sock is not None and select.select([conn.sock], [], [],
                                                     0)[0]:
            conn.close()
        return conn

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self._config.auth_token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, prompt: PreparedPrompt, n: int) -> list[RawCompletion]:
        cfg = self._config
        body = json.dumps({"prompt": prompt.text, "n": n,
                           "params": cfg.decode_params},
                          allow_nan=False).encode("utf-8")
        conn = self._connection()
        try:
            conn.request("POST", self._target, body, self._headers())
            response = conn.getresponse()
            data = response.read()
        except self._transport_errors as exc:
            conn.close()
            raise RetryableError(f"transport error: {exc}") from exc
        status = response.status
        if status == 200:
            return self._completions_from(data, prompt, n)
        if status == 429 or 500 <= status < 600:
            raise RetryableError(
                f"HTTP {status}",
                _retry_after(response.getheader("Retry-After")))
        raise BackendError(f"backend rejected request for "
                           f"{prompt.article_id!r}: HTTP {status}")

    @staticmethod
    def _completions_from(data: bytes, prompt: PreparedPrompt,
                          n: int) -> list[RawCompletion]:
        """The first *n* completions of a response body in UTF-8, -16 or -32,
        with or without a BOM, as json.loads reads bytes. BackendError names
        what is malformed."""
        try:
            payload = json_object(data.decode(json.detect_encoding(data),
                                              "surrogateescape"))
            texts = payload.get("completions")
            if not isinstance(texts, list):
                raise ValueError("no 'completions' list")
            if len(texts) < n:
                raise ValueError(f"{len(texts)} completions, expected {n}")
            texts = texts[:n]
            for i, text in enumerate(texts):
                if not isinstance(text, str):
                    raise ValueError(f"completion {i} is not a string")
                check_utf8(f"completion {i}", text)
        except ValueError as exc:
            raise BackendError(f"malformed backend response for "
                               f"{prompt.article_id!r}: {exc}") from exc
        return [RawCompletion(prompt.article_id, i, text)
                for i, text in enumerate(texts)]


def _parse_endpoint(endpoint: str) -> tuple[str, str, int | None, str]:
    """(scheme, host, port, request target) of an http(s) endpoint URL; the
    target is percent-quoted where the URL is not."""
    try:
        parts = urlsplit(endpoint)
        port = parts.port
    except ValueError:
        parts = None
    if parts is None or parts.scheme not in ("http", "https") \
            or not parts.hostname:
        raise ValueError(
            f"endpoint {endpoint!r} is not an http(s) URL with a host")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return (parts.scheme, parts.hostname, port,
            quote(target, safe="!#$%&'()*+,/:;=?@[]~"))


def _close_all(connections: list[HTTPConnection]) -> None:
    for conn in connections:
        conn.close()


def _retry_after(header: str | None) -> float | None:
    """The delay a Retry-After header asks for: a non-negative number of
    seconds, or an HTTP date, which asks for the seconds until it (0 once it
    is past). None for any other value."""
    try:
        value = float(header)
    except (TypeError, ValueError):
        from email.utils import parsedate_to_datetime

        try:
            date = parsedate_to_datetime(header)
        except (TypeError, ValueError):
            return None
        date = date.replace(tzinfo=date.tzinfo or timezone.utc)  # -0000
        return max(0.0, date.timestamp() - time.time())
    return value if math.isfinite(value) and value >= 0 else None


def make_backend(config: PipelineConfig) -> ReplayBackend | HttpBackend:
    """The backend that config.backend_mode names, once the setting that
    mode needs is present."""
    if config.backend_mode == "http":
        if not config.endpoint:
            raise ValueError("http mode requires an endpoint")
        return HttpBackend(config)
    if not config.fixture_path:
        raise ValueError("replay mode requires a fixture path")
    return ReplayBackend(config.fixture_path)


def complete(prompt: PreparedPrompt, n: int,
             config: PipelineConfig) -> list[RawCompletion]:
    """One-shot completion call; builds the backend from *config* and
    retries as complete_all does.

    Returns exactly n completions with sample indices 0..n-1.
    """
    return complete_all(make_backend(config), [prompt], n, config)[0]


def complete_all(backend: ReplayBackend | HttpBackend,
                 prompts: list[PreparedPrompt], n: int,
                 config: PipelineConfig) -> list[list[RawCompletion]]:
    """backend.complete(prompt, n) of every prompt, in prompt order.

    min(max_in_flight, len(prompts)) workers each pull the next attempt,
    run it, and pull again, so at most max_in_flight attempts run at a time.
    The calling thread is one of the workers and starts the others as
    threads, so a single worker starts none. A RetryableError makes its
    prompt's next attempt due after a delay, the server's Retry-After if it
    gave one, else backoff_base * 2**(attempt - 1), and its worker pulls
    another attempt meanwhile. Attempts start in one order: every first
    attempt in prompt order, then each retry once it is due, by due time
    and then prompt index. A Retry-After also pauses every worker: no
    attempt starts before the latest time a server has asked for. The
    max_attempts-th failure, a delay longer than threading.TIMEOUT_MAX, or
    any other error in a worker is fatal: no attempt starts after it, the
    ones already running finish, and the error is raised. An interrupt of
    the calling thread is fatal too, and stops its own attempt at once.
    """
    results: list[list[RawCompletion]] = [[] for _ in prompts]
    # (due, index, attempt) of every attempt not yet started, as a heap; a
    # first attempt is due at once and before any retry
    pending = [(-math.inf, index, 1) for index in range(len(prompts))]
    changed = Condition()
    running = 0
    paused_until = -math.inf  # no attempt starts before it (Retry-After)
    fatal: BaseException | None = None

    def pull() -> tuple[int, int] | None:
        """The next attempt to run, or None once there is none to wait
        for; called holding *changed*."""
        nonlocal running
        while fatal is None and (pending or running):
            wait = (max(pending[0][0], paused_until) - time.monotonic()
                    if pending else None)
            if wait is not None and wait <= 0:
                running += 1
                return heapq.heappop(pending)[1:]
            changed.wait(wait)
        return None

    def settle(index: int, attempt: int, exc: BaseException) -> None:
        """Back off a retryable failure, or raise a fatal one; called
        holding *changed*."""
        nonlocal paused_until
        article_id = prompts[index].article_id
        if not isinstance(exc, RetryableError):
            raise exc
        if attempt >= config.max_attempts:
            raise BackendError(f"backend unreachable for {article_id!r} "
                               f"after {attempt} attempts: {exc}") from exc
        try:
            delay = (math.ldexp(config.backoff_base, attempt - 1)
                     if exc.retry_after is None else exc.retry_after)
        except OverflowError:
            delay = math.inf
        if not delay <= TIMEOUT_MAX:
            raise BackendError(f"cannot wait {delay} s to retry "
                               f"{article_id!r}") from exc
        log.warning("retrying %s after %s (attempt %d/%d, waiting %.2fs)",
                    article_id, exc, attempt, config.max_attempts, delay)
        due = time.monotonic() + delay
        if exc.retry_after is not None:
            paused_until = max(paused_until, due)
        heapq.heappush(pending, (due, index, attempt + 1))

    def work() -> None:
        """Settle the last attempt and pull the next, holding *changed*."""
        nonlocal running, fatal
        job = None
        while True:
            with changed:
                try:
                    if job is not None:
                        running -= 1
                        if failure is None:
                            results[job[0]] = batch
                        else:
                            settle(*job, failure)
                    job = pull()
                except BaseException as exc:  # re-raised by the calling thread
                    if fatal is None:
                        fatal = exc
                    job = None
                changed.notify_all()
            if job is None:
                return
            try:
                batch, failure = backend.complete(prompts[job[0]], n), None
            except BaseException as exc:  # settled in the next pass
                batch, failure = None, exc

    threads = [Thread(target=work, daemon=True)
               for _ in range(min(config.max_in_flight, len(prompts)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
        for thread in threads:
            thread.join()
    except BaseException as exc:  # an interrupt also stops new attempts
        with changed:
            if fatal is None:
                fatal = exc
            changed.notify_all()
        for thread in threads:
            thread.join()
        raise
    if fatal is not None:
        raise fatal
    return results
