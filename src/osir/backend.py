"""Completion backends: a live HTTP service or deterministic replay fixtures.

The HTTP contract is intentionally minimal so any model server can be
adapted: POST {"prompt", "n", "params"} -> {"completions": [text, ...]},
bearer auth from an environment variable. The replay backend serves
pre-recorded completions keyed by (article_id, sample_index) for hermetic,
bit-reproducible runs. Both read their settings from the PipelineConfig;
make_backend checks the one setting its mode needs.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING

import requests

from .corpus import PreparedPrompt
from .extraction import RawCompletion, read_completions

if TYPE_CHECKING:
    from .config import PipelineConfig

log = logging.getLogger(__name__)

BACKEND_MODES = ("http", "replay")


class BackendError(RuntimeError):
    pass


class ReplayFixtureError(BackendError):
    pass


class ReplayBackend:
    """Serves pre-recorded completions; fails loudly on a missing key."""

    def __init__(self, fixture_path: str | Path):
        self._fixtures = read_completions(fixture_path, ReplayFixtureError,
                                          "replay fixture")

    def complete(self, prompt: PreparedPrompt, n: int) -> list[RawCompletion]:
        out: list[RawCompletion] = []
        for i in range(n):
            key = (prompt.article_id, i)
            if key not in self._fixtures:
                raise ReplayFixtureError(
                    f"no fixture completion for article {key[0]!r} "
                    f"sample {key[1]}")
            out.append(self._fixtures[key])
        return out


class HttpBackend:
    """Talks to a prompt-in/text-out completion endpoint with retries.

    Retries only transport errors and 5xx responses, with exponential
    backoff; 4xx responses fail immediately.
    """

    def __init__(self, config: PipelineConfig, session: requests.Session | None = None):
        self._config = config
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self._config.auth_token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, prompt: PreparedPrompt, n: int) -> list[RawCompletion]:
        cfg = self._config
        body = {"prompt": prompt.text, "n": n, "params": cfg.decode_params}
        last_error: str = ""
        for attempt in range(1, cfg.max_attempts + 1):
            try:
                response = self._session.post(
                    cfg.endpoint, json=body, headers=self._headers(),
                    timeout=cfg.timeout)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if response.status_code == 200:
                    return self._completions_from(response, prompt, n)
                if 500 <= response.status_code < 600:
                    last_error = f"server error {response.status_code}"
                else:
                    raise BackendError(
                        f"backend rejected request for {prompt.article_id!r}: "
                        f"HTTP {response.status_code}")
            if attempt < cfg.max_attempts:
                delay = cfg.backoff_base * (2 ** (attempt - 1))
                log.warning("retrying %s after %s (attempt %d/%d, waiting %.2fs)",
                            prompt.article_id, last_error, attempt,
                            cfg.max_attempts, delay)
                time.sleep(delay)
        raise BackendError(
            f"backend unreachable for {prompt.article_id!r} after "
            f"{cfg.max_attempts} attempts: {last_error}")

    @staticmethod
    def _completions_from(response: requests.Response, prompt: PreparedPrompt,
                          n: int) -> list[RawCompletion]:
        try:
            completions = response.json()["completions"]
        except (ValueError, KeyError) as exc:
            raise BackendError(
                f"malformed backend response for {prompt.article_id!r}: {exc}"
            ) from exc
        if not isinstance(completions, list) or len(completions) < n:
            raise BackendError(
                f"backend returned {len(completions) if isinstance(completions, list) else 'no'} "
                f"completions for {prompt.article_id!r}, expected {n}")
        return [RawCompletion(prompt.article_id, i, str(completions[i]))
                for i in range(n)]


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
    """One-shot completion call; builds the backend from *config*.

    Returns exactly n completions with sample indices 0..n-1.
    """
    return make_backend(config).complete(prompt, n)
