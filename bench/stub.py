"""A deterministic completion server for osir's HTTP backend.

It speaks osir's HTTP contract (POST {"prompt", "n", "params"} ->
{"completions": [...]}) and serves the generated completions of the article
whose ``Study reference <id>`` line the prompt carries. Every response waits a
fixed service latency. First attempts fail with 503 or 429 (with
``Retry-After: 0``) by a plan keyed by (seed, article id, attempt number), so
the faults do not depend on how client threads interleave, nor on the prompt
text osir builds; later attempts always succeed, so a client that retries
both statuses completes every article.

The plan turns each share into an exact count: the articles are ranked by
sha256 of (seed, article id), and the first ones in that order fail. Each
retried 503 costs the client its backoff sleep, so an exact count keeps the
work the same for every seed.

429s fall only among the last ``tail_429`` articles of the corpus, and 503s
only before them. A client that gives up on the first 429 and cancels what
is queued behind it (as ``pool.map`` does) then stops at nearly the same
point for every seed, after every 503 has been retried.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

_REF = re.compile(r"Study reference (a\d+)\.")


def fault_plan(seed: int, article_ids: list[str], share_503: float,
               share_429: float, tail_429: int) -> dict[str, int]:
    """Article id -> the status its first attempt gets, for the articles that
    fail: round(share_503 * n) of those before the tail answer 503 and
    round(share_429 * n) of the last *tail_429* answer 429."""
    def ranked(ids: list[str]) -> list[str]:
        return sorted(ids, key=lambda a: hashlib.sha256(
            f"{seed}:{a}".encode()).hexdigest())

    head, tail = article_ids[:-tail_429], article_ids[-tail_429:]
    plan = {a: 503 for a in ranked(head)[:round(share_503 * len(head))]}
    plan.update({a: 429 for a in ranked(tail)[:round(share_429 * len(tail))]})
    return plan


class CompletionStub:
    """Serves *completions_path* (article_id, sample_index, text rows)."""

    def __init__(self, completions_path: str | Path, seed: int,
                 latency_s: float, share_503: float, share_429: float,
                 tail_429: int):
        self.latency_s = latency_s
        self._texts: dict[str, dict[int, str]] = {}
        with Path(completions_path).open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                self._texts.setdefault(row["article_id"], {})[
                    row["sample_index"]] = row["text"]
        self.plan = fault_plan(seed, list(self._texts), share_503, share_429,
                               tail_429)
        self._lock = threading.Lock()
        self.reset()
        handler = type("Handler", (_Handler,), {"stub": self})
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="completion-stub", daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/complete"

    def start(self) -> "CompletionStub":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def reset(self) -> None:
        """Forget attempt numbers, counts and served texts (between runs)."""
        with self._lock:
            self.attempts: Counter[str] = Counter()
            self.status_counts: Counter[int] = Counter()
            self.served: dict[str, list[str]] = {}

    def respond(self, body: bytes) -> tuple[int, dict, dict[str, str]]:
        """(status, JSON payload, extra headers) for one request body."""
        try:
            request = json.loads(body)
            prompt, n = request["prompt"], int(request["n"])
            article_id = _REF.search(prompt).group(1)
            texts = self._texts[article_id]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            with self._lock:
                self.status_counts[400] += 1
            return 400, {"error": f"bad request: {exc!r}"}, {}
        with self._lock:
            self.attempts[article_id] += 1
            attempt = self.attempts[article_id]
        status = self.plan.get(article_id, 200) if attempt == 1 else 200
        time.sleep(self.latency_s)
        with self._lock:
            self.status_counts[status] += 1
            if status == 200:
                self.served[article_id] = [texts[i] for i in range(n)]
        if status == 200:
            return 200, {"completions": self.served[article_id]}, {}
        if status == 429:
            return 429, {"error": "rate limited"}, {"Retry-After": "0"}
        return status, {"error": "unavailable"}, {}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without TCP_NODELAY the header and body writes of each response meet the
    # client's delayed ACK and every request stalls ~40 ms.
    disable_nagle_algorithm = True
    stub: CompletionStub

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", 0))
        status, payload, headers = self.stub.respond(self.rfile.read(length))
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass
