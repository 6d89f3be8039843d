"""Article corpora: loading, token counting, and budgeted middle-truncation.

A token is a maximal run of characters that are not ``str.isspace()``.

A corpus is a UTF-8 line-delimited file, one JSON object per line with fields
``id`` (required), ``title``, ``body_markdown`` (required), ``discipline``,
``region`` and optional ``published`` (ISO-8601 date).
"""

from __future__ import annotations

import datetime as _dt
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .jsonl import check_utf8, read_keyed, write_jsonl
from .text import normalize_text

TRUNCATION_MARKER = "[TRUNCATED]"
DEFAULT_TOKEN_BUDGET = 25_000

DISCIPLINES = (
    "Health Sciences",
    "Life Sciences",
    "Physical Sciences",
    "Social Sciences",
    "Unknown",
)

PROMPT_TEMPLATE_VERSION = "1"

# Fixed, versioned instruction preamble. Its tokens count against the budget.
PROMPT_PREAMBLE = """\
You are given the full markdown text of a research article. Determine whether
the article reports generating new research data and whether it reuses
existing research data, and extract the supporting evidence.

Respond with a single JSON object containing exactly these fields:
  new_data_generated (boolean), reuse_data (boolean),
  new_data_citations, new_data_accessions, new_data_dois, new_data_urls
  (lists of strings copied verbatim from the article),
  reuse_data_citations, reuse_data_accessions, reuse_data_dois, reuse_data_urls
  (lists of strings copied verbatim from the article),
  new_data_description, reuse_data_description (short free-text summaries).

Only list evidence strings that appear in the article text. Use empty lists
when there is no evidence for a category.

Article:
"""
PREAMBLE_TOKENS = len(PROMPT_PREAMBLE.split())
MARKER_TOKENS = len(TRUNCATION_MARKER.split())


class CorpusError(ValueError):
    """Raised for unreadable, malformed, or duplicate-id corpus input."""


@dataclass(frozen=True)
class Article:
    """One publication: identifier, markdown body, and grouping metadata.

    An Article object also holds what grounding computes from its body (the
    normalized body and the grounding memo), so that work is done once per
    loaded article and is dropped with it.
    """

    id: str
    title: str
    body: str
    discipline: str = "Unknown"
    region: str = "Unknown"
    published: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("article id must be non-empty")
        if not self.body:
            raise ValueError(f"article {self.id!r}: body must be non-empty")
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"article {self.id!r}: unknown discipline {self.discipline!r}"
            )
        if self.published is not None:
            try:
                _dt.date.fromisoformat(self.published)
            except ValueError as exc:
                raise ValueError(
                    f"article {self.id!r}: published is not an ISO-8601 date: "
                    f"{self.published!r}"
                ) from exc

    @cached_property
    def normalized_body(self) -> str:
        """normalize_text(body), computed once per Article object, so that
        grounding all of an article's completions normalizes its body once."""
        return normalize_text(self.body)

    @cached_property
    def grounding_memo(self) -> dict:
        """grounding's decisions against this Article object, keyed by
        (prepared candidate, threshold), so that a string that recurs across
        an article's samples and gold is grounded once."""
        return {}


@dataclass(frozen=True)
class PreparedPrompt:
    """A prompt for a completion backend, held as a view of its article.

    body is the article body itself, not a copy. cuts is None when the whole
    body fits the budget; otherwise it is the (prefix end, suffix start)
    offsets of a middle-truncated body, which keeps body[:prefix end] and
    body[suffix start:], each stripped, around the truncation marker. The
    prompt text is not stored: text builds it each time it is read, so it
    lives only while its reader holds it.
    """

    article_id: str
    body: str
    token_count: int
    cuts: tuple[int, int] | None = None

    @property
    def truncated(self) -> bool:
        return self.cuts is not None

    @property
    def text(self) -> str:
        """The preamble and the (possibly truncated) body, built anew."""
        body = self.body if self.cuts is None else _cut(self.body, self.cuts)
        return f"{PROMPT_PREAMBLE}\n{body}"


#: The ASCII code points that str.isspace() accepts, written out so that
#: importing scans no code points.
_ASCII_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
#: Byte -> b" " for an ASCII space, b"x" for any other byte.
_TOKEN_BYTES = b"".join(b" " if chr(i) in _ASCII_SPACES else b"x"
                        for i in range(256))
#: The bytes per chunk whose token starts are counted to find a cut.
_CUT_CHUNK = 8 * 1024


def count_tokens(text: str) -> int:
    """The number of maximal non-whitespace runs in *text*: _measure's
    count, with a budget no text of len(text) characters can exceed. An
    ASCII text's count is that of b" x" pairs in its leading-space marks."""
    return _measure(text, len(text) + MARKER_TOKENS + 2)[0]


def _token_start(marks: bytes, totals: list[int], k: int) -> int:
    """The text offset of the k-th token's first character (k from 1).
    marks are the leading-space marks of _measure, and totals[i] is the
    number of tokens that start before chunk i."""
    chunk = bisect_left(totals, k) - 1  # totals[chunk] < k <= totals[chunk+1]
    at = chunk * _CUT_CHUNK - 1
    for _ in range(k - totals[chunk]):
        at = marks.find(b" x", at + 1)
    return at


def _measure(text: str, budget: int) -> tuple[int, tuple[int, int] | None]:
    """(count_tokens(text), cuts): cuts is None when the text fits *budget*,
    else the offsets len(text) - len(text.split(None, head)[-1]) and
    len(text.rsplit(None, tail)[0]) of truncate_middle's head and tail.

    An ASCII text is measured on its marks: the bytes of " " + text mapped
    to b" " for a space and b"x" for any other byte, so that a token starts
    at text offset t exactly where marks[t:t+2] == b" x", the first token
    included. The token starts of each _CUT_CHUNK characters are counted,
    bisect picks the chunk of a cut's token, and find steps to it within
    that chunk; no list of tokens is built. Any other text is split.
    """
    if budget < MARKER_TOKENS + 2:
        raise ValueError(
            f"budget {budget} too small: need the marker ({MARKER_TOKENS} "
            f"tokens) plus at least one token on each side"
        )
    keep = budget - MARKER_TOKENS  # the tokens a cut keeps around the marker
    head, tail = (keep + 1) // 2, keep // 2
    if not text.isascii():
        tokens = len(text.split())
        if tokens <= budget:
            return tokens, None
        return tokens, (len(text) - len(text.split(None, head)[-1]),
                        len(text.rsplit(None, tail)[0]))
    marks = (" " + text).encode("ascii").translate(_TOKEN_BYTES)
    totals = [0]
    for lo in range(0, len(text), _CUT_CHUNK):
        totals.append(totals[-1] + marks.count(b" x", lo, lo + _CUT_CHUNK + 1))
    tokens = totals[-1]
    if tokens <= budget:
        return tokens, None
    suffix = _token_start(marks, totals, tokens - tail + 1)
    return tokens, (_token_start(marks, totals, head + 1),
                    marks.rfind(b"x", 0, suffix + 1))


def _cut(text: str, cuts: tuple[int, int]) -> str:
    """*text* cut at *cuts*: its stripped prefix and suffix joined by the
    marker on its own line."""
    prefix, suffix = text[:cuts[0]].strip(), text[cuts[1]:].strip()
    return f"{prefix}\n{TRUNCATION_MARKER}\n{suffix}"


def _article_row(payload: dict) -> tuple[str, Article]:
    art_id = payload.get("id")
    body = payload.get("body_markdown")
    if not isinstance(art_id, str) or not art_id:
        raise ValueError("missing or empty 'id'")
    if not isinstance(body, str) or not body:
        raise ValueError("missing or empty 'body_markdown'")
    for key in ("title", "region", "published"):
        if payload.get(key) is not None and not isinstance(payload[key], str):
            raise ValueError(f"{key!r} must be a string if present")
    for key in ("id", "title", "body_markdown", "region"):
        check_utf8(repr(key), payload.get(key) or "")
    discipline = payload.get("discipline")
    return art_id, Article(
        id=art_id, title=payload.get("title") or "", body=body,
        discipline=discipline if discipline in DISCIPLINES else "Unknown",
        region=payload.get("region") or "Unknown",
        published=payload.get("published"))


def load_corpus(path: str | Path) -> list[Article]:
    """Load a line-delimited corpus file into an ordered list of Articles,
    keyed by id: a bad line or a repeated id raises CorpusError."""
    return list(read_keyed(path, CorpusError, "corpus file",
                           _article_row).values())


def save_corpus(articles: Iterable[Article], path: str | Path) -> str:
    """Serialize articles back to the line-delimited corpus format."""
    return write_jsonl(path, ({"id": a.id, "title": a.title,
                               "body_markdown": a.body,
                               "discipline": a.discipline, "region": a.region,
                               **({} if a.published is None
                                  else {"published": a.published})}
                              for a in articles))


def truncate_middle(text: str, budget: int) -> tuple[str, bool]:
    """Truncate *text* to at most *budget* tokens, cutting from the middle.

    Returns (text, truncated). When the text fits the budget it is returned
    unchanged. Otherwise the first ceil((budget - m) / 2) tokens and the last
    floor((budget - m) / 2) tokens are kept (m = the marker's own token
    count), joined by the marker on its own line, which makes exactly
    *budget* tokens. Original whitespace inside the kept prefix and suffix is
    preserved. The cuts are those of build_prompt (see _measure).

    Odd remainders favor the prefix; the first and last tokens of an
    over-budget input always survive. Idempotent for a fixed budget.
    """
    cuts = _measure(text, budget)[1]
    return (text, False) if cuts is None else (_cut(text, cuts), True)


def build_prompt(
    article: Article,
    budget: int = DEFAULT_TOKEN_BUDGET,
) -> PreparedPrompt:
    """The prompt of *article*: the instruction preamble and its body,
    middle-truncated as truncate_middle does when the body is over budget.

    The preamble's tokens count against the budget, so the body receives
    whatever remains. The body is tokenized once, and the prompt holds the
    article's body and its cut offsets, not a copy: its text is built when
    it is read. A truncated body has exactly the body budget's tokens, and
    the preamble ends in a newline, so joining it to the body merges no
    tokens. Deterministic: the same article always yields a byte-identical
    prompt.
    """
    body_budget = budget - PREAMBLE_TOKENS
    body_tokens, cuts = _measure(article.body, body_budget)
    return PreparedPrompt(
        article_id=article.id,
        body=article.body,
        token_count=PREAMBLE_TOKENS + min(body_tokens, body_budget),
        cuts=cuts,
    )
