"""Article corpora: loading, token counting, and budgeted middle-truncation.

A token is a maximal run of characters that are not ``str.isspace()``.

A corpus is a UTF-8 line-delimited file, one JSON object per line with fields
``id`` (required), ``title``, ``body_markdown`` (required), ``discipline``,
``region`` and optional ``published`` (ISO-8601 date).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .jsonl import iter_jsonl, write_jsonl
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
        """grounding's results against this Article object, keyed by
        (prepared candidate, threshold, exact_score), so that a string that
        recurs across an article's samples or gold is grounded once."""
        return {}


@dataclass(frozen=True)
class PreparedPrompt:
    """Prompt text ready for a completion backend."""

    article_id: str
    text: str
    token_count: int
    truncated: bool


#: The ASCII code points that str.isspace() accepts, written out so that
#: importing scans no code points.
_ASCII_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
#: Byte -> b" " for an ASCII space, b"x" for any other byte.
_TOKEN_BYTES = b"".join(b" " if chr(i) in _ASCII_SPACES else b"x"
                        for i in range(256))


def count_tokens(text: str) -> int:
    """The number of maximal non-whitespace runs in *text*.

    An ASCII text's runs are counted on its bytes mapped to b" " and b"x",
    with no list of tokens built; any other text is split.
    """
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_TOKEN_BYTES)
    return marks.count(b" x") + marks.startswith(b"x")


def _article_from_payload(payload: dict, line_no: int) -> Article:
    art_id = payload.get("id")
    body = payload.get("body_markdown")
    if not isinstance(art_id, str) or not art_id:
        raise CorpusError(f"line {line_no}: missing or empty 'id'")
    if not isinstance(body, str) or not body:
        raise CorpusError(f"line {line_no}: missing or empty 'body_markdown'")
    for key in ("title", "region", "published"):
        if payload.get(key) is not None and not isinstance(payload[key], str):
            raise CorpusError(
                f"line {line_no}: {key!r} must be a string if present")
    for key in ("id", "title", "body_markdown", "region"):
        value = payload.get(key)
        if value and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(
                    f"line {line_no}: {key!r} holds a lone surrogate at "
                    f"index {exc.start}") from exc
    discipline = payload.get("discipline") or "Unknown"
    if discipline not in DISCIPLINES:
        discipline = "Unknown"
    try:
        return Article(
            id=art_id,
            title=payload.get("title") or "",
            body=body,
            discipline=discipline,
            region=payload.get("region") or "Unknown",
            published=payload.get("published"),
        )
    except ValueError as exc:
        raise CorpusError(f"line {line_no}: {exc}") from exc


def load_corpus(path: str | Path) -> list[Article]:
    """Load a line-delimited corpus file into an ordered list of Articles.

    Raises CorpusError naming the offending line number for malformed lines,
    and both line numbers for duplicate article ids.
    """
    articles: list[Article] = []
    seen: dict[str, int] = {}
    for line_no, payload in iter_jsonl(path, CorpusError, "corpus file"):
        article = _article_from_payload(payload, line_no)
        if article.id in seen:
            raise CorpusError(
                f"duplicate article id {article.id!r} on lines "
                f"{seen[article.id]} and {line_no}"
            )
        seen[article.id] = line_no
        articles.append(article)
    return articles


def article_to_payload(article: Article) -> dict:
    payload = {
        "id": article.id,
        "title": article.title,
        "body_markdown": article.body,
        "discipline": article.discipline,
        "region": article.region,
    }
    if article.published is not None:
        payload["published"] = article.published
    return payload


def save_corpus(articles: Iterable[Article], path: str | Path) -> None:
    """Serialize articles back to the line-delimited corpus format."""
    write_jsonl(path, map(article_to_payload, articles))


def truncate_middle(text: str, budget: int,
                    tokens: int | None = None) -> tuple[str, bool]:
    """Truncate *text* to at most *budget* tokens, cutting from the middle.

    Returns (text, truncated). When the text fits the budget it is returned
    unchanged. Otherwise the first ceil((budget - m) / 2) tokens and the last
    floor((budget - m) / 2) tokens are kept (m = the marker's own token
    count), joined by the marker on its own line, which makes exactly
    *budget* tokens. Original whitespace inside the kept prefix and suffix is
    preserved. *tokens* is count_tokens(text) when the caller already has it.
    The cuts come from str.split / str.rsplit with a maxsplit, not from a
    list of token spans.

    Odd remainders favor the prefix; the first and last tokens of an
    over-budget input always survive. Idempotent for a fixed budget.
    """
    if budget < MARKER_TOKENS + 2:
        raise ValueError(
            f"budget {budget} too small: need the marker ({MARKER_TOKENS} "
            f"tokens) plus at least one token on each side"
        )
    if (count_tokens(text) if tokens is None else tokens) <= budget:
        return text, False

    keep = budget - MARKER_TOKENS
    head, tail = (keep + 1) // 2, keep // 2
    prefix = text[: len(text) - len(text.split(None, head)[-1])].strip()
    suffix = text[len(text.rsplit(None, tail)[0]) :].strip()
    return f"{prefix}\n{TRUNCATION_MARKER}\n{suffix}", True


def build_prompt(
    article: Article,
    budget: int = DEFAULT_TOKEN_BUDGET,
) -> PreparedPrompt:
    """Assemble the instruction preamble and (possibly truncated) article body.

    The preamble's tokens count against the budget, so the body receives
    whatever remains. The body is tokenized once: a truncated body has
    exactly the body budget's tokens, and the preamble ends in a newline, so
    joining it to the body merges no tokens. Deterministic: the same article
    always yields a byte-identical prompt.
    """
    body_budget = budget - PREAMBLE_TOKENS
    body_tokens = count_tokens(article.body)
    body, truncated = truncate_middle(article.body, body_budget, body_tokens)
    return PreparedPrompt(
        article_id=article.id,
        text=f"{PROMPT_PREAMBLE}\n{body}",
        token_count=PREAMBLE_TOKENS + min(body_tokens, body_budget),
        truncated=truncated,
    )
