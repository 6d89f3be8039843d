"""Article corpora: loading, token counting, and budgeted middle-truncation.

A corpus is a UTF-8 line-delimited file, one JSON object per line with fields
``id`` (required), ``title``, ``body_markdown`` (required), ``discipline``,
``region`` and optional ``published`` (ISO-8601 date).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

from .jsonl import iter_jsonl, write_jsonl
from .text import normalize_text, token_spans, whitespace_token_count

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


class CorpusError(ValueError):
    """Raised for unreadable, malformed, or duplicate-id corpus input."""


@dataclass(frozen=True)
class Article:
    """One publication: identifier, markdown body, and grouping metadata."""

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


@dataclass(frozen=True)
class TokenCounter:
    """A named, deterministic pure function from string to token count."""

    name: str
    count: Callable[[str], int]


#: Default counter: number of maximal non-whitespace runs.
WHITESPACE_COUNTER = TokenCounter(name="whitespace", count=whitespace_token_count)


@dataclass(frozen=True)
class PreparedPrompt:
    """Prompt text ready for a completion backend."""

    article_id: str
    text: str
    token_count: int
    truncated: bool


def count_tokens(text: str, counter: TokenCounter = WHITESPACE_COUNTER) -> int:
    return counter.count(text)


def _article_from_payload(payload: dict, line_no: int) -> Article:
    art_id = payload.get("id")
    body = payload.get("body_markdown")
    if not isinstance(art_id, str) or not art_id:
        raise CorpusError(f"line {line_no}: missing or empty 'id'")
    if not isinstance(body, str) or not body:
        raise CorpusError(f"line {line_no}: missing or empty 'body_markdown'")
    discipline = payload.get("discipline") or "Unknown"
    if discipline not in DISCIPLINES:
        discipline = "Unknown"
    region = payload.get("region") or "Unknown"
    published = payload.get("published")
    if published is not None and not isinstance(published, str):
        raise CorpusError(f"line {line_no}: 'published' must be a string if present")
    try:
        return Article(
            id=art_id,
            title=payload.get("title") or "",
            body=body,
            discipline=discipline,
            region=str(region),
            published=published,
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


def truncate_middle(
    text: str,
    budget: int,
    counter: TokenCounter = WHITESPACE_COUNTER,
) -> tuple[str, bool]:
    """Truncate *text* to at most *budget* tokens, cutting from the middle.

    Returns (text, truncated). When the text fits the budget it is returned
    unchanged. Otherwise the first ceil((budget - m) / 2) tokens and the last
    floor((budget - m) / 2) tokens are kept (m = the marker's own token cost
    under *counter*), joined by the marker on its own line. Original
    whitespace inside the kept prefix and suffix is preserved.

    Odd remainders favor the prefix; the first and last tokens of an
    over-budget input always survive. Idempotent for fixed (budget, counter).
    """
    marker_cost = counter.count(TRUNCATION_MARKER)
    if budget < marker_cost + 2:
        raise ValueError(
            f"budget {budget} too small: need the marker ({marker_cost} tokens) "
            f"plus at least one token on each side"
        )
    if counter.count(text) <= budget:
        return text, False

    spans = token_spans(text)
    n = len(spans)
    keep = budget - marker_cost
    prefix_n = (keep + 1) // 2
    suffix_n = keep // 2

    def assemble(p: int, s: int) -> str:
        prefix = text[spans[0][0] : spans[p - 1][1]]
        suffix = text[spans[n - s][0] : spans[n - 1][1]]
        return f"{prefix}\n{TRUNCATION_MARKER}\n{suffix}"

    out = assemble(prefix_n, suffix_n)
    # Whitespace counting makes this exact; a custom counter may count the
    # reassembled text differently, so shrink until the budget holds.
    while counter.count(out) > budget:
        if suffix_n > 1 and suffix_n >= prefix_n:
            suffix_n -= 1
        elif prefix_n > 1:
            prefix_n -= 1
        else:
            raise ValueError(
                f"budget {budget} too small under counter {counter.name!r}"
            )
        out = assemble(prefix_n, suffix_n)
    return out, True


def build_prompt(
    article: Article,
    budget: int = DEFAULT_TOKEN_BUDGET,
    counter: TokenCounter = WHITESPACE_COUNTER,
) -> PreparedPrompt:
    """Assemble the instruction preamble and (possibly truncated) article body.

    The preamble's tokens count against the budget, so the body receives
    whatever remains. Deterministic: the same article always yields a
    byte-identical prompt.
    """
    preamble_cost = counter.count(PROMPT_PREAMBLE)
    body_budget = budget - preamble_cost
    body, truncated = truncate_middle(article.body, body_budget, counter)
    prompt_text = f"{PROMPT_PREAMBLE}\n{body}"
    return PreparedPrompt(
        article_id=article.id,
        text=prompt_text,
        token_count=counter.count(prompt_text),
        truncated=truncated,
    )
