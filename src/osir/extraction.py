"""Structured extraction records: schema, completion parsing, format reward.

A completion is expected to carry one JSON object with two boolean judgments,
eight evidence lists, and two optional free-text descriptions. Parsing is
total: malformed completions become a FormatFailure outcome, never an
exception. Field kinds are checked strictly (no "true" -> True coercion),
because the binary format reward gates on them, and no string may hold a lone
surrogate. The same rules load records and gold lines, naming the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import Iterable

from .jsonl import check_utf8, field_dict, read_keyed, write_jsonl


@dataclass(frozen=True)
class ExtractionRecord:
    """The structured output extracted from one completion."""

    new_data_generated: bool
    reuse_data: bool
    new_data_citations: tuple[str, ...] = ()
    new_data_accessions: tuple[str, ...] = ()
    new_data_dois: tuple[str, ...] = ()
    new_data_urls: tuple[str, ...] = ()
    reuse_data_citations: tuple[str, ...] = ()
    reuse_data_accessions: tuple[str, ...] = ()
    reuse_data_dois: tuple[str, ...] = ()
    reuse_data_urls: tuple[str, ...] = ()
    new_data_description: str | None = None
    reuse_data_description: str | None = None

    def lists(self) -> dict[str, tuple[str, ...]]:
        return {name: getattr(self, name) for name in LIST_FIELDS}


def _fields_of_type(annotation: str) -> tuple[str, ...]:
    return tuple(f.name for f in dc_fields(ExtractionRecord)
                 if f.type == annotation)


BOOLEAN_FIELDS = _fields_of_type("bool")
LIST_FIELDS = _fields_of_type("tuple[str, ...]")
DESCRIPTION_FIELDS = _fields_of_type("str | None")

#: The ten fields that carry scored judgments (booleans + evidence lists).
SCORED_FIELDS = BOOLEAN_FIELDS + LIST_FIELDS

#: Evidence list -> identifier kind, the last word of its name in the
#: singular: new_data_dois -> "doi".
_FIELD_KIND = {name: name.rsplit("_", 1)[1].removesuffix("s")
               for name in LIST_FIELDS}


def field_kind(name: str) -> str:
    """Identifier kind ('doi' | 'url' | 'accession' | 'citation') of a list field."""
    return _FIELD_KIND[name]


@dataclass(frozen=True)
class RawCompletion:
    """Verbatim model output for one (article, sample) pair."""

    article_id: str
    sample_index: int
    text: str


@dataclass(frozen=True)
class ParseOutcome:
    """Result of parsing a completion: a record, or a reason it failed."""

    status: str  # "parsed" | "format_failure"
    record: ExtractionRecord | None = None
    failure_reason: str | None = None

    @property
    def parsed(self) -> bool:
        return self.status == "parsed"


#: One sample's outcome: (article_id, sample_index, outcome).
Parsed = tuple[str, int, ParseOutcome]


@dataclass(frozen=True)
class GoldAnnotation:
    """Curator-labeled ground truth for one article, same shape as a record."""

    article_id: str
    record: ExtractionRecord


#: The one decoder behind every completion's parse.
_DECODER = json.JSONDecoder()


def _first_json_object(text: str) -> dict | None:
    """The first parseable JSON object embedded in *text*, if any.

    Tolerates surrounding prose and markdown code fences: scanning starts at
    each '{' and takes the first position where a JSON value decodes. A value
    nested too deeply to decode counts as one that does not decode.
    """
    pos = text.find("{")
    while pos != -1:
        try:
            value, _ = _DECODER.raw_decode(text, pos)
        except (json.JSONDecodeError, RecursionError):
            pos = text.find("{", pos + 1)
            continue
        return value if isinstance(value, dict) else None
    return None


def _record_from_payload(payload: dict) -> ExtractionRecord:
    """The record *payload* holds; ValueError gives why it holds none."""
    kwargs: dict = {}
    for name in BOOLEAN_FIELDS:
        if name not in payload:
            raise ValueError(f"missing field {name}")
        value = payload[name]
        if not isinstance(value, bool):
            raise ValueError(
                f"field {name} must be a boolean, got {type(value).__name__}")
        kwargs[name] = value
    for name in LIST_FIELDS:
        if name not in payload:
            raise ValueError(f"missing field {name}")
        value = payload[name]
        if not isinstance(value, list):
            raise ValueError(
                f"field {name} must be a list, got {type(value).__name__}")
        for item in value:
            if not isinstance(item, str):
                raise ValueError(f"field {name} must contain only strings, "
                                 f"got {type(item).__name__}")
            check_utf8(f"field {name}", item)
        kwargs[name] = tuple(value)
    for name in DESCRIPTION_FIELDS:
        value = payload.get(name)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"field {name} must be a string if present")
        check_utf8(f"field {name}", value or "")
        kwargs[name] = value
    return ExtractionRecord(**kwargs)


def parse_extraction(raw: RawCompletion) -> ParseOutcome:
    """Parse a completion into an ExtractionRecord, or report why it failed.

    Total and deterministic: any text yields an outcome. Unknown payload
    fields are ignored; the two description fields are optional.
    """
    payload = _first_json_object(raw.text)
    if payload is None:
        return ParseOutcome(status="format_failure",
                            failure_reason="no structured payload found")
    try:
        return ParseOutcome(status="parsed",
                            record=_record_from_payload(payload))
    except ValueError as exc:
        return ParseOutcome(status="format_failure", failure_reason=str(exc))


def format_reward(outcome: ParseOutcome) -> int:
    """Binary format gate: 1 iff the completion parsed into a valid record."""
    return 1 if outcome.parsed else 0


def serialize_record(record: ExtractionRecord) -> str:
    return json.dumps(field_dict(record), sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Line-delimited file interfaces


class CompletionsFileError(ValueError):
    pass


class GoldFileError(ValueError):
    pass


def _article_id(payload: dict) -> str:
    article_id = payload.get("article_id")
    if not isinstance(article_id, str) or not article_id:
        raise ValueError("missing or empty article_id")
    check_utf8("article_id", article_id)
    return article_id


def _sample_key(payload: dict) -> tuple[str, int]:
    article_id = _article_id(payload)
    sample_index = payload.get("sample_index")
    if type(sample_index) is not int or sample_index < 0:
        raise ValueError("sample_index must be a non-negative integer")
    return article_id, sample_index


def _completion_row(payload: dict) -> tuple:
    key = _sample_key(payload)
    text = payload.get("text")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    check_utf8("text", text)
    return key, RawCompletion(*key, text)


def read_completions(path: str | Path,
                     error_cls: type[Exception] = CompletionsFileError,
                     what: str = "completions file",
                     ) -> dict[tuple[str, int], RawCompletion]:
    """Completions keyed by (article_id, sample_index), in file order, from
    a completions file or replay fixture: one {article_id, sample_index,
    text} per line, each key at most once."""
    return read_keyed(path, error_cls, what, _completion_row)


def load_completions(path: str | Path) -> list[RawCompletion]:
    """Load a completions file: one {article_id, sample_index, text} per line."""
    return list(read_completions(path).values())


def save_completions(completions: Iterable[RawCompletion],
                     path: str | Path) -> str:
    return write_jsonl(path, map(field_dict, completions))


def save_records(samples: Iterable[Parsed], path: str | Path) -> str:
    """One row (records.jsonl) per sample that parsed, in the order given:
    its key and its record's fields."""
    return write_jsonl(path, ({"article_id": article_id,
                               "sample_index": sample_index,
                               **field_dict(outcome.record)}
                              for article_id, sample_index, outcome in samples
                              if outcome.parsed))


def _record_row(payload: dict) -> tuple:
    key = _sample_key(payload)
    return key, (*key, ParseOutcome("parsed", _record_from_payload(payload)))


def load_records(path: str | Path) -> list[Parsed]:
    """The samples of a records file, each as the parsed outcome it was
    saved from."""
    return list(read_keyed(path, CompletionsFileError, "records file",
                           _record_row).values())


def _gold_row(payload: dict) -> tuple:
    gold = GoldAnnotation(_article_id(payload), _record_from_payload(payload))
    return gold.article_id, gold


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Load gold annotations: record fields plus article_id, one per line."""
    return list(read_keyed(path, GoldFileError, "gold file",
                           _gold_row).values())


def save_gold(annotations: Iterable[GoldAnnotation], path: str | Path) -> str:
    return write_jsonl(path, ({"article_id": ann.article_id,
                               **field_dict(ann.record)}
                              for ann in annotations))
