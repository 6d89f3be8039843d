"""Structured extraction records: schema, completion parsing, format reward.

A completion is expected to carry one JSON object with two boolean judgments,
eight evidence lists, and two optional free-text descriptions. Parsing is
total: malformed completions become a FormatFailure outcome, never an
exception. Field kinds are checked strictly (no "true" -> True coercion),
because the binary format reward gates on them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import Iterable

from .identifiers import canonicalize_identifier
from .jsonl import field_dict, iter_jsonl, write_jsonl


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


@dataclass(frozen=True)
class GoldAnnotation:
    """Curator-labeled ground truth for one article, same shape as a record."""

    article_id: str
    record: ExtractionRecord


@dataclass(frozen=True)
class Violation:
    field: str
    rule: str


def _first_json_object(text: str) -> dict | None:
    """The first parseable JSON object embedded in *text*, if any.

    Tolerates surrounding prose and markdown code fences: scanning starts at
    each '{' and takes the first position where a JSON value decodes. A value
    nested too deeply to decode counts as one that does not decode.
    """
    decoder = json.JSONDecoder()
    pos = text.find("{")
    while pos != -1:
        try:
            value, _ = decoder.raw_decode(text, pos)
        except (json.JSONDecodeError, RecursionError):
            pos = text.find("{", pos + 1)
            continue
        return value if isinstance(value, dict) else None
    return None


def _record_from_payload(payload: dict) -> tuple[ExtractionRecord | None, str | None]:
    kwargs: dict = {}
    for name in BOOLEAN_FIELDS:
        if name not in payload:
            return None, f"missing field {name}"
        value = payload[name]
        if not isinstance(value, bool):
            return None, f"field {name} must be a boolean, got {type(value).__name__}"
        kwargs[name] = value
    for name in LIST_FIELDS:
        if name not in payload:
            return None, f"missing field {name}"
        value = payload[name]
        if not isinstance(value, list):
            return None, f"field {name} must be a list, got {type(value).__name__}"
        for item in value:
            if not isinstance(item, str):
                return None, (
                    f"field {name} must contain only strings, "
                    f"got {type(item).__name__}"
                )
        kwargs[name] = tuple(value)
    for name in DESCRIPTION_FIELDS:
        value = payload.get(name)
        if value is not None and not isinstance(value, str):
            return None, f"field {name} must be a string if present"
        kwargs[name] = value
    return ExtractionRecord(**kwargs), None


def parse_extraction(raw: RawCompletion) -> ParseOutcome:
    """Parse a completion into an ExtractionRecord, or report why it failed.

    Total and deterministic: any text yields an outcome. Unknown payload
    fields are ignored; the two description fields are optional.
    """
    payload = _first_json_object(raw.text)
    if payload is None:
        return ParseOutcome(status="format_failure",
                            failure_reason="no structured payload found")
    record, reason = _record_from_payload(payload)
    if record is None:
        return ParseOutcome(status="format_failure", failure_reason=reason)
    return ParseOutcome(status="parsed", record=record)


def format_reward(outcome: ParseOutcome) -> int:
    """Binary format gate: 1 iff the completion parsed into a valid record."""
    return 1 if outcome.parsed else 0


def validate_record(record: ExtractionRecord) -> list[Violation]:
    """Check record invariants beyond field kinds.

    Returns one Violation per broken rule: evidence strings must be non-empty
    after trimming, and unique within each list once canonicalized.
    """
    violations: list[Violation] = []
    for name, values in record.lists().items():
        kind = field_kind(name)
        canonical_seen: dict[str, str] = {}
        flagged: set[str] = set()
        for value in values:
            if not value.strip():
                violations.append(Violation(name, "empty string after trimming"))
                continue
            canon = canonicalize_identifier(kind, value)
            if canon in canonical_seen and canon not in flagged:
                violations.append(Violation(
                    name,
                    f"duplicate canonical value {canon!r} "
                    f"(from {canonical_seen[canon]!r} and {value!r})",
                ))
                flagged.add(canon)
            else:
                canonical_seen.setdefault(canon, value)
    return violations


def record_to_payload(record: ExtractionRecord) -> dict:
    """Record as a plain dict with the wire field names."""
    payload: dict = {}
    for f in dc_fields(record):
        value = getattr(record, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def serialize_record(record: ExtractionRecord) -> str:
    return json.dumps(record_to_payload(record), sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Line-delimited file interfaces


class CompletionsFileError(ValueError):
    pass


class GoldFileError(ValueError):
    pass


def _article_id(payload: dict, line_no: int, error_cls: type[Exception]) -> str:
    article_id = payload.get("article_id")
    if not isinstance(article_id, str) or not article_id:
        raise error_cls(f"line {line_no}: missing or empty article_id")
    return article_id


def _sample_key(payload: dict, line_no: int,
                error_cls: type[Exception]) -> tuple[str, int]:
    article_id = _article_id(payload, line_no, error_cls)
    sample_index = payload.get("sample_index")
    if type(sample_index) is not int or sample_index < 0:
        raise error_cls(
            f"line {line_no}: sample_index must be a non-negative integer")
    return article_id, sample_index


def _checked_record(payload: dict, line_no: int,
                    error_cls: type[Exception]) -> ExtractionRecord:
    record, reason = _record_from_payload(payload)
    if record is None:
        raise error_cls(f"line {line_no}: {reason}")
    return record


def read_completions(
    path: str | Path,
    error_cls: type[Exception] = CompletionsFileError,
    what: str = "completions file",
) -> dict[tuple[str, int], RawCompletion]:
    """Completions keyed by (article_id, sample_index), in file order.

    Shared by the completions file and the replay fixture: one
    {article_id, sample_index, text} per line, each key at most once.
    """
    out: dict[tuple[str, int], RawCompletion] = {}
    for line_no, payload in iter_jsonl(path, error_cls, what):
        key = _sample_key(payload, line_no, error_cls)
        text = payload.get("text")
        if not isinstance(text, str):
            raise error_cls(f"line {line_no}: text must be a string")
        if key in out:
            raise error_cls(f"line {line_no}: duplicate sample {key}")
        out[key] = RawCompletion(*key, text)
    return out


def load_completions(path: str | Path) -> list[RawCompletion]:
    """Load a completions file: one {article_id, sample_index, text} per line."""
    return list(read_completions(path).values())


def save_completions(completions: Iterable[RawCompletion], path: str | Path) -> None:
    write_jsonl(path, map(field_dict, completions))


def save_records(
    records: Iterable[tuple[str, int, ExtractionRecord]],
    path: str | Path,
) -> None:
    """Write parsed records keyed by (article_id, sample_index)."""
    write_jsonl(path, ({"article_id": article_id, "sample_index": sample_index,
                        **record_to_payload(record)}
                       for article_id, sample_index, record in records))


def load_records(path: str | Path) -> list[tuple[str, int, ExtractionRecord]]:
    return [(*_sample_key(payload, line_no, CompletionsFileError),
             _checked_record(payload, line_no, CompletionsFileError))
            for line_no, payload in iter_jsonl(path, CompletionsFileError,
                                               "records file")]


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Load gold annotations: record fields plus article_id, one per line."""
    out: list[GoldAnnotation] = []
    seen: dict[str, int] = {}
    for line_no, payload in iter_jsonl(path, GoldFileError, "gold file"):
        article_id = _article_id(payload, line_no, GoldFileError)
        if article_id in seen:
            raise GoldFileError(
                f"duplicate gold annotation for {article_id!r} on lines "
                f"{seen[article_id]} and {line_no}")
        seen[article_id] = line_no
        out.append(GoldAnnotation(
            article_id, _checked_record(payload, line_no, GoldFileError)))
    return out


def save_gold(annotations: Iterable[GoldAnnotation], path: str | Path) -> None:
    write_jsonl(path, ({"article_id": ann.article_id,
                        **record_to_payload(ann.record)}
                       for ann in annotations))
