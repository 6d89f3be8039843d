"""JSON files: the one JSON Lines reader and writer behind every loader and
every .jsonl artifact, and the writer of the indented JSON documents.

A JSON Lines file holds one JSON object per line. Writers sort keys and keep
non-ASCII text as is, so equal rows give equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator


def iter_jsonl(path: str | Path, error_cls: type[Exception],
               what: str = "file") -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of *path*.

    Raises *error_cls* for a missing file ("<what> not found"), and for a
    line that is not UTF-8, not JSON or not a JSON object, naming the line.
    """
    path = Path(path)
    if not path.exists():
        raise error_cls(f"{what} not found: {path}")
    # Undecodable bytes become lone surrogates, found line by line below.
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if lone_surrogate(line) is not None:
                raise error_cls(f"line {line_no}: not UTF-8 text")
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: also
                # an integer too long to convert
                raise error_cls(f"line {line_no}: invalid JSON "
                                f"({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(payload, dict):
                raise error_cls(f"line {line_no}: expected a JSON object")
            yield line_no, payload


def lone_surrogate(text: str) -> int | None:
    """The index of the first lone surrogate in *text* (a JSON escape such
    as \\ud800 decodes to one, and UTF-8 cannot encode it), or None. Only a
    non-ASCII text is encoded to find out."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


#: The encoder of every JSON Lines row; json.dumps would build one per row.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_ROW_ENCODER.encode(row))
            fh.write("\n")


@cache
def field_names(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass, in definition order."""
    return tuple(f.name for f in fields(cls))


def field_dict(obj) -> dict:
    """A dataclass instance's fields as a dict, without asdict's deep copy."""
    return {name: getattr(obj, name) for name in field_names(type(obj))}


def write_json(path: str | Path, payload: dict) -> None:
    """One indented JSON document with sorted keys and a final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
