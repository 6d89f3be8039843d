"""JSON files: the one JSON Lines reader and writer behind every loader and
every .jsonl artifact, and the writer of the indented JSON documents.

A JSON Lines file holds one JSON object per line. Writers sort keys and keep
non-ASCII text as is, so equal rows give equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
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
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error_cls(f"line {line_no}: not UTF-8 text") from None
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: also
                # an integer too long to convert
                raise error_cls(f"line {line_no}: invalid JSON "
                                f"({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(payload, dict):
                raise error_cls(f"line {line_no}: expected a JSON object")
            yield line_no, payload


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def field_dict(obj) -> dict:
    """A dataclass instance's fields as a dict, without asdict's deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def write_json(path: str | Path, payload: dict) -> None:
    """One indented JSON document with sorted keys and a final newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
