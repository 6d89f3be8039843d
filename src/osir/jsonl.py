"""File access: every input file is opened, decoded and de-duplicated here,
and every artifact is written here; only pipeline.file_digest reads bytes.

A JSON Lines file holds one JSON object per line. Writers sort keys and keep
non-ASCII text as is, so equal rows give equal bytes. Each writer encodes its
artifact to UTF-8 once, hashes the bytes as it writes them and returns their
sha256, so no artifact is read back to be hashed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import stat
from dataclasses import fields
from functools import cache
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator


def open_input(path: str | Path, error_cls: type[Exception],
               what: str) -> IO[str]:
    """*path* opened as text, its undecodable bytes kept as lone surrogates.
    Raises *error_cls*: "<what> not found", "<what> is not a file" (not a
    regular file), or for any other OSError."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            return open(path, encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise error_cls(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error_cls(f"{what} {path}: {exc.strerror or exc}") from exc
    raise error_cls(f"{what} is not a file: {path}")


def iter_jsonl(path: str | Path, error_cls: type[Exception],
               what: str = "file") -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of *path*.

    Raises *error_cls* as open_input does, and for a line that is not UTF-8,
    not JSON or not a JSON object, naming the line.
    """
    with open_input(path, error_cls, what) as fh:
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


def read_keyed(path: str | Path, error_cls: type[Exception], what: str,
               row: Callable[[dict, int], tuple]) -> dict:
    """Key -> value of every line of *path*, in file order; *row* gives a
    line's (key, value) from its object and number. Raises *error_cls* as
    iter_jsonl does, and for a key on two lines, naming both."""
    out, lines = {}, {}
    for line_no, payload in iter_jsonl(path, error_cls, what):
        key, value = row(payload, line_no)
        first = lines.setdefault(key, line_no)
        if first != line_no:
            raise error_cls(f"duplicate key {key!r} on lines {first} and "
                            f"{line_no} of the {what}")
        out[key] = value
    return out


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

#: The pieces (rows or lines) _write joins before it encodes, hashes and
#: writes them.
WRITE_BATCH = 256


def _write(path: str | Path, pieces: Iterable[str]) -> str:
    """Write *pieces* to *path* as UTF-8, WRITE_BATCH at a time, and return
    the sha256 of the bytes written. A lone surrogate raises
    UnicodeEncodeError."""
    digest, pieces = hashlib.sha256(), iter(pieces)
    with Path(path).open("wb") as fh:
        while batch := list(islice(pieces, WRITE_BATCH)):
            data = "".join(batch).encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> str:
    """One row per line; returns the sha256 of the file."""
    return _write(path, (f"{_ROW_ENCODER.encode(row)}\n" for row in rows))


def write_csv(path: str | Path, header: Iterable, rows: Iterable) -> str:
    """A CSV table: *header*, then *rows*, each line ended by "\\n"; returns
    the sha256 of the file."""
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write(path, (table.getvalue(),))


@cache
def field_names(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass, in definition order."""
    return tuple(f.name for f in fields(cls))


def field_dict(obj) -> dict:
    """A dataclass instance's fields as a dict, without asdict's deep copy."""
    return {name: getattr(obj, name) for name in field_names(type(obj))}


def write_json(path: str | Path, payload: dict) -> str:
    """One indented JSON document with sorted keys and a final newline;
    returns the sha256 of the file."""
    return _write(path, (json.dumps(payload, sort_keys=True, indent=2,
                                    ensure_ascii=False), "\n"))
