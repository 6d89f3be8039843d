"""File access: every input file is opened, decoded and de-duplicated here,
and every artifact is written here; only file_digest reads raw bytes.

json_object decodes every JSON text from outside osir: a line of a JSON
Lines file, the config file, a dict setting from the environment and an
HTTP response body. read_keyed is the one reader of a JSON Lines file, one
object per line. Writers sort keys and keep non-ASCII text as is, so equal
rows give equal bytes. Each writer encodes its artifact to UTF-8 once,
hashes the bytes as it writes them and returns their sha256, so no artifact
is read back to be hashed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import stat
from dataclasses import fields
from functools import cache, partial
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable


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


#: The bytes file_digest reads at a time. Each read allocates a whole chunk,
#: even for a file of a few bytes, so the chunk is kept small.
DIGEST_CHUNK = 64 * 1024


def file_digest(path: str | Path) -> str:
    """The sha256 of an input file, read in DIGEST_CHUNK pieces so that a
    large corpus is never held whole. Outputs are hashed as they are
    written."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(partial(fh.read, DIGEST_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def json_object(text: str) -> dict:
    """The object *text* holds. ValueError names the rule it breaks: "not
    UTF-8 text", "invalid JSON (<reason>)" (nesting too deep or too long an
    int included) or "expected a JSON object"."""
    if lone_surrogate(text) is not None:
        raise ValueError("not UTF-8 text")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    return payload


def read_keyed(path: str | Path, error_cls: type[Exception], what: str,
               row: Callable[[dict], tuple]) -> dict:
    """Key -> value of every non-blank line of *path*, in file order; *row*
    gives a line's (key, value) from its object. Raises *error_cls* as
    open_input does, as "line <n>: <reason>" for a ValueError of a line rule
    or of *row* (kept as its cause), and for a key on two lines."""
    out, lines = {}, {}
    with open_input(path, error_cls, what) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                key, value = row(json_object(line))
            except ValueError as exc:
                raise error_cls(f"line {line_no}: {exc}") from exc
            first = lines.setdefault(key, line_no)
            if first != line_no:
                raise error_cls(f"duplicate key {key!r} on lines {first} "
                                f"and {line_no} of the {what}")
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


def check_utf8(name: str, text: str) -> None:
    """Raise ValueError "<name> holds a lone surrogate at index <i>" if
    *text* holds one."""
    at = lone_surrogate(text)
    if at is not None:
        raise ValueError(f"{name} holds a lone surrogate at index {at}")


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
