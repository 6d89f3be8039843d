"""The shared JSONL reader and writer, and the totality of every loader."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osir.backend import ReplayBackend, ReplayFixtureError
from osir.corpus import CorpusError, load_corpus
from osir.extraction import (
    DESCRIPTION_FIELDS,
    SCORED_FIELDS,
    CompletionsFileError,
    GoldFileError,
    load_completions,
    load_gold,
    load_records,
)
from osir.jsonl import iter_jsonl, write_jsonl


class LineError(ValueError):
    pass


class TestIterJsonl:
    def test_missing_file_names_what(self, tmp_path):
        with pytest.raises(LineError, match="widget file not found"):
            list(iter_jsonl(tmp_path / "nope.jsonl", LineError, "widget file"))

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path, LineError)) == [(1, {"a": 1}),
                                                     (4, {"b": 2})]

    @pytest.mark.parametrize("line, reason", [
        ("{not json", "invalid JSON"),
        ('{"a": ' + "1" * 5000 + "}", "invalid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ("null", "expected a JSON object"),
    ])
    def test_bad_line_names_its_number(self, tmp_path, line, reason):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(LineError, match=f"line 2: {reason}"):
            list(iter_jsonl(path, LineError))

    @pytest.mark.parametrize("line", [b"\xff\xfe", b'{"a": "\xe9"}',
                                      b'{"a": "x\xed\xa0\x80"}'],
                             ids=["bom16", "latin1", "surrogate"])
    def test_line_not_utf8_names_its_number(self, tmp_path, line):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(LineError, match="line 2: not UTF-8 text"):
            list(iter_jsonl(path, LineError))

    def test_nesting_too_deep_is_invalid_json(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(LineError, match="line 2: invalid JSON"):
            list(iter_jsonl(path, LineError))

    def test_crlf_lines_load(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes('{"a": "é"}\r\n\r\n{"b": 2}\r\n'.encode("utf-8"))
        assert list(iter_jsonl(path, LineError)) == [(1, {"a": "é"}),
                                                     (3, {"b": 2})]

    def test_writer_sorts_keys_and_keeps_unicode(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"b": "é", "a": (1, 2)}, {}])
        assert path.read_text(encoding="utf-8") == \
            '{"a": [1, 2], "b": "é"}\n{}\n'


# ---------------------------------------------------------------------------
# Property: every loader is total on any bytes

_KEYS = ("id", "title", "body_markdown", "discipline", "region", "published",
         "article_id", "sample_index", "text", *SCORED_FIELDS,
         *DESCRIPTION_FIELDS)

_scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63)
            | st.floats(allow_nan=False, allow_infinity=False) | st.text())
_json = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=10)
# Values that get past the first checks, so deeper ones run too.
_plausible = st.sampled_from(
    ["A1", "", 0, 1, -1, True, False, [], ["GSE1"], ["GSE1", 2],
     "2020-01-31", "2020-13-45", "Life Sciences", "some text"])
# Objects built from the readers' own field names.
_rows = st.dictionaries(st.sampled_from(_KEYS), _plausible | _json,
                        max_size=len(_KEYS))

_LOADERS = (
    (load_corpus, CorpusError),
    (load_completions, CompletionsFileError),
    (load_records, CompletionsFileError),
    (load_gold, GoldFileError),
    (ReplayBackend, ReplayFixtureError),
)


_json_lines = (_rows | _json).map(
    lambda value: json.dumps(value, ensure_ascii=False).encode("utf-8"))


def _splice(line: bytes, raw: bytes, at: int) -> bytes:
    at %= len(line) + 1
    return line[:at] + raw + line[at:]


# Lines of JSON text, some with raw bytes spliced in, and arbitrary bytes.
_lines = st.one_of(
    _json_lines,
    st.builds(_splice, _json_lines, st.binary(min_size=1, max_size=4),
              st.integers(0, 10**6)),
    st.binary())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_lines, min_size=1, max_size=3))
def test_loaders_load_or_raise_their_error(tmp_path, lines):
    path = tmp_path / "line.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for load, error in _LOADERS:
        try:
            load(path)
        except error:
            pass
