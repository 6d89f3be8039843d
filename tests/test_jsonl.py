"""The shared JSONL reader and writer, and the totality of every loader."""

import hashlib
import json
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from osir.backend import ReplayBackend, ReplayFixtureError
from osir.cli import main
from osir.config import FIELD_TYPES, ConfigError, load_config
from osir.corpus import CorpusError, load_corpus, save_corpus
from osir.extraction import (
    BOOLEAN_FIELDS,
    DESCRIPTION_FIELDS,
    LIST_FIELDS,
    SCORED_FIELDS,
    CompletionsFileError,
    GoldFileError,
    RawCompletion,
    load_completions,
    load_gold,
    load_records,
    parse_extraction,
    save_completions,
    save_gold,
    save_records,
)
from osir.jsonl import (
    WRITE_BATCH,
    read_keyed,
    write_csv,
    write_json,
    write_jsonl,
)


from conftest import build_replay_bundle


class LineError(ValueError):
    pass


def _objects(path, what="file"):
    """The objects of *path*'s lines, read by read_keyed with a row that
    keys each by its position."""
    position = count()
    return list(read_keyed(path, LineError, what,
                           lambda payload: (next(position), payload)).values())


def _reject_b(payload):
    if "b" in payload:
        raise ValueError("b is rejected")
    return payload["a"], payload


class TestIterJsonl:
    """read_keyed's line rules, read with rows that keep each object."""

    def test_missing_file_names_what(self, tmp_path):
        with pytest.raises(LineError, match="widget file not found"):
            _objects(tmp_path / "nope.jsonl", "widget file")

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
        assert _objects(path) == [{"a": 1}, {"b": 2}]
        with pytest.raises(LineError, match="^line 4: b is rejected$"):
            read_keyed(path, LineError, "file", _reject_b)

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
            _objects(path)

    @pytest.mark.parametrize("line", [b"\xff\xfe", b'{"a": "\xe9"}',
                                      b'{"a": "x\xed\xa0\x80"}'],
                             ids=["bom16", "latin1", "surrogate"])
    def test_line_not_utf8_names_its_number(self, tmp_path, line):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(LineError, match="line 2: not UTF-8 text"):
            _objects(path)

    def test_nesting_too_deep_is_invalid_json(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(LineError, match="line 2: invalid JSON"):
            _objects(path)

    def test_crlf_lines_load(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes('{"a": "é"}\r\n\r\n{"b": 2}\r\n'.encode("utf-8"))
        assert _objects(path) == [{"a": "é"}, {"b": 2}]
        with pytest.raises(LineError, match="^line 3: b is rejected$"):
            read_keyed(path, LineError, "file", _reject_b)

    def test_writer_sorts_keys_and_keeps_unicode(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"b": "é", "a": (1, 2)}, {}])
        assert path.read_text(encoding="utf-8") == \
            '{"a": [1, 2], "b": "é"}\n{}\n'


def write_jsonl_lines(tmp_path, lines):
    path = tmp_path / "x.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestReadKeyed:
    @staticmethod
    def row(payload):
        return payload["k"], payload.get("v")

    def test_values_in_file_order(self, tmp_path):
        path = write_jsonl_lines(tmp_path, ['{"k": "b", "v": 1}', "",
                                            '{"k": "a"}'])
        values = read_keyed(path, LineError, "widget file", self.row)
        assert list(values.items()) == [("b", 1), ("a", None)]

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = write_jsonl_lines(tmp_path, ['{"k": "a"}', '{"k": "b"}',
                                            '{"k": "a", "v": 2}'])
        with pytest.raises(LineError, match="duplicate key 'a' on lines 1 "
                                            "and 3 of the widget file"):
            read_keyed(path, LineError, "widget file", self.row)

    def test_row_errors_pass_through(self, tmp_path):
        path = write_jsonl_lines(tmp_path, ['{"v": 1}'])
        with pytest.raises(KeyError):
            read_keyed(path, LineError, "widget file", self.row)

    def test_row_value_error_names_its_line(self, tmp_path):
        path = write_jsonl_lines(tmp_path, ['{"k": "a"}', "", '{"k": 2}'])
        problem = ValueError("k must be a string")

        def row(payload):
            if not isinstance(payload["k"], str):
                raise problem
            return payload["k"], None

        with pytest.raises(LineError) as info:
            read_keyed(path, LineError, "widget file", row)
        assert str(info.value) == "line 3: k must be a string"
        assert info.value.__cause__ is problem


def test_csv_writer_quotes_and_ends_lines_with_newline(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b"), [(1, 'say "hi", é'), ("x\ny", 0.5)])
    assert path.read_bytes() == ('a,b\n1,"say ""hi"", é"\n"x\ny",0.5\n'
                                 .encode("utf-8"))


#: Each writer with arguments that make a file of more than three batches of
#: rows or lines, so that its bytes are hashed in several pieces.
_WRITES = {
    "jsonl": lambda path, value: write_jsonl(
        path, [{"i": i, "s": value} for i in range(3 * WRITE_BATCH + 1)]),
    "json": lambda path, value: write_json(
        path, {"rows": [value] * (3 * WRITE_BATCH + 1)}),
    "csv": lambda path, value: write_csv(
        path, ("i", "s"), [(i, value) for i in range(3 * WRITE_BATCH + 1)]),
}


@pytest.mark.parametrize("kind", sorted(_WRITES))
class TestWritersHashWhatTheyWrite:
    def test_returns_the_sha256_of_the_file(self, tmp_path, kind):
        path = tmp_path / f"x.{kind}"
        digest = _WRITES[kind](path, "é, 中")
        assert len(path.read_bytes().splitlines()) > 3 * WRITE_BATCH
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_empty_or_short_file(self, tmp_path, kind):
        path = tmp_path / f"x.{kind}"
        writes = {"jsonl": lambda: write_jsonl(path, []),
                  "json": lambda: write_json(path, {}),
                  "csv": lambda: write_csv(path, (), [])}
        digest = writes[kind]()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_lone_surrogate_raises(self, tmp_path, kind):
        with pytest.raises(UnicodeEncodeError):
            _WRITES[kind](tmp_path / f"x.{kind}", "bad \ud800 text")


# ---------------------------------------------------------------------------
# Property: every loader is total on any bytes

_KEYS = ("id", "title", "body_markdown", "discipline", "region", "published",
         "article_id", "sample_index", "text", *SCORED_FIELDS,
         *DESCRIPTION_FIELDS)

# Strings that may hold lone surrogates, which a line holds as JSON escapes.
_chars = st.characters() | st.sampled_from("\ud800\udfff")
_strings = st.text(_chars)
_scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63)
            | st.floats(allow_nan=False, allow_infinity=False) | _strings)
_json = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(_chars, max_size=6), children,
                                        max_size=4)),
    max_leaves=10)
# Values that get past the first checks, so deeper ones run too.
_plausible = st.sampled_from(
    ["A1", "", 0, 1, -1, True, False, [], ["GSE1"], ["GSE1", 2],
     "2020-01-31", "2020-13-45", "Life Sciences", "some text", "A1\ud800",
     ["GSE1\udfff"], "some \udfff text"])


def _with_escape(value, escape):
    """*value* with *escape* appended to it, or to each string it lists."""
    if isinstance(value, list):
        return [_with_escape(item, escape) for item in value]
    return value + escape if isinstance(value, str) else value


@st.composite
def _near_rows(draw):
    """A row of _LINES (below) that loads, with a lone surrogate appended to
    one of its values and perhaps one value changed to any other."""
    row = dict(draw(st.sampled_from([entry[3] for entry in _LINES.values()])))
    key = draw(st.sampled_from(sorted(row)))
    row[key] = _with_escape(row[key], draw(st.sampled_from("\ud800\udfff")))
    for key in draw(st.lists(st.sampled_from(sorted(row)), max_size=1)):
        row[key] = draw(_plausible | _json)
    return row


# Objects built from the readers' own field names.
_rows = st.dictionaries(st.sampled_from(_KEYS), _plausible | _json,
                        max_size=len(_KEYS))


def _load_config(path):
    return load_config(path, env={})


_LOADERS = (
    (load_corpus, CorpusError),
    (load_completions, CompletionsFileError),
    (load_records, CompletionsFileError),
    (load_gold, GoldFileError),
    (ReplayBackend, ReplayFixtureError),
    (_load_config, ConfigError),
)

#: Loader -> the writer of what it loads. A replay fixture is read as a
#: completions file is, and a config is not written.
_SAVES = {load_corpus: save_corpus, load_completions: save_completions,
          load_records: save_records, load_gold: save_gold}


def _encode(value) -> bytes:
    """*value* as a line of JSON text; a lone surrogate in it becomes its
    JSON escape, \\ud800 say."""
    return json.dumps(value, ensure_ascii=False).encode("utf-8",
                                                        "backslashreplace")


_json_lines = (_rows | _json).map(_encode)


def _splice(line: bytes, raw: bytes, at: int) -> bytes:
    at %= len(line) + 1
    return line[:at] + raw + line[at:]


# Lines of JSON text, rows that nearly load, lines with raw bytes spliced
# in, and arbitrary bytes.
_lines = st.one_of(
    _json_lines,
    _near_rows().map(_encode),
    st.builds(_splice, _json_lines, st.binary(min_size=1, max_size=4),
              st.integers(0, 10**6)),
    st.binary())

# Config files: JSON objects keyed by PipelineConfig fields, with values of
# any JSON type (NaN and infinities included), and arbitrary bytes.
_configs = st.one_of(
    st.dictionaries(st.sampled_from(sorted(FIELD_TYPES)),
                    _plausible | _json | st.floats(), max_size=6).map(
        lambda value: json.dumps(value).encode("utf-8")),
    st.binary())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_lines, min_size=1, max_size=3), config=_configs)
def test_loaders_load_or_raise_their_error(tmp_path, lines, config):
    path = tmp_path / "line.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for load, error in _LOADERS:
        try:
            loaded = load(path)
        except error:
            continue
        if load in _SAVES:  # what loads is written back, row for row
            saved = tmp_path / "saved.jsonl"
            _SAVES[load](loaded, saved)
            assert load(saved) == loaded
    path.write_bytes(config)
    try:
        _load_config(path)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# Every loader on paths that are not a readable file

def _path_of_kind(tmp_path, kind):
    path = tmp_path / "input.jsonl"
    if kind == "directory":
        path.mkdir()
    elif kind == "empty file":
        path.write_bytes(b"")
    elif kind == "dangling symlink":
        path.symlink_to(tmp_path / "nowhere.jsonl")
    elif kind == "symlink loop":
        path.symlink_to(path)
    return path


@pytest.mark.parametrize("kind, message", [
    ("missing", "not found"),
    ("directory", "is not a file"),
    ("empty file", None),
    ("dangling symlink", "not found"),
    ("symlink loop", "symbolic links"),
])
@pytest.mark.parametrize("load, error", _LOADERS,
                         ids=[load.__name__ for load, _ in _LOADERS])
def test_path_kinds_raise_only_the_declared_error(tmp_path, kind, message,
                                                  load, error):
    path = _path_of_kind(tmp_path, kind)
    if message is None and load is not _load_config:
        load(path)  # an empty file holds no rows
        return
    with pytest.raises(error) as info:
        load(path)
    assert str(path) in str(info.value)
    assert (message or "invalid JSON") in str(info.value)


# ---------------------------------------------------------------------------
# What loads, saves: no string a loader keeps holds a lone surrogate, whether
# it comes from raw bytes or from a JSON escape such as \ud800

_RECORD = {**dict.fromkeys(BOOLEAN_FIELDS, True),
           **{name: ["GSE1"] for name in LIST_FIELDS},
           **dict.fromkeys(DESCRIPTION_FIELDS, "reads")}

#: Kind of line -> (loader, its error, writer, a line that loads, the name
#: of its key field).
_LINES = {
    "corpus": (load_corpus, CorpusError, save_corpus,
               {"id": "A1", "title": "T", "body_markdown": "Body.",
                "discipline": "Life Sciences", "region": "Europe",
                "published": "2020-01-31"}, "id"),
    "completions": (load_completions, CompletionsFileError, save_completions,
                    {"article_id": "A1", "sample_index": 0, "text": "T"},
                    "article_id"),
    "records": (load_records, CompletionsFileError, save_records,
                {"article_id": "A1", "sample_index": 0, **_RECORD},
                "article_id"),
    "gold": (load_gold, GoldFileError, save_gold,
             {"article_id": "A1", **_RECORD}, "article_id"),
}


@pytest.mark.parametrize("escape", ["\ud800", "\udfff"],
                         ids=["d800", "dfff"])
@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, entry in _LINES.items()
    for field, value in entry[3].items() if isinstance(value, (str, list))])
def test_what_loads_saves(tmp_path, kind, field, escape):
    load, error, save, line, key = _LINES[kind]
    value = line[field]
    bad = {**line, field: ([value[0] + escape] if isinstance(value, list)
                           else value + escape)}
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({**line, key: "A0"}) + "\n" + json.dumps(bad)
                    + "\n", encoding="ascii")
    try:
        loaded = load(path)
    except error as exc:
        assert str(exc).startswith("line 2: ")
        return
    save(loaded, tmp_path / "out.jsonl")


def test_completion_with_a_lone_surrogate_is_a_format_failure():
    text = json.dumps({**_RECORD, "new_data_citations": ["Doe \ud800"]})
    outcome = parse_extraction(RawCompletion("A1", 0, text))
    assert outcome.failure_reason == ("field new_data_citations holds a lone "
                                      "surrogate at index 4")


def _replace_first_line(path, **changes):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **changes})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCliRefusesLoneSurrogates:
    @pytest.fixture
    def bundle(self, tmp_path):
        return build_replay_bundle(tmp_path / "in", n_articles=2)

    def test_run_parses_such_a_completion_as_a_format_failure(self, bundle,
                                                             tmp_path):
        _replace_first_line(bundle["fixture"], text=json.dumps(
            {**_RECORD, "new_data_citations": ["Doe \ud800"]}))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--corpus", str(bundle["corpus"]), "--fixture",
            str(bundle["fixture"]), "--samples", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text("utf-8").splitlines()]
        assert {"article_id": "art-000", "sample_index": 0} not in [
            {k: r[k] for k in ("article_id", "sample_index")}
            for r in records]

    def test_run_with_such_gold_fails_at_ingest(self, bundle, tmp_path):
        _replace_first_line(bundle["gold"], reuse_data_accessions=[
            "GSE1\ud800"])
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "run", "--corpus", str(bundle["corpus"]), "--gold",
            str(bundle["gold"]), "--fixture", str(bundle["fixture"]),
            "--samples", "3", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: stage 'ingest': line 1: field reuse_data_accessions "
            "holds a lone surrogate at index 4\n")
        assert not (out / "prompts.jsonl").exists()

    def test_filter_gold_names_the_line(self, bundle, tmp_path):
        _replace_first_line(bundle["gold"], reuse_data_accessions=[
            "GSE1\ud800"])
        result = CliRunner().invoke(main, [
            "filter-gold", "--corpus", str(bundle["corpus"]), "--gold",
            str(bundle["gold"]), "--out-kept", str(tmp_path / "kept.jsonl"),
            "--out-removed", str(tmp_path / "removed.csv")])
        assert result.exit_code == 1
        assert result.output == ("Error: line 1: field reuse_data_accessions "
                                 "holds a lone surrogate at index 4\n")

    def test_aggregate_names_the_line(self, bundle, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(
            {"article_id": "art-000", "sample_index": 0, **_RECORD,
             "reuse_data_accessions": ["GSE1\ud800"]}) + "\n",
            encoding="ascii")
        result = CliRunner().invoke(main, [
            "aggregate", "--records", str(records), "--corpus",
            str(bundle["corpus"]), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == ("Error: line 1: field reuse_data_accessions "
                                 "holds a lone surrogate at index 4\n")


_ENDPOINT = "http://localhost:1/a\ud800"


@pytest.mark.parametrize("source", ["config file", "environment"])
def test_config_string_with_a_lone_surrogate_fails_to_load(tmp_path, source):
    path, env = None, {}
    if source == "config file":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"endpoint": _ENDPOINT}), encoding="ascii")
    else:
        env = {"OSIR_ENDPOINT": _ENDPOINT}
    with pytest.raises(ConfigError) as info:
        load_config(path, env=env)
    assert str(info.value) == \
        f"bad value for endpoint: {_ENDPOINT!r} (not UTF-8 text)"


def test_run_with_such_a_config_creates_no_out(tmp_path):
    bundle = build_replay_bundle(tmp_path / "in", n_articles=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"endpoint": _ENDPOINT}), encoding="ascii")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "run", "--corpus", str(bundle["corpus"]), "--backend", "http",
        "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert "bad value for endpoint" in result.output
    assert "(not UTF-8 text)" in result.output
    assert not out.exists()
