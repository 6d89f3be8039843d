"""Completion parsing, the format gate, and record validation."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osir.extraction import (
    CompletionsFileError,
    GoldFileError,
    RawCompletion,
    format_reward,
    load_completions,
    load_gold,
    load_records,
    parse_extraction,
    record_to_payload,
    save_gold,
    serialize_record,
    validate_record,
)
from osir.extraction import GoldAnnotation

from conftest import completion_text, make_record, write_jsonl


def outcome_for(text: str):
    return parse_extraction(RawCompletion("A1", 0, text))


class TestParseExtraction:
    def test_well_formed_payload(self):
        record = make_record(new_data_generated=True,
                             new_data_dois=("10.1/x",))
        outcome = outcome_for(completion_text(record))
        assert outcome.parsed
        assert outcome.record == record

    def test_pure_prose(self):
        outcome = outcome_for("This article clearly reuses data from GEO.")
        assert not outcome.parsed
        assert outcome.failure_reason == "no structured payload found"

    def test_string_boolean_rejected(self):
        payload = record_to_payload(make_record())
        payload["new_data_generated"] = "yes"
        outcome = outcome_for(json.dumps(payload))
        assert not outcome.parsed
        assert "new_data_generated" in outcome.failure_reason

    def test_missing_list_field(self):
        payload = record_to_payload(make_record())
        del payload["reuse_data_urls"]
        outcome = outcome_for(json.dumps(payload))
        assert not outcome.parsed
        assert "reuse_data_urls" in outcome.failure_reason

    def test_non_string_list_element(self):
        payload = record_to_payload(make_record())
        payload["new_data_dois"] = ["10.1/x", 42]
        outcome = outcome_for(json.dumps(payload))
        assert not outcome.parsed
        assert "new_data_dois" in outcome.failure_reason

    def test_surrounding_prose_and_fences(self):
        record = make_record(reuse_data=True)
        text = completion_text(record, prose="Reasoning: the methods section "
                               "references GSE123.", fenced=True)
        outcome = outcome_for(text)
        assert outcome.parsed
        assert outcome.record == record

    def test_unknown_fields_ignored(self):
        payload = record_to_payload(make_record())
        payload["confidence"] = 0.9
        assert outcome_for(json.dumps(payload)).parsed

    def test_missing_descriptions_allowed(self):
        payload = record_to_payload(make_record())
        del payload["new_data_description"]
        del payload["reuse_data_description"]
        assert outcome_for(json.dumps(payload)).parsed

    def test_total_on_arbitrary_text(self):
        for text in ["", "{", "{{{", "{}", "[1, 2]", "{'single': 'quotes'}"]:
            outcome = outcome_for(text)
            assert not outcome.parsed

    @pytest.mark.parametrize("text", [
        '{"x": ' + "[" * 1000,
        '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["unclosed", "closed"])
    def test_nesting_too_deep_is_a_format_failure(self, text):
        outcome = outcome_for(text)
        assert not outcome.parsed
        assert outcome.failure_reason == "no structured payload found"

    @given(text=st.text() | st.text(alphabet='{}[]":, 0tf', max_size=2000))
    def test_any_text_yields_an_outcome(self, text):
        outcome = outcome_for(text)
        assert outcome.parsed == (outcome.record is not None)

    def test_round_trip(self):
        record = make_record(
            new_data_generated=True, reuse_data=True,
            new_data_citations=("Smith et al. 2020",),
            reuse_data_accessions=("GSE12345", "PRJNA99"),
            new_data_description="collected survey responses",
        )
        outcome = outcome_for(serialize_record(record))
        assert outcome.parsed
        assert outcome.record == record

    def test_deterministic(self):
        text = completion_text(make_record(), prose="noise { not json }")
        assert parse_extraction(RawCompletion("A", 0, text)) == \
            parse_extraction(RawCompletion("A", 0, text))


class TestFormatReward:
    def test_parsed_is_one(self):
        assert format_reward(outcome_for(completion_text(make_record()))) == 1

    def test_failure_is_zero(self):
        assert format_reward(outcome_for("no payload here")) == 0

    def test_empty_lists_are_valid(self):
        record = make_record()
        assert all(not values for values in record.lists().values())
        assert format_reward(outcome_for(completion_text(record))) == 1


class TestValidateRecord:
    def test_clean_record(self):
        assert validate_record(make_record()) == []

    def test_empty_string_in_list(self):
        violations = validate_record(make_record(new_data_dois=("",)))
        assert len(violations) == 1
        assert violations[0].field == "new_data_dois"

    def test_duplicate_canonical_doi(self):
        record = make_record(reuse_data_dois=(
            "10.1371/journal.pone.0230416",
            "https://doi.org/10.1371/JOURNAL.PONE.0230416",
        ))
        violations = validate_record(record)
        assert len(violations) == 1
        assert violations[0].field == "reuse_data_dois"
        assert "duplicate" in violations[0].rule


class TestFileInterfaces:
    def test_completions_round_trip(self, tmp_path):
        rows = [
            {"article_id": "A1", "sample_index": 0, "text": "one"},
            {"article_id": "A1", "sample_index": 1, "text": "two"},
        ]
        path = write_jsonl(tmp_path / "c.jsonl", rows)
        completions = load_completions(path)
        assert [(c.article_id, c.sample_index, c.text) for c in completions] \
            == [("A1", 0, "one"), ("A1", 1, "two")]

    def test_duplicate_sample_rejected(self, tmp_path):
        rows = [
            {"article_id": "A1", "sample_index": 0, "text": "one"},
            {"article_id": "A1", "sample_index": 0, "text": "again"},
        ]
        path = write_jsonl(tmp_path / "c.jsonl", rows)
        with pytest.raises(Exception, match="duplicate"):
            load_completions(path)

    def test_gold_round_trip(self, tmp_path):
        gold = [GoldAnnotation("A1", make_record(reuse_data=True)),
                GoldAnnotation("A2", make_record())]
        path = tmp_path / "gold.jsonl"
        save_gold(gold, path)
        assert load_gold(path) == gold

    def test_gold_duplicate_article(self, tmp_path):
        gold = [GoldAnnotation("A1", make_record())] * 2
        path = tmp_path / "gold.jsonl"
        save_gold(gold, path)
        with pytest.raises(GoldFileError, match="A1"):
            load_gold(path)


def _lines(tmp_path, *lines: str):
    """A file whose second line is each of *lines* in turn, after one valid
    line, so that an error must name line 2."""
    path = tmp_path / "input.jsonl"
    valid = json.dumps({"article_id": "A0", "sample_index": 0, "text": "ok",
                        **record_to_payload(make_record())})
    for line in lines:
        path.write_text(f"{valid}\n{line}\n", encoding="utf-8")
        yield path


class TestTotalLoaders:
    """Bad lines raise the loader's own error with the line number; none
    leaks AttributeError, TypeError or JSONDecodeError."""

    @pytest.mark.parametrize("line", ["5", "null", '"s"', "[1]"])
    def test_gold_non_object_line(self, tmp_path, line):
        for path in _lines(tmp_path, line):
            with pytest.raises(GoldFileError, match="line 2"):
                load_gold(path)

    @pytest.mark.parametrize("line", ["5", "null", "{not json"])
    def test_records_bad_line(self, tmp_path, line):
        for path in _lines(tmp_path, line):
            with pytest.raises(CompletionsFileError, match="line 2"):
                load_records(path)

    @pytest.mark.parametrize("fields", [
        {"text": 123},
        {"sample_index": True},
        {"article_id": ["A"]},
        {"article_id": ""},
        {"sample_index": -1},
    ])
    def test_completion_field_types(self, tmp_path, fields):
        row = {"article_id": "A1", "sample_index": 0, "text": "t", **fields}
        for path in _lines(tmp_path, json.dumps(row)):
            with pytest.raises(CompletionsFileError, match="line 2"):
                load_completions(path)

    @pytest.mark.parametrize("fields", [
        {"sample_index": "0"},
        {"article_id": 7},
    ])
    def test_record_key_types(self, tmp_path, fields):
        row = {"article_id": "A1", "sample_index": 0,
               **record_to_payload(make_record()), **fields}
        for path in _lines(tmp_path, json.dumps(row)):
            with pytest.raises(CompletionsFileError, match="line 2"):
                load_records(path)
