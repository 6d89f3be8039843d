"""Completion parsing, the format gate, and the record files."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osir.extraction import (
    BOOLEAN_FIELDS,
    DESCRIPTION_FIELDS,
    LIST_FIELDS,
    CompletionsFileError,
    ExtractionRecord,
    GoldFileError,
    ParseOutcome,
    RawCompletion,
    format_reward,
    load_completions,
    load_gold,
    load_records,
    parse_extraction,
    save_gold,
    save_records,
    serialize_record,
)
from osir.jsonl import field_dict
from osir.extraction import GoldAnnotation
from osir.pipeline import verdict_stage

from conftest import completion_text, make_article, make_record, write_jsonl


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
        payload = field_dict(make_record())
        payload["new_data_generated"] = "yes"
        outcome = outcome_for(json.dumps(payload))
        assert not outcome.parsed
        assert "new_data_generated" in outcome.failure_reason

    def test_missing_list_field(self):
        payload = field_dict(make_record())
        del payload["reuse_data_urls"]
        outcome = outcome_for(json.dumps(payload))
        assert not outcome.parsed
        assert "reuse_data_urls" in outcome.failure_reason

    def test_non_string_list_element(self):
        payload = field_dict(make_record())
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
        payload = field_dict(make_record())
        payload["confidence"] = 0.9
        assert outcome_for(json.dumps(payload)).parsed

    def test_missing_descriptions_allowed(self):
        payload = field_dict(make_record())
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

    def test_records_duplicate_sample_names_both_lines(self, tmp_path):
        # Before records were keyed, the second row silently won the vote.
        rows = [{"article_id": "a", "sample_index": 0,
                 **field_dict(make_record(new_data_generated=generated))}
                for generated in (True, False)]
        path = write_jsonl(tmp_path / "records.jsonl", rows)
        with pytest.raises(CompletionsFileError,
                           match=r"duplicate key \('a', 0\) on lines 1 "
                                 r"and 2 of the records file"):
            load_records(path)

    def test_records_keep_file_order(self, tmp_path):
        rows = [{"article_id": a, "sample_index": i,
                 **field_dict(make_record())} for a, i in
                [("b", 1), ("a", 0), ("b", 0)]]
        path = write_jsonl(tmp_path / "records.jsonl", rows)
        assert [(a, i) for a, i, _ in load_records(path)] == \
            [("b", 1), ("a", 0), ("b", 0)]


#: Article ids, non-ASCII ones included.
RECORD_ARTICLES = ("a", "b", "é", "記事")

extraction_records = st.builds(ExtractionRecord, **{
    **{name: st.booleans() for name in BOOLEAN_FIELDS},
    **{name: st.lists(st.text(max_size=6), max_size=3).map(tuple)
       for name in LIST_FIELDS},
    **{name: st.none() | st.text(max_size=8) for name in DESCRIPTION_FIELDS},
})

parse_outcomes = (
    extraction_records.map(lambda r: ParseOutcome("parsed", r))
    | st.builds(ParseOutcome, st.just("format_failure"),
                failure_reason=st.text(max_size=8)))

parsed_samples = st.lists(
    st.tuples(st.sampled_from(RECORD_ARTICLES), st.integers(0, 3),
              parse_outcomes),
    unique_by=lambda sample: sample[:2], max_size=12)


class TestRecordsRoundTrip:
    """A records file holds the samples that parsed and gives them back, so
    that aggregating it reaches the verdicts of the samples it came from."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parsed_samples)
    def test_load_gives_back_the_parsed_samples(self, tmp_path, samples):
        path = tmp_path / "records.jsonl"
        save_records(samples, path)
        loaded = load_records(path)
        parsed = [sample for sample in samples if sample[2].parsed]
        assert loaded == parsed
        articles = {a: make_article(a, "body") for a in RECORD_ARTICLES}
        assert verdict_stage(loaded, articles) == \
            verdict_stage(samples, articles)


def _lines(tmp_path, *lines: str):
    """A file whose second line is each of *lines* in turn, after one valid
    line, so that an error must name line 2."""
    path = tmp_path / "input.jsonl"
    valid = json.dumps({"article_id": "A0", "sample_index": 0, "text": "ok",
                        **field_dict(make_record())})
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
               **field_dict(make_record()), **fields}
        for path in _lines(tmp_path, json.dumps(row)):
            with pytest.raises(CompletionsFileError, match="line 2"):
                load_records(path)
