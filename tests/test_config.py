"""Configuration assembly: defaults, file, environment, explicit overrides."""

import json
import re

import pytest

from osir.config import (
    AT_LEAST_ONE,
    CHOICES,
    ConfigError,
    PipelineConfig,
    load_config,
)
from osir.pipeline import config_digest


def test_defaults():
    config = load_config(env={})
    assert config.token_budget == 25_000
    assert config.samples_per_article == 3
    assert config.threshold_identifier == 0.95
    assert config.threshold_citation == 0.90
    assert config.embellishment_mode == "fraction"
    assert config.pass1_mode == "mean"
    assert config.backend_mode == "replay"


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"token_budget": 1000, "pass1_mode": "first"}))
    config = load_config(path, env={})
    assert config.token_budget == 1000
    assert config.pass1_mode == "first"
    assert config.samples_per_article == 3


def test_env_overrides_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"token_budget": 1000}))
    config = load_config(path, env={"OSIR_TOKEN_BUDGET": "2000",
                                    "OSIR_F1_FLOOR": "0.25"})
    assert config.token_budget == 2000
    assert config.f1_floor == 0.25


def test_explicit_overrides_env(tmp_path):
    config = load_config(env={"OSIR_TOKEN_BUDGET": "2000"}, token_budget=50)
    assert config.token_budget == 50


def test_none_overrides_ignored():
    config = load_config(env={}, token_budget=None)
    assert config.token_budget == 25_000


def test_unknown_file_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tokens": 5}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path, env={})


def test_bad_env_value():
    with pytest.raises(ConfigError, match="token_budget"):
        load_config(env={"OSIR_TOKEN_BUDGET": "lots"})


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json", env={})


def test_decode_params_from_env_json():
    config = load_config(env={"OSIR_DECODE_PARAMS": '{"temperature": 0.7}'})
    assert config.decode_params == {"temperature": 0.7}


def test_derived_objects():
    config = load_config(env={}, fixture_path="f.jsonl")
    thresholds = config.thresholds()
    assert thresholds.identifier == 0.95
    assert config.backend_mode == "replay"
    assert config.fixture_path == "f.jsonl"


@pytest.mark.parametrize("key", sorted(CHOICES))
def test_every_allowed_value_loads(key):
    for value in CHOICES[key]:
        assert getattr(load_config(env={}, **{key: value}), key) == value


@pytest.mark.parametrize("key, value", [
    ("embellishment_mode", "binry"),
    ("pass1_mode", "best"),
    ("group_by", "country"),
    ("backend_mode", "grpc"),
    *((key, 0) for key in AT_LEAST_ONE),
    ("max_attempts", -1),
    ("auth_token_env", None),
    pytest.param("decode_params", {"temperature": float("nan")},
                 id="decode_params-nan"),
    # A file value must have the field's JSON type; a bool is no number.
    pytest.param("auth_token_env", ["OSIR_TOKEN"], id="auth_token_env-list"),
    pytest.param("fixture_path", {"a": 1}, id="fixture_path-object"),
    ("token_budget", 2.9),
    ("token_budget", True),
    ("samples_per_article", "3"),
    pytest.param("timeout", 10**400, id="timeout-int-beyond-float"),
])
def test_bad_file_value_fails_when_loaded(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(path, env={})


def test_integer_float_value_keeps_the_config_digest(tmp_path):
    path = tmp_path / "config.json"
    digests = set()
    for text in ('{"timeout": 60}', '{"timeout": 60.0}'):
        path.write_text(text)
        digests.add(config_digest(load_config(path, env={})))
    assert len(digests) == 1


def test_bad_env_choice_fails_when_loaded():
    with pytest.raises(ConfigError, match="embellishment_mode must be one of"):
        load_config(env={"OSIR_EMBELLISHMENT_MODE": "binry"})


def test_max_in_flight_zero_rejected():
    with pytest.raises(ConfigError, match="max_in_flight must be at least 1"):
        PipelineConfig(max_in_flight=0)


@pytest.mark.parametrize("key, bad, boundary", [
    ("token_budget", 0, 1),
    ("threshold_identifier", 1.01, 1.0),
    ("threshold_identifier", -0.01, 0.0),
    ("threshold_citation", -2, 0.0),
    ("threshold_citation", float("nan"), 1.0),
    ("f1_floor", 1.5, 1.0),
    ("f1_floor", -0.5, 0.0),
    ("timeout", 0, 0.001),
    ("timeout", -1, 0.001),
    ("backoff_base", -0.1, 0.0),
])
def test_range_checked_when_loaded(tmp_path, key, bad, boundary):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: bad}))
    with pytest.raises(ConfigError, match=f"{key} must be"):
        load_config(path, env={})
    path.write_text(json.dumps({key: boundary}))
    assert getattr(load_config(path, env={}), key) == boundary


@pytest.mark.parametrize("key, text", [
    ("backoff_base", '{"backoff_base": Infinity}'),
    ("timeout", '{"timeout": 1e400}'),
    ("timeout", '{"timeout": Infinity}'),
    ("backoff_base", '{"backoff_base": 1e400}'),
])
def test_non_finite_file_value_rejected(tmp_path, key, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(path, env={})


@pytest.mark.parametrize("name, value, message", [
    pytest.param("OSIR_TIMEOUT", "inf", "timeout must be finite",
                 id="OSIR_TIMEOUT"),
    pytest.param("OSIR_BACKOFF_BASE", "inf", "backoff_base must be finite",
                 id="OSIR_BACKOFF_BASE"),
    pytest.param("OSIR_DECODE_PARAMS", '{"temperature": Infinity}',
                 "bad value for decode_params", id="OSIR_DECODE_PARAMS"),
    # Nesting too deep to decode is bad JSON, not a RecursionError.
    pytest.param("OSIR_DECODE_PARAMS", "[" * 100_000 + "]" * 100_000,
                 "bad value for decode_params",
                 id="OSIR_DECODE_PARAMS-nested-100000-deep"),
])
def test_non_finite_env_value_rejected(name, value, message):
    with pytest.raises(ConfigError, match=message) as info:
        load_config(env={name: value})
    assert len(str(info.value)) < 300  # a long value is quoted by a prefix


def test_long_rejected_value_is_quoted_by_its_prefix_and_length():
    with pytest.raises(ConfigError) as info:
        load_config(env={"OSIR_DECODE_PARAMS":
                         "[" * 100_000 + "]" * 100_000})
    assert str(info.value).startswith(
        "bad value for decode_params: '" + "[" * 79
        + "... (200000 characters) (invalid JSON (")


def test_seed_is_not_a_setting(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0}))
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        load_config(path, env={})


@pytest.mark.parametrize("content, rule, reason", [
    pytest.param(b'{"token_budget": ' + b"9" * 5000 + b"}",
                 r"invalid JSON \(.*\)", "digits",
                 id="integer-of-5000-digits"),
    pytest.param(b'{"decode_params": {"a": ' + b"[" * 100_000
                 + b"]" * 100_000 + b"}}", r"invalid JSON \(.*\)",
                 "recursion", id="arrays-nested-100000-deep"),
    pytest.param(b'{"pass1_mode": "\xff\xfe"}', "not UTF-8 text", "utf-8",
                 id="bytes-not-utf-8"),
])
def test_unreadable_file_raises_config_error(tmp_path, content, rule, reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"config file {path}: ") + f"{rule}$") as info:
        load_config(path, env={})
    assert reason in str(info.value).lower()
