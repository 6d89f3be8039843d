"""Configuration assembly: defaults, file, environment, explicit overrides."""

import json

import pytest

from osir.config import (
    AT_LEAST_ONE,
    CHOICES,
    ConfigError,
    PipelineConfig,
    load_config,
)


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
])
def test_bad_file_value_fails_when_loaded(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(path, env={})


def test_bad_env_choice_fails_when_loaded():
    with pytest.raises(ConfigError, match="embellishment_mode must be one of"):
        load_config(env={"OSIR_EMBELLISHMENT_MODE": "binry"})


def test_max_in_flight_zero_rejected():
    with pytest.raises(ConfigError, match="max_in_flight must be at least 1"):
        PipelineConfig(max_in_flight=0)
