"""Pipeline configuration: the one declaration and check of every setting.

Each setting is a PipelineConfig field, declared once with its default;
config file keys, OSIR_* environment variables and the CLI options named
after a field all derive from it. Precedence (lowest to highest): built-in
defaults, JSON config file, environment variables, explicit CLI flags.
PipelineConfig checks every value when it is built, so a bad value raises
ConfigError from load_config before any stage runs. jsonl.json_object, which
decodes every outside JSON text, decodes the config file and a dict setting
from the environment. Only the settings of one backend mode (an endpoint, a
fixture) are checked by make_backend, because the stages that build no
backend do not need them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backend import BACKEND_MODES
from .corpus import DEFAULT_TOKEN_BUDGET
from .evaluation import DEFAULT_F1_FLOOR, PASS1_MODES
from .grounding import DEFAULT_THRESHOLDS, EMBELLISHMENT_MODES, Thresholds
from .indicators import GROUPINGS
from .jsonl import json_object, lone_surrogate, open_input

ENV_PREFIX = "OSIR_"

#: Field -> the values it may take.
CHOICES = {"embellishment_mode": EMBELLISHMENT_MODES, "pass1_mode": PASS1_MODES,
           "group_by": GROUPINGS, "backend_mode": BACKEND_MODES}
#: Fields that must be at least 1.
AT_LEAST_ONE = ("token_budget", "samples_per_article", "max_in_flight",
                "max_attempts")
#: Fields that must lie in [0, 1].
UNIT_INTERVAL = ("threshold_identifier", "threshold_citation", "f1_floor")
#: Numeric field -> (test its value passes, the rule in words). NaN fails
#: every test.
BOUNDS = {
    **dict.fromkeys(AT_LEAST_ONE, (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(UNIT_INTERVAL, (lambda v: 0 <= v <= 1, "in [0, 1]")),
    "timeout": (lambda v: 0 < v < float("inf"), "finite and greater than 0"),
    "backoff_base": (lambda v: 0 <= v < float("inf"), "finite and at least 0"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    token_budget: int = DEFAULT_TOKEN_BUDGET
    samples_per_article: int = 3
    threshold_identifier: float = DEFAULT_THRESHOLDS.identifier
    threshold_citation: float = DEFAULT_THRESHOLDS.citation
    embellishment_mode: str = "fraction"
    pass1_mode: str = "mean"
    f1_floor: float = DEFAULT_F1_FLOOR
    group_by: str = "discipline"
    backend_mode: str = "replay"
    endpoint: str | None = None
    auth_token_env: str = "OSIR_TOKEN"
    fixture_path: str | None = None
    max_in_flight: int = 4
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    decode_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of "
                                  f"{', '.join(allowed)}; got {value!r}")
        for name, (valid, rule) in BOUNDS.items():
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name} must be {rule}; got {value}")

    def thresholds(self) -> Thresholds:
        return Thresholds(identifier=self.threshold_identifier,
                          citation=self.threshold_citation)


#: Field name -> annotated type name ("int", "float", "str | None", ...).
FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
#: Annotated type name -> the types a file or flag value of it may have.
_VALUE_TYPES = {"int": int, "float": (int, float), "dict": dict, "str": str,
                "str | None": (str, type(None))}


def _coerce(key: str, value, text: bool = False) -> object:
    """*value* as field *key*'s type. Only environment *text* is parsed; a
    file or flag value must already have the field's JSON type."""
    kind = FIELD_TYPES[key]
    try:
        if text:
            value = {"int": int, "float": float, "dict": json_object}.get(
                kind, str)(value)
        if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[kind]):
            raise TypeError(f"expected {kind}")
        if isinstance(value, str) and lone_surrogate(value) is not None:
            raise ValueError("not UTF-8 text")
        if kind == "dict":
            json.dumps(value, allow_nan=False)  # a request body cannot hold NaN
        return float(value) if kind == "float" else value
    except (TypeError, ValueError, OverflowError) as exc:
        shown = repr(value)
        if len(shown) > 80:  # a long value: 80 characters and its length
            size = len(value) if isinstance(value, str) else len(shown)
            shown = f"{shown[:80]}... ({size} characters)"
        raise ConfigError(f"bad value for {key}: {shown} ({exc})") from exc


def load_config(path: str | Path | None = None,
                env: dict[str, str] | None = None,
                **overrides) -> PipelineConfig:
    """Assemble the effective configuration.

    *path* points at a JSON object whose keys match PipelineConfig fields.
    Environment variables named OSIR_<FIELD> (e.g. OSIR_TOKEN_BUDGET)
    override the file; keyword overrides (CLI flags) win over everything.
    """
    values: dict = {}
    if path is not None:
        with open_input(path, ConfigError, "config file") as fh:
            text = fh.read()
        try:
            payload = json_object(text)
        except ValueError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        for key, value in payload.items():
            if key not in FIELD_TYPES:
                raise ConfigError(f"config file {path}: unknown key {key!r}")
            values[key] = _coerce(key, value)

    env_map = os.environ if env is None else env
    for key in FIELD_TYPES:
        env_name = ENV_PREFIX + key.upper()
        if env_name in env_map:
            values[key] = _coerce(key, env_map[env_name], text=True)

    for key, value in overrides.items():
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config override {key!r}")
        if value is not None:
            values[key] = _coerce(key, value)

    return PipelineConfig(**values)
