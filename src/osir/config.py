"""Pipeline configuration: the one declaration and check of every setting.

Each setting is a PipelineConfig field, declared once with its default;
config file keys, OSIR_* environment variables and the CLI options named
after a field all derive from it. Precedence (lowest to highest): built-in
defaults, JSON config file, environment variables, explicit CLI flags.
PipelineConfig checks every value when it is built, so a bad value raises
ConfigError from load_config before any stage runs. Only the settings of one
backend mode (an endpoint, a fixture) are checked by make_backend, because
the stages that build no backend do not need them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backend import BACKEND_MODES
from .evaluation import PASS1_MODES
from .grounding import EMBELLISHMENT_MODES, Thresholds
from .indicators import GROUPINGS

ENV_PREFIX = "OSIR_"

#: Field -> the values it may take.
CHOICES = {"embellishment_mode": EMBELLISHMENT_MODES, "pass1_mode": PASS1_MODES,
           "group_by": GROUPINGS, "backend_mode": BACKEND_MODES}
#: Fields that must be at least 1.
AT_LEAST_ONE = ("samples_per_article", "max_in_flight", "max_attempts")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    token_budget: int = 25_000
    samples_per_article: int = 3
    threshold_identifier: float = 0.95
    threshold_citation: float = 0.90
    embellishment_mode: str = "fraction"
    pass1_mode: str = "mean"
    f1_floor: float = 0.5
    group_by: str = "discipline"
    seed: int = 0
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
        for name in AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1; got {value}")

    def thresholds(self) -> Thresholds:
        return Thresholds(identifier=self.threshold_identifier,
                          citation=self.threshold_citation)


#: Field name -> annotated type name ("int", "float", "str | None", ...).
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(key: str, value) -> object:
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "dict":
            if isinstance(value, str):
                value = json.loads(value)
            if not isinstance(value, dict):
                raise ValueError("expected an object")
            return value
        return None if value is None else str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


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
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            payload = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p}: invalid JSON ({exc.msg})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {p}: expected a JSON object")
        for key, value in payload.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"config file {p}: unknown key {key!r}")
            values[key] = _coerce(key, value)

    env_map = os.environ if env is None else env
    for key in _FIELD_TYPES:
        env_name = ENV_PREFIX + key.upper()
        if env_name in env_map:
            values[key] = _coerce(key, env_map[env_name])

    for key, value in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config override {key!r}")
        if value is not None:
            values[key] = _coerce(key, value)

    return PipelineConfig(**values)
