"""Pipeline configuration with CLI > environment > file > defaults precedence.

A ``PipelineConfig`` field is its setting's one default; other defaults name it."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .errors import ConfigurationError

LAYOUT_CLEAR = "clear"
LAYOUT_COMPLICATED = "complicated"
LAYOUTS = (LAYOUT_CLEAR, LAYOUT_COMPLICATED)
BACKENDS = ("live", "record", "replay")
ENV_PREFIX = "TEXT2SQL_"
API_KEY_ENV = "TEXT2SQL_API_KEY"

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class PipelineConfig:
    model_name: str = "gpt-3.5-turbo-0301"
    temperature: float = 1.0
    n_samples: int = 20
    recall_samples: int = 10
    k_tables: int = 4
    k_columns: int = 5
    exec_timeout: float = 5.0
    max_inflight_requests: int = 4
    backend: str = "replay"
    cache_dir: Path = Path("cache")
    api_base: str = "https://api.openai.com/v1"
    use_calibration: bool = True
    use_linking: bool = True
    use_self_consistency: bool = True
    include_foreign_keys: bool = True
    layout: str = LAYOUT_CLEAR
    max_generation_tokens: int = 512
    max_recall_tokens: int = 1024
    retry_attempts: int = 5

    def __post_init__(self) -> None:
        # Every integer setting counts samples, tables, columns, requests,
        # tokens or attempts, and none of them works at 0.
        for name, field_type in _FIELD_TYPES.items():
            if field_type is int and getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.layout not in LAYOUTS:
            raise ConfigurationError(f"unknown layout {self.layout!r}")
        # A NaN deadline never fires, and an infinite temperature is no JSON
        # number in the request body.
        if not (self.exec_timeout > 0 and math.isfinite(self.exec_timeout)):
            raise ConfigurationError("exec_timeout must be positive and finite")
        if not (self.temperature >= 0 and math.isfinite(self.temperature)):
            raise ConfigurationError("temperature must be >= 0 and finite")

    @property
    def effective_n_samples(self) -> int:
        return self.n_samples if self.use_self_consistency else 1

    @property
    def effective_use_linking(self) -> bool:
        # The run-on layout comparison always sees the full schema.
        return self.use_linking and self.layout != LAYOUT_COMPLICATED

    # perfbench/run.py still calls these two; they go once it no longer does.
    def prompt_config(self) -> PipelineConfig:
        return self

    def linking_config(self) -> PipelineConfig:
        return self


# A prompt reads use_calibration, layout and include_foreign_keys, which
# PipelineConfig holds under those names; tests/test_acceptance.py builds a
# prompt's settings under this one.
PromptConfig = PipelineConfig


def parse_config_file(path: Path | str) -> dict[str, str]:
    """Read a flat ``key = value`` file; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(name: str, raw: Any, target_type: type) -> Any:
    if isinstance(raw, target_type) and not isinstance(raw, str):
        return raw
    try:
        if target_type is bool:
            return _BOOLEANS[str(raw).lower()]
        return target_type(str(raw))
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"cannot parse {name}={raw!r} as {target_type.__name__}") from exc


_FIELD_TYPES = get_type_hints(PipelineConfig)


def load_config(
    config_file: Path | str | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> PipelineConfig:
    """Merge defaults, config file, TEXT2SQL_* environment variables, and CLI
    overrides (in increasing precedence) into one validated config."""
    env = os.environ if env is None else env
    merged: dict[str, Any] = {}

    if config_file is not None:
        for key, value in parse_config_file(config_file).items():
            if key not in _FIELD_TYPES:
                raise ConfigurationError(f"unknown config key {key!r} in {config_file}")
            merged[key] = value
    for name in _FIELD_TYPES:
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            merged[name] = env[env_key]
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigurationError(f"unknown config override {key!r}")
            merged[key] = value

    coerced = {
        name: _coerce(name, raw, _FIELD_TYPES[name]) for name, raw in merged.items()
    }
    return PipelineConfig(**coerced)


def api_key_from_env() -> str:
    return os.environ.get(API_KEY_ENV, "") or os.environ.get("OPENAI_API_KEY", "")

