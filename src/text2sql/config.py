"""Pipeline configuration with CLI > environment > file > defaults precedence."""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .errors import ConfigurationError
from .linking import LinkingConfig
from .prompts import LAYOUT_CLEAR, LAYOUT_COMPLICATED, PromptConfig

log = logging.getLogger(__name__)

BACKENDS = ("live", "record", "replay")
ENV_PREFIX = "TEXT2SQL_"
API_KEY_ENV = "TEXT2SQL_API_KEY"

_COUNT_FIELDS = (
    "n_samples", "recall_samples", "k_tables", "k_columns", "max_inflight_requests",
    "max_generation_tokens", "max_recall_tokens", "retry_attempts",
)


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
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.layout not in (LAYOUT_CLEAR, LAYOUT_COMPLICATED):
            raise ConfigurationError(f"unknown layout {self.layout!r}")
        if self.exec_timeout <= 0:
            raise ConfigurationError("exec_timeout must be positive")
        if not self.temperature >= 0:
            raise ConfigurationError("temperature must be >= 0")

    @property
    def effective_n_samples(self) -> int:
        return self.n_samples if self.use_self_consistency else 1

    @property
    def effective_use_linking(self) -> bool:
        # The run-on layout comparison always sees the full schema.
        return self.use_linking and self.layout != LAYOUT_COMPLICATED

    def prompt_config(self) -> PromptConfig:
        return PromptConfig(
            use_calibration=self.use_calibration,
            layout=self.layout,
            include_foreign_keys=self.include_foreign_keys,
        )

    def linking_config(self) -> LinkingConfig:
        return LinkingConfig(
            recall_samples=self.recall_samples,
            k_tables=self.k_tables,
            k_columns=self.k_columns,
            model_name=self.model_name,
            temperature=self.temperature,
            max_output_tokens=self.max_recall_tokens,
        )


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
    text = str(raw)
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is Path:
            return Path(text)
        return text
    except ValueError as exc:
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


def api_key_from_env(env: Mapping[str, str] | None = None) -> str:
    env = os.environ if env is None else env
    return env.get(API_KEY_ENV, "") or env.get("OPENAI_API_KEY", "")

