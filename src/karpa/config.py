"""Flat dotted-key configuration with environment overrides.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments allowed. Every known key can be overridden by an environment
variable named ``KARPA_<SECTION>_<KEY>`` (dots to underscores, upper
case), e.g. ``KARPA_MATCHER_TOP_K=8``. API keys are never part of the
config file: ``KARPA_LLM_API_KEY`` and ``KARPA_EMBED_API_KEY``.

Each section is a dataclass whose fields are its keys; ``matcher`` is
``matching.MatchConfig`` and ``llm`` is ``llm.LlmParams``.

The config digest identifies the *semantics* of a run; execution-only
knobs (eval concurrency, checkpoint directory) are excluded so the same
evaluation is byte-identical no matter how it was scheduled. Where the
embedding cache file lives does not change a run's outputs either, so
``embedding.cache_path`` is hashed with an empty value: a run with a cache
file has the digest of the same run without one.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .embeddings import MOCK_MIN_DIM
from .errors import ConfigError, ContractError
from .evaluation import MODES
from .llm import LlmParams
from .matching import MatchConfig
from .transport import read_utf8, require_file

PROVIDER_KINDS = ("http", "scripted", "mock")

_EXECUTION_ONLY_KEYS = {"eval.concurrency", "eval.checkpoint_dir"}
_HASHED_EMPTY_KEYS = {"embedding.cache_path"}


@dataclass
class EmbeddingOptions:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    dim: int = 64
    fixtures: str = ""
    cache_path: str = ""


@dataclass
class KgOptions:
    path: str = ""
    inverse_edges: bool = False


@dataclass
class PlannerOptions:
    relation_cap: int = 30
    per_relation_k: int | None = None


@dataclass
class ReasonerOptions:
    batch_limit: int = 8


@dataclass
class EvalOptions:
    mode: str = "strict"
    concurrency: int = 1
    checkpoint_dir: str = ""


@dataclass
class PipelineConfig:
    kg: KgOptions = field(default_factory=KgOptions)
    embedding: EmbeddingOptions = field(default_factory=EmbeddingOptions)
    llm: LlmParams = field(default_factory=LlmParams)
    matcher: MatchConfig = field(default_factory=MatchConfig)
    planner: PlannerOptions = field(default_factory=PlannerOptions)
    reasoner: ReasonerOptions = field(default_factory=ReasonerOptions)
    eval: EvalOptions = field(default_factory=EvalOptions)

    def validate(self) -> None:
        if self.embedding.kind not in PROVIDER_KINDS:
            raise ConfigError(f"embedding.kind must be one of {PROVIDER_KINDS}")
        if self.llm.kind not in PROVIDER_KINDS:
            raise ConfigError(f"llm.kind must be one of {PROVIDER_KINDS}")
        if not math.isfinite(self.llm.temperature):
            raise ConfigError("llm.temperature must be a finite number")
        if self.llm.max_output < 1:
            raise ConfigError("llm.max_output must be >= 1")
        if self.eval.mode not in MODES:
            raise ConfigError(f"eval.mode must be {' or '.join(MODES)}")
        if self.eval.concurrency < 1:
            raise ConfigError("eval.concurrency must be >= 1")
        if self.planner.relation_cap < 1:
            raise ConfigError("planner.relation_cap must be >= 1")
        if self.planner.per_relation_k is not None and self.planner.per_relation_k < 1:
            raise ConfigError("planner.per_relation_k must be empty or >= 1")
        if self.embedding.kind == "mock" and self.embedding.dim < MOCK_MIN_DIM:
            raise ConfigError(f"embedding.dim must be >= {MOCK_MIN_DIM} for mock embeddings")
        if self.reasoner.batch_limit < 1:
            raise ConfigError("reasoner.batch_limit must be >= 1")


# "section.field" -> (annotation string, default), in declaration order.
KNOWN_KEYS: dict[str, tuple[str, object]] = {
    f"{section.name}.{opt.name}": (opt.type, opt.default)
    for section in fields(PipelineConfig)
    for opt in fields(section.default_factory)
}


def _coerce(key: str, raw: str) -> object:
    tag, _ = KNOWN_KEYS[key]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "int | None":
            return int(raw) if raw else None
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no", ""):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def env_name(key: str) -> str:
    return "KARPA_" + key.upper().replace(".", "_")


def resolve_values(
    file_values: dict[str, str] | None = None, env: dict[str, str] | None = None
) -> dict[str, object]:
    """Defaults, overlaid with file values, overlaid with environment values."""
    env = env if env is not None else dict(os.environ)
    resolved: dict[str, object] = {key: default for key, (_, default) in KNOWN_KEYS.items()}
    for key, raw in (file_values or {}).items():
        resolved[key] = _coerce(key, raw)
    for key in KNOWN_KEYS:
        if env_name(key) in env:
            resolved[key] = _coerce(key, env[env_name(key)])
    return resolved


def build_config(values: dict[str, object]) -> PipelineConfig:
    """A validated config from one value per ``KNOWN_KEYS`` entry."""
    sections: dict[str, dict[str, object]] = {f.name: {} for f in fields(PipelineConfig)}
    for key in KNOWN_KEYS:
        section, attr = key.split(".")
        sections[section][attr] = values[key]
    built = {}
    for f in fields(PipelineConfig):
        try:
            built[f.name] = f.default_factory(**sections[f.name])
        except ContractError as exc:
            raise ConfigError(f"{f.name}: {exc}") from exc
    cfg = PipelineConfig(**built)
    cfg.validate()
    return cfg


def load_config(path: str | Path | None = None, env: dict[str, str] | None = None) -> PipelineConfig:
    env = env if env is not None else dict(os.environ)
    file_values: dict[str, str] = {}
    config_path = str(path) if path else env.get("KARPA_CONFIG", "")
    if config_path:
        p = require_file(config_path, "config file", ConfigError)
        file_values = parse_config_text(read_utf8(p, ConfigError))
    return build_config(resolve_values(file_values, env))


def config_digest(cfg: PipelineConfig) -> str:
    """Digest of the run semantics; execution-only keys are excluded, and the
    cache path is hashed empty."""
    lines = []
    for key in sorted(set(KNOWN_KEYS) - _EXECUTION_ONLY_KEYS):
        section, attr = key.split(".")
        value = "" if key in _HASHED_EMPTY_KEYS else getattr(getattr(cfg, section), attr)
        lines.append(f"{key}={value}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
