"""Pipeline configuration: a flat INI file with one section per stage.

Every hyperparameter the training pipeline consumes appears here with
its default, so a config file only needs the keys it overrides.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, utf8_input
from .gan import GanConfig
from .refinement import RefineConfig


@dataclass(frozen=True)
class DataConfig:
    source: str = ""
    target: str = ""
    gold: str = ""
    max_vocab: int = 200000
    normalize_iterations: int = 5
    normalize: bool = True


@dataclass(frozen=True)
class ClusterConfig:
    level: str = "last"          # last | second_to_last | <index>


@dataclass(frozen=True)
class MultiGanConfig:
    lambda_mode: str = "dynamic"  # dynamic | fixed
    lambda_fixed: float = 0.5


@dataclass(frozen=True)
class EvalConfig:
    per_subspace: bool = True
    vocab_limit: int = 50000


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    single_restarts: int = 10
    refine_mode: str = "global"  # none | global | local | single
    stop_after: str = ""         # empty = run everything
    data: DataConfig = field(default_factory=DataConfig)
    # both adversarial stages, the single map's and the subspace games
    single_gan: GanConfig = field(default_factory=GanConfig)
    multi: MultiGanConfig = field(default_factory=MultiGanConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)


# INI section -> the PipelineConfig field it overrides
_SECTIONS = {
    "run": None,
    "data": "data",
    "single_gan": "single_gan",
    "clustering": "cluster",
    "multi": "multi",
    "refinement": "refine",
    "evaluation": "evaluation",
}
# stop_after is set by `pipeline --stage`, not by a config file
_RUN_KEYS = {"seed": int, "single_restarts": int, "refine_mode": str}


def _coerce(name: str, value: str, to_type):
    if to_type is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    try:
        return to_type(value)
    except ValueError:
        raise ConfigError(f"{name}: expected {to_type.__name__}, got {value!r}") from None


def _parse_section(sections: dict, section: str, types: dict) -> dict:
    updates = {}
    for key, raw in sections[section]:
        if key not in types:
            raise ConfigError(f"[{section}] has unknown key {key!r}")
        updates[key] = _coerce(f"[{section}] {key}", raw, types[key])
    return updates


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with utf8_input(path, ConfigError):
            read = parser.read(path, encoding="utf-8")
        # items() interpolates, so a bare % raises here rather than at read
        sections = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as e:
        raise ConfigError(f"config file {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    cfg = PipelineConfig()
    for section, name in _SECTIONS.items():
        if section not in sections:
            continue
        if name is None:
            cfg = replace(cfg, **_parse_section(sections, section, _RUN_KEYS))
            continue
        base = getattr(cfg, name)
        # stage seeds derive from [run] seed alone, so no section sets one
        types = {f.name: type(getattr(base, f.name)) for f in fields(base) if f.name != "seed"}
        cfg = replace(cfg, **{name: replace(base, **_parse_section(sections, section, types))})
    validate_config(cfg)
    return cfg


def validate_config(cfg: PipelineConfig) -> None:
    if cfg.refine_mode not in ("none", "global", "local", "single"):
        raise ConfigError(f"refine_mode must be none|global|local|single, got {cfg.refine_mode!r}")
    if cfg.multi.lambda_mode not in ("dynamic", "fixed"):
        raise ConfigError(f"lambda_mode must be dynamic|fixed, got {cfg.multi.lambda_mode!r}")
    if not 0.0 <= cfg.multi.lambda_fixed <= 1.0:
        raise ConfigError(f"lambda_fixed must be in [0, 1], got {cfg.multi.lambda_fixed}")
    if cfg.single_restarts < 1:
        raise ConfigError(f"single_restarts must be >= 1, got {cfg.single_restarts}")
    for name, value, low in (("data.max_vocab", cfg.data.max_vocab, 1),
                             ("data.normalize_iterations", cfg.data.normalize_iterations, 1),
                             ("evaluation.vocab_limit", cfg.evaluation.vocab_limit, 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    level = cfg.cluster.level
    if level not in ("last", "second_to_last") and not level.isdecimal():
        raise ConfigError(f"clustering.level must be last|second_to_last|<index>, got {level!r}")
    cfg.single_gan.validate()
    cfg.refine.validate()


def config_digest(cfg: PipelineConfig) -> str:
    """Stable hash of the fully resolved configuration.  `stop_after` is
    left out: where a run stops does not change what its stages compute,
    so a run stopped early resumes under the same digest."""
    return hashlib.sha256(repr(replace(cfg, stop_after="")).encode("utf-8")).hexdigest()[:16]


def derive_seed(master: int, *labels: str) -> int:
    """Stable per-stage seed so toggling one stage cannot shift another's
    randomness."""
    text = ":".join([str(master), *labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
