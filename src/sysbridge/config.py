"""Experiment configuration files.

INI-style sections with ``key = value`` lines, '#' comments, UTF-8.  Every
key is validated against the section schema below; unknown sections or keys
are rejected so that a config snapshot written next to experiment outputs
is always replayable.  parse -> serialize -> parse is the identity on the
resolved configuration.

The ``[task]`` section is a `TaskSpec`, ``[schedule]`` a `ScheduleSpec`
and ``[train]`` a `TrainConfig`, so their checks run at parse time; so do
those of the `SamplerConfig`, built from its sections by one mapping below,
and of ``[sample]`` and ``[eval]``.  A field's key is its name unless its
``ini`` metadata names another.  Any rejected value is a `ConfigError`,
also when `with_seed` sets a seed from the command line.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Tuple

from .denoiser import TrainConfig
from .errors import ConfigError
from .sampler import SamplerConfig
from .schedule import ScheduleSpec
from .tasks import SWEEP_PARAMS, TaskSpec

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunSection:
    run_id: str = "run"
    output_dir: str = "."


@dataclass(frozen=True)
class SampleSection:
    n_steps: int = 100
    n_samples: int = 16
    seed: int = 0
    range_lock: bool = True
    keep_every: int = 0
    time_grid: str = "uniform"

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class EvalSection:
    param: str = ""
    values: Tuple[float, ...] = ()
    n_draws: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.param not in ("",) + SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if self.n_draws < 1 or self.seed < 0:
            raise ValueError("n_draws >= 1 and seed >= 0 required")


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSection = field(default_factory=RunSection)
    task: TaskSpec = field(default_factory=TaskSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    sample: SampleSection = field(default_factory=SampleSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        # build the sampler config the run will build, so that its checks run now
        self.sampler_config

    @property
    def sampler_config(self) -> SamplerConfig:
        s = self.sample
        return SamplerConfig(
            n_steps=s.n_steps,
            spec=self.schedule,
            noiseless_range_lock=s.range_lock,
            seed=s.seed,
            keep_every=s.keep_every,
            time_grid=s.time_grid,
        )


_SECTIONS = {
    "run": RunSection,
    "task": TaskSpec,
    "schedule": ScheduleSpec,
    "train": TrainConfig,
    "sample": SampleSection,
    "eval": EvalSection,
}


def _key(f: dataclasses.Field) -> str:
    """The config key of a section field."""
    return f.metadata.get("ini", f.name)


def _parse_value(name: str, raw: str, pytype):
    raw = raw.strip()
    try:
        if pytype is bool:
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if pytype is int:
            return int(raw)
        if pytype is float:
            return float(raw)
        if pytype is str:
            return raw
        if pytype == Tuple[int, ...]:
            return tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
        if pytype == Tuple[float, ...]:
            return tuple(float(v) for v in raw.split(",") if v.strip()) if raw else ()
    except ValueError as exc:
        raise ConfigError(f"bad value for key {name!r}: {exc}") from exc
    raise ConfigError(f"unsupported config type for key {name!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    sections = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        cls = _SECTIONS[section]
        types = typing.get_type_hints(cls)
        fields = {_key(f): f.name for f in dataclasses.fields(cls)}
        values = {}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[fields[key]] = _parse_value(key, raw, types[fields[key]])
        try:
            sections[section] = cls(**values)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid [{section}] section: {exc}") from exc

    try:
        return ExperimentConfig(**sections)
    except ValueError as exc:
        raise ConfigError(f"invalid [sample] section: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def with_seed(cfg: ExperimentConfig, section: str, seed: int) -> ExperimentConfig:
    """cfg with ``seed`` as the seed of ``section``, checked as at parse time."""
    try:
        return dataclasses.replace(
            cfg, **{section: dataclasses.replace(getattr(cfg, section), seed=seed)}
        )
    except ValueError as exc:
        raise ConfigError(f"invalid --seed {seed} for [{section}]: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Stable text form with every resolved key materialized."""
    lines = []
    for name, section in (
        ("run", cfg.run),
        ("task", cfg.task),
        ("schedule", cfg.schedule),
        ("train", cfg.train),
        ("sample", cfg.sample),
        ("eval", cfg.eval),
    ):
        lines.append(f"[{name}]")
        for f in dataclasses.fields(section):
            lines.append(f"{_key(f)} = {_format_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)
