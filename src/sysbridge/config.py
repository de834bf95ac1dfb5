"""Experiment configuration files.

INI-style sections with ``key = value`` lines, '#' comments, UTF-8.  Every
key is validated against the section schema below; unknown sections or keys
are rejected so that a config snapshot written next to experiment outputs
is always replayable.  parse -> serialize -> parse is the identity on the
resolved configuration.

The ``[task]`` section is a `TaskSpec`, ``[schedule]`` a `ScheduleSpec`,
``[train]`` a `TrainConfig` and ``[sample]`` a `SamplerConfig`, whose
schedule is the ``[schedule]`` section, so their checks run at parse time;
so do those of ``[eval]``.  The sections and their order are the fields of
`ExperimentConfig`; an absent section takes its defaults.  A field's key is
its name unless its ``ini`` metadata names another, or none.  Each section
refuses a float that is not finite.  Any rejected value is a `ConfigError`,
also when `with_seed` sets a seed from the command line.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass
from typing import Tuple

from .denoiser import TrainConfig
from .errors import ConfigError, check_finite
from .sampler import SamplerConfig
from .schedule import ScheduleSpec
from .tasks import SWEEP_PARAMS, TaskSpec

@dataclass(frozen=True)
class RunSection:
    run_id: str = "run"
    output_dir: str = "."


@dataclass(frozen=True)
class EvalSection:
    param: str = ""
    values: Tuple[float, ...] = ()
    n_draws: int = 50
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.param not in ("",) + SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if self.n_draws < 1 or self.seed < 0:
            raise ValueError("n_draws >= 1 and seed >= 0 required")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: each field is a section, in the order they are written."""

    run: RunSection
    task: TaskSpec
    schedule: ScheduleSpec
    train: TrainConfig
    sample: SamplerConfig
    eval: EvalSection


_SECTIONS = typing.get_type_hints(ExperimentConfig)


def _key(f: dataclasses.Field):
    """The config key of a section field, or None if it has none."""
    return f.metadata.get("ini", f.name)


def parse_value(name: str, raw: str, pytype):
    """``raw`` as a ``pytype``; a ConfigError naming ``name`` if it is not one."""
    raw = raw.strip()
    try:
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
        raise ConfigError(f"bad value for {name}: {exc}") from exc
    raise ConfigError(f"unsupported config type for {name}")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")

    sections = {}
    for section, cls in _SECTIONS.items():
        types = typing.get_type_hints(cls)
        fields = {_key(f): f.name for f in dataclasses.fields(cls) if _key(f)}
        # [schedule] comes before [sample] in the table
        values = {"spec": sections["schedule"]} if section == "sample" else {}
        given = parser.items(section) if parser.has_section(section) else []
        for key, raw in given:
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[fields[key]] = parse_value(f"key {key!r}", raw, types[fields[key]])
        try:
            sections[section] = cls(**values)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid [{section}] section: {exc}") from exc
    return ExperimentConfig(**sections)


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
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Stable text form with every resolved key materialized."""
    lines = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in dataclasses.fields(section):
            if _key(f):
                lines.append(f"{_key(f)} = {_format_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)
