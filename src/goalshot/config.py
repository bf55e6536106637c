"""Run configuration bundle and INI-style config file loading.

The config file has one section per component, lowercase keys matching the
dataclass field names:

    [run]       seed
    [field]     field_length, field_width, goal_width, penalty_area_width
    [dynamics]  decay, noise_coefficient, max_speed, kick_power_rate, max_power
    [aim]       sigma_coefficient, sigma_horizon, target_count, target_inset
    [train]     learning_rate, max_epochs, patience, init_half_range, hidden_size
    [policy]    p_goal_threshold, score_threshold
    [keeper]    max_speed, reaction_delay, catch_radius, positioning_noise
    [eval_keeper]  same keys; optional, evaluates policies against a keeper
                   that differs from the one that labeled the data
    [gen]       x_min, x_max, y_half_range, keeper_depth_min, ...

[run] seed is the run's only seed: it draws the scenes, the split, the
balancing, the network's initial weights and example order, and every
experiment stream. A section accepts exactly the int and float fields of
its class (scalar_fields), and every error in it, from parsing or from the
class's own checks, names the section. Every error in the file starts with
"config file <path>: ". [keeper] is the labeling keeper of the scene
generator, RunConfig.gen.keeper; RunConfig.keeper reads it, and it is also
the default evaluation keeper. Unknown sections or keys are rejected. A
command-line flag named like a scalar field of RunConfig, TrainConfig or
PolicyConfig overrides that field's file value.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path
from types import MappingProxyType

from .aim import AimConfig
from .dynamics import DynamicsConfig
from .geometry import FieldConfig
from .keeper import KeeperModel
from .mlp import TrainConfig
from .policies import PolicyConfig
from .scenes import GeneratorConfig


@dataclass(frozen=True)
class RunConfig:
    field: FieldConfig = FieldConfig()
    dynamics: DynamicsConfig = DynamicsConfig()
    aim: AimConfig = AimConfig()
    train: TrainConfig = TrainConfig()
    policy: PolicyConfig = PolicyConfig()
    gen: GeneratorConfig = GeneratorConfig()
    eval_keeper: KeeperModel | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"run seed must be >= 0, got {self.seed}")

    @property
    def keeper(self) -> KeeperModel:
        """The labeling keeper, set by [keeper]."""
        return self.gen.keeper


_SECTIONS = {
    "run": RunConfig,
    "field": FieldConfig,
    "dynamics": DynamicsConfig,
    "aim": AimConfig,
    "train": TrainConfig,
    "policy": PolicyConfig,
    "keeper": KeeperModel,
    "eval_keeper": KeeperModel,
    "gen": GeneratorConfig,
}


@cache
def scalar_fields(cls) -> MappingProxyType:
    """The int and float fields of a config class with their types: the keys
    of its INI section and the command-line flags that override it. Cached:
    resolving the annotations costs more than the rest of a config load."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in fields(cls)
                             if hints[f.name] in (int, float)})


def _parse_section(cls, section: str, items: dict[str, str]):
    kinds = scalar_fields(cls)
    kwargs = {}
    for key, raw in items.items():
        if key not in kinds:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
        kind = kinds[key]
        try:
            kwargs[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from None
        if kind is float and not math.isfinite(kwargs[key]):
            raise ValueError(f"[{section}] {key}: non-finite value {raw!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from None


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a config file; defaults fill every omitted section and key.
    Errors begin "config file <path>: "."""
    try:
        return _load(Path(path))
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from None


def _syntax_error(exc: configparser.Error) -> str:
    """configparser's complaint on one line, without the file name it holds."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: no section header before {exc.line.strip()!r}"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: not a section header or a key = value line"
    # A repeated section or key.
    option = getattr(exc, "option", None)
    what = f"option {option!r} in section" if option else "section"
    return f"line {exc.lineno}: {what} {exc.section!r} already exists"


def _load(path: Path) -> RunConfig:
    """load_run_config, its errors without the file's name."""
    if not path.is_file():
        raise ValueError("not found")
    # A '%' in a value is a character, not a reference, and [DEFAULT] is an
    # unknown section like any other: no header can name the empty section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ValueError(_syntax_error(exc)) from None

    parsed: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        parsed[section] = _parse_section(_SECTIONS[section], section,
                                         dict(parser[section]))
    # The other sections are named like the RunConfig fields they fill.
    run = parsed.pop("run", RunConfig())
    gen = replace(parsed.pop("gen", GeneratorConfig()),
                  keeper=parsed.pop("keeper", KeeperModel()))
    return replace(run, gen=gen, **parsed)
