"""Run configuration bundle and INI-style config file loading.

The config file has one section per component, lowercase keys matching the
dataclass field names:

    [run]       seed
    [field]     field_length, field_width, goal_width, goal_line_x, ...
    [dynamics]  decay, noise_coefficient, max_speed, kick_power_rate, max_power
    [aim]       sigma_coefficient, sigma_horizon, target_count, target_inset
    [train]     learning_rate, max_epochs, patience, init_half_range, seed, ...
    [policy]    p_goal_threshold, score_threshold
    [keeper]    max_speed, reaction_delay, catch_radius, positioning_noise
    [eval_keeper]  same keys; optional, evaluates policies against a keeper
                   that differs from the one that labeled the data
    [gen]       x_min, x_max, y_half_range, keeper_depth_min, ...

The [keeper] section configures both the labeling keeper used by the scene
generator and the default evaluation keeper. Unknown sections or keys are
rejected. Command-line flags override file values.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

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
    keeper: KeeperModel = KeeperModel()
    gen: GeneratorConfig = GeneratorConfig()
    eval_keeper: KeeperModel | None = None
    seed: int = 0


_SECTIONS = {
    "field": FieldConfig,
    "dynamics": DynamicsConfig,
    "aim": AimConfig,
    "train": TrainConfig,
    "policy": PolicyConfig,
    "keeper": KeeperModel,
    "eval_keeper": KeeperModel,
    "gen": GeneratorConfig,
}

def _parse_section(cls, section: str, items: dict[str, str]):
    hints = typing.get_type_hints(cls)
    scalar_fields = {f.name: hints[f.name] for f in fields(cls)
                     if hints[f.name] in (int, float)}
    kwargs = {}
    for key, raw in items.items():
        if key not in scalar_fields:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
        kind = scalar_fields[key]
        try:
            kwargs[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from None
        if not math.isfinite(kwargs[key]):
            raise ValueError(f"[{section}] {key}: non-finite value {raw!r}")
    return cls(**kwargs)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a config file; defaults fill every omitted section and key."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from None

    seed = 0
    parsed: dict[str, object] = {}
    for section in parser.sections():
        if section == "run":
            for key, raw in parser["run"].items():
                if key != "seed":
                    raise ValueError(f"unknown key '{key}' in section [run]")
                try:
                    seed = int(raw)
                except ValueError:
                    raise ValueError(f"[run] seed: cannot parse {raw!r} as int") from None
            continue
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        parsed[section] = _parse_section(_SECTIONS[section], section,
                                         dict(parser[section]))

    keeper = parsed.get("keeper", KeeperModel())
    gen = parsed.get("gen", GeneratorConfig())
    gen = replace(gen, keeper=keeper)
    return RunConfig(
        field=parsed.get("field", FieldConfig()),
        dynamics=parsed.get("dynamics", DynamicsConfig()),
        aim=parsed.get("aim", AimConfig()),
        train=parsed.get("train", TrainConfig()),
        policy=parsed.get("policy", PolicyConfig()),
        keeper=keeper,
        gen=gen,
        eval_keeper=parsed.get("eval_keeper"),
        seed=seed,
    )
