"""Shot resolution against a pursuing keeper and static defenders.

The keeper reacts after a configurable delay, then each step heads at full
speed for the closest point to itself on the ball's current travel ray
(re-estimated every step, optionally blurred by positioning noise). The
ball is caught when its path segment for a step passes within catch_radius
of the keeper, or within defender_catch_radius of any field defender,
before crossing the goal line; checking the whole segment rather than the
endpoint keeps a fast ball from tunneling through a player's reach. A ball
that dies en route also counts as caught: the keeper collects it.
Otherwise the crossing lateral decides goal vs wide. The shot runs on the
step loop of `dynamics`, keeper and defenders as plain floats, and reads
its points as (x, y) pairs (geometry.Point), so a caller builds no Vec2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import MAX_STEPS, DynamicsConfig, _fly, kick_components
from .geometry import FieldConfig, Point, _require_finite

DEFAULT_DEFENDER_CATCH_RADIUS = 1.0


class ShotResult(enum.Enum):
    GOAL = "GOAL"
    CAUGHT = "CAUGHT"
    WIDE = "WIDE"
    NO_KICK = "NO_KICK"


@dataclass(frozen=True)
class KeeperModel:
    """Parametric goalkeeper for labeling and policy evaluation."""

    max_speed: float = 0.28
    reaction_delay: int = 2
    catch_radius: float = 0.75
    positioning_noise: float = 0.15

    def __post_init__(self) -> None:
        for name in ("max_speed", "catch_radius", "positioning_noise"):
            _require_finite(name, getattr(self, name))
        if (self.max_speed < 0 or self.reaction_delay < 0
                or self.catch_radius < 0 or self.positioning_noise < 0):
            raise ValueError("KeeperModel parameters must be non-negative")


def simulate_shot(ball: Point, ball_velocity: Point, target: Point, power: float,
                  keeper_start: Point, defenders: Iterable[Point],
                  keeper_model: KeeperModel, dynamics: DynamicsConfig,
                  field: FieldConfig, rng: np.random.Generator | None,
                  defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS
                  ) -> tuple[ShotResult, int]:
    """Kick the ball at the target and resolve the episode.

    Returns the outcome and the number of steps simulated, at most MAX_STEPS.
    Deterministic for a given rng state; rng may be anything with a
    Generator's random() and standard_normal(), such as an experiment's
    ShotNoise. Raises ValueError if the ball starts on or past the goal
    line, if rng is None and the ball or the keeper has noise, or if the
    ball's position or the keeper's blurred aim point overflows.
    """
    bx, by = ball
    if bx >= field.goal_line_x:
        raise ValueError("ball must start before the goal line")
    (vx, vy), (tx, ty), (kx, ky) = ball_velocity, target, keeper_start
    ax, ay = kick_components(power, math.atan2(ty - by, tx - bx), dynamics)
    keeper = (kx, ky, keeper_model.catch_radius, keeper_model.max_speed,
              keeper_model.reaction_delay, keeper_model.positioning_noise)
    steps, lateral, _ = _fly(bx, by, vx + ax, vy + ay, dynamics, field.goal_line_x,
                             rng, MAX_STEPS, keeper,
                             [(x, y, defender_catch_radius) for x, y in defenders])
    if lateral is None:
        return ShotResult.CAUGHT, steps
    return (ShotResult.GOAL if abs(lateral) <= field.goal_width / 2 else ShotResult.WIDE), steps
