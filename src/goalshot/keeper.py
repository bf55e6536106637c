"""Shot resolution against a pursuing keeper and static defenders.

The keeper reacts after a configurable delay, then each step heads at full
speed for the closest point to itself on the ball's current travel ray
(re-estimated every step, optionally blurred by positioning noise). The
ball is caught when its path segment for a step passes within catch_radius
of the keeper, or within defender_catch_radius of any field defender,
before crossing the goal line; checking the whole segment rather than the
endpoint keeps a fast ball from tunneling through a player's reach. A ball
that dies en route also counts as caught: the keeper collects it.
Otherwise the crossing lateral decides goal vs wide. The shot runs on
plain floats through the integrator of `dynamics`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import STOP_SPEED, BallState, DynamicsConfig, _advance, _goal_line_lateral, kick
from .geometry import FieldConfig, Vec2

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
        if (self.max_speed < 0 or self.reaction_delay < 0
                or self.catch_radius < 0 or self.positioning_noise < 0):
            raise ValueError("KeeperModel parameters must be non-negative")


def _segment_distance(qx, qy, ax, ay, bx, by) -> float:
    """Distance from the point q to the segment a-b."""
    abx, aby = bx - ax, by - ay
    length_sq = abx * abx + aby * aby
    if length_sq < 1e-18:
        return math.hypot(ax - qx, ay - qy)
    t = max(0.0, min(1.0, ((qx - ax) * abx + (qy - ay) * aby) / length_sq))
    return math.hypot(ax + abx * t - qx, ay + aby * t - qy)


def _pursuit_point(bx, by, dx, dy, kx, ky) -> tuple[float, float]:
    """Closest point to the keeper k on the ball's travel ray (unit direction d)."""
    t = max(0.0, (kx - bx) * dx + (ky - by) * dy)
    return bx + dx * t, by + dy * t


def simulate_shot(ball: Vec2, ball_velocity: Vec2, target: Vec2, power: float,
                  keeper_start: Vec2, defenders: Sequence[Vec2],
                  keeper_model: KeeperModel, dynamics: DynamicsConfig,
                  field: FieldConfig, rng: np.random.Generator,
                  defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS,
                  max_steps: int = 10_000) -> tuple[ShotResult, int]:
    """Kick the ball at the target and resolve the episode.

    Returns the outcome and the number of steps simulated. Deterministic
    for a given rng state.
    """
    accel = kick(BallState.at_rest(ball), power, (target - ball).angle(), dynamics).acceleration
    px, py, kx, ky = ball.x, ball.y, keeper_start.x, keeper_start.y
    vx, vy = ball_velocity.x + accel.x, ball_velocity.y + accel.y
    players = [(d.x, d.y, defender_catch_radius) for d in defenders]
    for n in range(1, max_steps + 1):
        x0, y0 = px, py
        px, py, vx, vy = _advance(px, py, vx, vy, dynamics, rng)
        # Clip the path at the goal line: interceptions count only before the ball crosses.
        lateral = _goal_line_lateral(x0, y0, px, py, field.goal_line_x)
        ex, ey = (px, py) if lateral is None else (field.goal_line_x, lateral)
        for qx, qy, radius in ((kx, ky, keeper_model.catch_radius), *players):
            if _segment_distance(qx, qy, x0, y0, ex, ey) <= radius:
                return ShotResult.CAUGHT, n
        if lateral is not None:
            return (ShotResult.GOAL if abs(lateral) <= field.goal_width / 2
                    else ShotResult.WIDE), n
        speed = math.hypot(vx, vy)
        if speed < STOP_SPEED:
            return ShotResult.CAUGHT, n
        if n > keeper_model.reaction_delay and keeper_model.max_speed > 0:
            aim_x, aim_y = _pursuit_point(px, py, vx * (1.0 / speed), vy * (1.0 / speed), kx, ky)
            if keeper_model.positioning_noise > 0:
                # Two scalar draws: the values of rng.normal(0, noise, 2).
                aim_x += rng.normal(0.0, keeper_model.positioning_noise)
                aim_y += rng.normal(0.0, keeper_model.positioning_noise)
            gx, gy = aim_x - kx, aim_y - ky
            reach = math.hypot(gx, gy)
            if reach > keeper_model.max_speed:
                scale = keeper_model.max_speed / reach
                gx, gy = gx * scale, gy * scale
            kx, ky = kx + gx, ky + gy
    return ShotResult.CAUGHT, max_steps
