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

Before measuring a player's distance to a step's path, each step skips a
player that lies more than its radius outside the box of the points that
`_segment_distance` can return. The skip never changes a result:

- `_segment_distance(q, a, b)` measures from q to c = a + ab * t, with
  ab = b - a rounded and t in [0, 1]. Rounding is monotone, so each
  coordinate of c lies between that of a and that of b' = a + ab, as
  computed. The box spans a and b' exactly, so it needs no margin and no
  bound on coordinate size. (A box around a and b with a margin of 1e-9
  would need |coordinates| far below 1e6: c can overshoot b by a few ulps.
  A ball travels at most max_speed / (1 - decay), 50 m by default, but a
  caller may place players anywhere.)
- For a player left of the box whose computed lo_x - qx exceeds its
  radius, c_x >= lo_x, so by monotone rounding the computed x term
  |c_x - qx| is at least as large. math.hypot(a, b) >= |a|, so the
  distance exceeds the radius, or is NaN after an overflow. The other
  three sides are symmetric.
- A skip draws no random number, and any catch ends the shot as CAUGHT at
  that step, so which player catches does not matter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import STOP_SPEED, DynamicsConfig, _advance, _goal_line_lateral, kick_components
from .geometry import FieldConfig, Vec2, _require_finite

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
    for a given rng state. Raises ValueError if the ball's position
    overflows, or the keeper's blurred aim point does.
    """
    ax, ay = kick_components(power, math.atan2(target.y - ball.y, target.x - ball.x), dynamics)
    px, py, kx, ky = ball.x, ball.y, keeper_start.x, keeper_start.y
    vx, vy = ball_velocity.x + ax, ball_velocity.y + ay
    players = [(d.x, d.y, defender_catch_radius) for d in defenders]
    for n in range(1, max_steps + 1):
        x0, y0 = px, py
        px, py, vx, vy = _advance(px, py, vx, vy, dynamics, rng)
        # Clip the path at the goal line: interceptions count only before the ball crosses.
        lateral = _goal_line_lateral(x0, y0, px, py, field.goal_line_x)
        ex, ey = (px, py) if lateral is None else (field.goal_line_x, lateral)
        # The box of the points _segment_distance can return (module docstring).
        bx, by = x0 + (ex - x0), y0 + (ey - y0)
        lo_x, hi_x = (x0, bx) if x0 <= bx else (bx, x0)
        lo_y, hi_y = (y0, by) if y0 <= by else (by, y0)
        for qx, qy, radius in ((kx, ky, keeper_model.catch_radius), *players):
            if (lo_x - qx > radius or qx - hi_x > radius
                    or lo_y - qy > radius or qy - hi_y > radius):
                continue
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
                # The values of rng.normal(0, noise, 2), by numpy's own formula.
                aim_x += 0.0 + keeper_model.positioning_noise * rng.standard_normal()
                aim_y += 0.0 + keeper_model.positioning_noise * rng.standard_normal()
            gx, gy = aim_x - kx, aim_y - ky
            reach = math.hypot(gx, gy)
            if reach > keeper_model.max_speed:
                if not math.isfinite(reach):
                    raise ValueError(f"positioning_noise {keeper_model.positioning_noise!r} "
                                     "moves the keeper's aim point out of float range")
                scale = keeper_model.max_speed / reach
                gx, gy = gx * scale, gy * scale
            kx, ky = kx + gx, ky + gy
    return ShotResult.CAUGHT, max_steps
