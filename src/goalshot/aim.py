"""Analytic goal-entry probability for a shot at a point on the goal line.

The lateral scatter of a shot grows with distance: a ball kicked from d
meters away arrives on the goal line with an approximately Gaussian lateral
error of standard deviation

    sigma(d) = -sigma_coefficient * ln(1 - d / sigma_horizon).

A shot misses left of the goal when the error carries it outside the left
post, and symmetrically on the right. With S_l and S_r the signed offsets
of the posts from the shooting line (positive = left of the line) and d_l,
d_r the ball-to-post distances,

    P(left)  = Phi(-S_l / sigma(d_l)),
    P(right) = Phi(+S_r / sigma(d_r)),
    P(goal)  = 1 - P(left) - P(right).

Tails are evaluated in closed form through the error function; numerical
quadrature exists only as a test oracle. _ball_half computes the terms that
depend only on the ball (the posts relative to it and the sigmas of their
distances) once for all of its aim points; its sigma raises HorizonError
beyond the horizon, which makes it the policies' horizon gate too.
_aim_chances adds the terms of each aim point on plain floats, its shot line
(geometry.shot_line) and both tails, and in that one pass keeps stage one's
survivors as (target, P(goal), shot line), which the rankers reuse, or p_goal's
AimResult. p_goal checks a caller's aim point (on the goal line, within the
mouth) after the ball; _aim_points builds only valid ones, so the policies'
stage one runs no target check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .geometry import FieldConfig, Point, Vec2, _require_finite, shot_line

# How far an aim point may sit off the goal line or outside the mouth (m).
GOAL_LINE_TOLERANCE = 1e-9
_SQRT2 = math.sqrt(2.0)


class HorizonError(ValueError):
    """A shot distance at or beyond the sigma horizon."""


@dataclass(frozen=True)
class AimConfig:
    sigma_coefficient: float = 1.88
    sigma_horizon: float = 45.0
    target_count: int = 15
    target_inset: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float":
                _require_finite(f.name, getattr(self, f.name))
        if self.sigma_coefficient <= 0.0:
            raise ValueError("sigma_coefficient must be positive")
        if self.sigma_horizon <= 0.0:
            raise ValueError("sigma_horizon must be positive")
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")
        if self.target_inset < 0.0:
            raise ValueError("target_inset must be >= 0")


@dataclass(frozen=True, slots=True)
class ShotQuery:
    """Ball position plus an aim point on the goal line."""

    ball: Vec2
    target: Vec2


@dataclass(frozen=True, slots=True)
class AimResult:
    """Miss-left / miss-right / goal probabilities; sums to 1 by construction."""

    p_left: float
    p_right: float
    p_goal: float


def sigma(d: float, config: AimConfig) -> float:
    """Lateral standard deviation of a shot after d meters of travel.

    Strictly increasing in d; diverges at the horizon, so d must satisfy
    0 <= d < sigma_horizon; raises HorizonError from the horizon on.
    """
    if d < 0.0:
        raise ValueError(f"distance must be >= 0, got {d}")
    if d >= config.sigma_horizon:
        raise HorizonError(
            f"distance {d} is at or beyond the sigma horizon {config.sigma_horizon}")
    return -config.sigma_coefficient * math.log(1.0 - d / config.sigma_horizon)


def _ball_half(ball: Point, field: FieldConfig, config: AimConfig) -> tuple:
    """The ball (x, y) of a Vec2 or a pair, then each post relative to it
    (x, y) and the sigma of its distance. Raises HorizonError beyond the
    horizon (where within_horizon is false), else ValueError past the line."""
    bx, by = ball
    left, right = field.post_left, field.post_right
    left_x, left_y = left.x - bx, left.y - by
    right_x, right_y = right.x - bx, right.y - by
    _require_finite("Vec2 component", left_x, left_y, right_x, right_y)
    # hypot of the differences is ball.distance_to(post)
    sigma_l = sigma(math.hypot(left_x, left_y), config)
    sigma_r = sigma(math.hypot(right_x, right_y), config)
    if bx >= field.goal_line_x:
        raise ValueError("ball must be in front of the goal line")
    return bx, by, left_x, left_y, sigma_l, right_x, right_y, sigma_r


def _check_target(target: Vec2, field: FieldConfig) -> None:
    """p_goal's checks of an aim point it did not build."""
    if abs(target.x - field.goal_line_x) > GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie on the goal line")
    if abs(target.y) > field.goal_width / 2 + GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie within the goal mouth")


def _aim_chances(ball_half: tuple, targets: Sequence[Vec2], threshold: float,
                 split: bool = False) -> list:
    """(target, P(goal), shot line), or with split the AimResult, of each checked
    aim point whose P(goal) is at least threshold, in order, given the ball half."""
    bx, by, left_x, left_y, sigma_l, right_x, right_y, sigma_r = ball_half
    erf, sqrt2 = math.erf, _SQRT2
    chances = []
    for target in targets:
        line = shot_line(target.x - bx, target.y - by)
        ux, uy = line[3], line[4]
        # Phi(z) = 0.5 * (1 + erf(z / sqrt 2)) of -S_l / sigma_l and of +S_r / sigma_r,
        # each S the cross product of the shot direction and the post's offset
        left = 0.5 * (1.0 + erf(-(ux * left_y - uy * left_x) / sigma_l / sqrt2))
        right = 0.5 * (1.0 + erf((ux * right_y - uy * right_x) / sigma_r / sqrt2))
        goal = 1.0 - left - right
        if goal >= threshold:
            chances.append(AimResult(left, right, goal) if split else (target, goal, line))
    return chances


def p_goal(query: ShotQuery, field: FieldConfig, config: AimConfig) -> AimResult:
    """Full left/right/goal probability split for one aim point."""
    ball_half = _ball_half(query.ball, field, config)
    _check_target(query.target, field)
    return _aim_chances(ball_half, (query.target,), -math.inf, split=True)[0]


def within_horizon(ball: Point, field: FieldConfig, config: AimConfig) -> bool:
    """True when both posts are close enough for the sigma model to apply."""
    bx, by = ball
    return max(math.hypot(post.x - bx, post.y - by)
               for post in (field.post_left, field.post_right)) < config.sigma_horizon


def discretize_targets(field: FieldConfig, config: AimConfig) -> list[Vec2]:
    """Evenly spaced aim points on the goal line, inset from each post.

    Sorted by lateral coordinate; a single target degenerates to the goal
    center.
    """
    return list(_aim_points(field, config))


# The last (field, config) and its aim points: a one-entry memo compared
# by equality, like policies._stage_one's, so a stage one per ball hashes
# neither config through its generated Python __hash__.
_aim_points_memo: list[tuple[tuple, tuple[Vec2, ...]]] = []


def _aim_points(field: FieldConfig, config: AimConfig) -> tuple[Vec2, ...]:
    """discretize_targets as a tuple, built once per (field, config) in a row."""
    key = (field, config)
    for last_key, last in _aim_points_memo:
        if last_key == key:
            return last
    half = field.goal_width / 2 - config.target_inset
    if half < 0.0:
        raise ValueError("target_inset exceeds the goal half-width")
    n = config.target_count
    if n == 1:
        points = (Vec2(field.goal_line_x, 0.0),)
    else:
        step = 2.0 * half / (n - 1)
        points = tuple(Vec2(field.goal_line_x, -half + i * step) for i in range(n))
    _aim_points_memo[:] = [(key, points)]
    return points
