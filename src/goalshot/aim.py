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
depend only on the ball (both sigmas, the posts relative to the ball) once
for all of its aim points; _target_half adds the terms of one aim point,
all on plain floats. p_goal checks a caller's aim point (on the goal line,
within the mouth) after the ball; _aim_points builds only valid ones, so
the policies' stage one runs no target check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import FieldConfig, Vec2, difference, unit_components

# How far an aim point may sit off the goal line or outside the mouth (m).
GOAL_LINE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AimConfig:
    sigma_coefficient: float = 1.88
    sigma_horizon: float = 45.0
    target_count: int = 15
    target_inset: float = 0.25

    def __post_init__(self) -> None:
        if self.sigma_coefficient <= 0.0:
            raise ValueError("sigma_coefficient must be positive")
        if self.sigma_horizon <= 0.0:
            raise ValueError("sigma_horizon must be positive")
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")
        if self.target_inset < 0.0:
            raise ValueError("target_inset must be >= 0")


@dataclass(frozen=True)
class ShotQuery:
    """Ball position plus an aim point on the goal line."""

    ball: Vec2
    target: Vec2


@dataclass(frozen=True)
class AimResult:
    """Miss-left / miss-right / goal probabilities; sums to 1 by construction."""

    p_left: float
    p_right: float
    p_goal: float


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def sigma(d: float, config: AimConfig) -> float:
    """Lateral standard deviation of a shot after d meters of travel.

    Strictly increasing in d; diverges at the horizon, so d must satisfy
    0 <= d < sigma_horizon.
    """
    if d < 0.0:
        raise ValueError(f"distance must be >= 0, got {d}")
    if d >= config.sigma_horizon:
        raise ValueError(
            f"distance {d} is at or beyond the sigma horizon {config.sigma_horizon}")
    return -config.sigma_coefficient * math.log(1.0 - d / config.sigma_horizon)


def post_distances(ball: Vec2, field: FieldConfig) -> tuple[float, float]:
    """The ball's distances to the left and the right post."""
    return ball.distance_to(field.post_left), ball.distance_to(field.post_right)


def _ball_half(ball: Vec2, field: FieldConfig, config: AimConfig,
               distances: tuple[float, float] | None = None) -> tuple:
    """The ball, then each post relative to it (x, y) and the sigma of its
    distance, positive since a valid ball sits before the goal line.
    distances: post_distances(ball, field), if known."""
    if ball.x >= field.goal_line_x:
        raise ValueError("ball must be in front of the goal line")
    d_left, d_right = distances or post_distances(ball, field)
    return (ball, *difference(field.post_left, ball), sigma(d_left, config),
            *difference(field.post_right, ball), sigma(d_right, config))


def _check_target(target: Vec2, field: FieldConfig) -> None:
    """p_goal's checks of an aim point it did not build."""
    if abs(target.x - field.goal_line_x) > GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie on the goal line")
    if abs(target.y) > field.goal_width / 2 + GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie within the goal mouth")


def _target_half(ball_half: tuple, target: Vec2) -> tuple[float, float, float]:
    """(P(left), P(right), P(goal)) of one checked aim point, given the ball half."""
    ball, left_x, left_y, sigma_l, right_x, right_y, sigma_r = ball_half
    _, ux, uy = unit_components(target.x - ball.x, target.y - ball.y)
    # signed_offset(Ray.toward(ball, target), post) for each post
    left = gaussian_cdf(-(ux * left_y - uy * left_x) / sigma_l)
    right = gaussian_cdf((ux * right_y - uy * right_x) / sigma_r)
    return left, right, 1.0 - left - right


def p_miss_left(query: ShotQuery, field: FieldConfig, config: AimConfig) -> float:
    """Probability the shot drifts outside the left post."""
    return p_goal(query, field, config).p_left


def p_miss_right(query: ShotQuery, field: FieldConfig, config: AimConfig) -> float:
    """Probability the shot drifts outside the right post."""
    return p_goal(query, field, config).p_right


def p_goal(query: ShotQuery, field: FieldConfig, config: AimConfig) -> AimResult:
    """Full left/right/goal probability split for one aim point."""
    ball_half = _ball_half(query.ball, field, config)
    _check_target(query.target, field)
    return AimResult(*_target_half(ball_half, query.target))


def within_horizon(ball: Vec2, field: FieldConfig, config: AimConfig,
                   distances: tuple[float, float] | None = None) -> bool:
    """True when both posts are close enough for the sigma model to apply.
    distances: post_distances(ball, field), if known."""
    return max(distances or post_distances(ball, field)) < config.sigma_horizon


def discretize_targets(field: FieldConfig, config: AimConfig) -> list[Vec2]:
    """Evenly spaced aim points on the goal line, inset from each post.

    Sorted by lateral coordinate; a single target degenerates to the goal
    center.
    """
    return list(_aim_points(field, config))


@lru_cache(maxsize=64)
def _aim_points(field: FieldConfig, config: AimConfig) -> tuple[Vec2, ...]:
    """discretize_targets as a tuple, built once per (field, config)."""
    half = field.goal_width / 2 - config.target_inset
    if half < 0.0:
        raise ValueError("target_inset exceeds the goal half-width")
    n = config.target_count
    if n == 1:
        return (Vec2(field.goal_line_x, 0.0),)
    step = 2.0 * half / (n - 1)
    return tuple(Vec2(field.goal_line_x, -half + i * step) for i in range(n))
