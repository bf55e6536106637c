"""Reference functions that only the tests call."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from goalshot.aim import AimConfig, ShotQuery, p_goal
from goalshot.dynamics import BallState, DynamicsConfig
from goalshot.experiment import EpisodeOutcome, MatchStats
from goalshot.geometry import FieldConfig, Vec2, _require_finite, shot_line
from goalshot.keeper import (DEFAULT_DEFENDER_CATCH_RADIUS, KeeperModel, ShotResult,
                             simulate_shot)
from goalshot.mlp import MlpParams, forward
from goalshot.policies import Action
from goalshot.scenes import (CSV_HEADER, KickScene, Label, SceneTable, _threats, scene_features,
                             scene_row)


@dataclass(frozen=True)
class Ray:
    """Half-line with a unit direction (|direction| = 1 within 1e-9)."""

    origin: Vec2
    direction: Vec2

    def __post_init__(self) -> None:
        if abs(self.direction.norm() - 1.0) > 1e-9:
            raise ValueError("Ray direction must be a unit vector")

    @classmethod
    def toward(cls, origin: Vec2, point: Vec2) -> Ray:
        """Ray from origin through a distinct point."""
        return cls(origin, Vec2(*shot_line(point.x - origin.x, point.y - origin.y)[3:]))


def dot(a: Vec2, b: Vec2) -> float:
    return a.x * b.x + a.y * b.y


def cross(a: Vec2, b: Vec2) -> float:
    """Scalar z-component of the 3D cross product."""
    return a.x * b.y - a.y * b.x


def normalized(v: Vec2) -> Vec2:
    return Vec2(*shot_line(v.x, v.y)[3:])


def difference(a: Vec2, b: Vec2) -> tuple[float, float]:
    """The components of a - b, with the finiteness check of that Vec2."""
    dx, dy = a.x - b.x, a.y - b.y
    _require_finite("Vec2 component", dx, dy)
    return dx, dy


def opening_angle(origin: Vec2, post_left: Vec2, post_right: Vec2) -> float:
    """Unsigned angle in [0, pi] subtended at origin by the two posts: the
    reference for the inline angles of the feature kernel and the LDA.

    Raises ValueError when origin coincides with either post.
    """
    ux, uy = difference(post_left, origin)
    vx, vy = difference(post_right, origin)
    if math.hypot(ux, uy) < 1e-12 or math.hypot(vx, vy) < 1e-12:
        raise ValueError("origin coincides with a post")
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def angle_at(origin: Vec2, a: Vec2, b: Vec2) -> float:
    """Opening angle at origin, 0.0 when a vertex degenerates onto origin."""
    try:
        return opening_angle(origin, a, b)
    except ValueError:
        return 0.0


def textbook_step(state: BallState, config: DynamicsConfig,
                  rng: np.random.Generator | None) -> BallState:
    """One ball step on `BallState` and `Vec2`, with the float operations of
    the simulator's integrator in the same order."""
    u = state.velocity + state.acceleration
    r_max = config.noise_coefficient * u.norm()
    if r_max > 0.0:
        if rng is None:
            raise ValueError("rng is required when noise_coefficient > 0")
        # The values of rng.uniform(-r_max, r_max, 2), by numpy's own formula.
        u = Vec2(u.x + (-r_max + (r_max - -r_max) * rng.random()),
                 u.y + (-r_max + (r_max - -r_max) * rng.random()))
    if u.norm() > config.max_speed:
        u = u * (config.max_speed / u.norm())
    return BallState(state.position + u, u * config.decay, Vec2(0.0, 0.0))


def signed_offset(line: Ray, point: Vec2) -> float:
    """Perpendicular distance from point to the infinite line through `line`.

    Positive when the point lies to the left of the direction of travel.
    """
    return cross(line.direction, point - line.origin)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def p_miss_left(query: ShotQuery, field: FieldConfig, config: AimConfig) -> float:
    """Probability the shot drifts outside the left post."""
    return p_goal(query, field, config).p_left


def p_miss_right(query: ShotQuery, field: FieldConfig, config: AimConfig) -> float:
    """Probability the shot drifts outside the right post."""
    return p_goal(query, field, config).p_right


def example_mse(params: MlpParams, features: np.ndarray,
                target: Sequence[float]) -> float:
    """Mean squared error of the network's two outputs on one example."""
    out = np.asarray(forward(params, features))
    return float(np.mean((out - np.asarray(target, float)) ** 2))


def mirror_scene(scene: KickScene) -> KickScene:
    """Reflect a scene across the center line (y -> -y)."""
    flip = lambda v: Vec2(v.x, -v.y)  # noqa: E731
    return replace(
        scene,
        ball=flip(scene.ball),
        ball_velocity=flip(scene.ball_velocity),
        attacker=flip(scene.attacker),
        attacker_body_angle=-scene.attacker_body_angle,
        keeper=flip(scene.keeper),
        defenders=tuple(flip(d) for d in scene.defenders),
        target=flip(scene.target),
    )


def filter_defenders(scene: KickScene, field: FieldConfig) -> list[Vec2]:
    """The defenders the feature kernel counts as threats (scenes._threats),
    nearest the ball first. The keeper is never included (it is not part of
    scene.defenders)."""
    return [Vec2(x, y) for _, x, y in _threats(scene.attacker.x, scene.ball.x, scene.ball.y,
                                                [(d.x, d.y) for d in scene.defenders], field)]


def features_by_target(scene: KickScene, field: FieldConfig):
    """scenes.scene_features of a KickScene: its base row and its target terms."""
    return scene_features(*scene_row(scene), field)


def run_episode(policy, scene: KickScene, keeper: KeeperModel, dynamics: DynamicsConfig,
                field: FieldConfig, rng: np.random.Generator,
                defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS) -> EpisodeOutcome:
    """Let the policy decide on the scene's row and resolve any kick it takes."""
    decision, = policy.decide_all([scene_row(scene)])
    if decision.action is not Action.KICK:
        return EpisodeOutcome(kicked=False, result=ShotResult.NO_KICK, steps=0)
    result, steps = simulate_shot(scene.ball, scene.ball_velocity, decision.target,
                                  scene.kick_power, scene.keeper, scene.defenders, keeper,
                                  dynamics, field, rng, defender_catch_radius)
    return EpisodeOutcome(kicked=True, result=result, steps=steps)


class EpisodeStream:
    """The values one kick reads, as the experiment's stream contract
    states them, drawn plainly: the i-th value of a kind (0 uniforms,
    1 normals) is the shot's head row at i < width, else value
    (i - width) % width of that kind in tail pair (i - width) // width,
    where the tail generator draws each pair's uniforms, then its normals."""

    def __init__(self, uniforms: np.ndarray, normals: np.ndarray,
                 tail_seed: np.random.SeedSequence):
        self._head, self._width = (uniforms, normals), len(uniforms)
        self._tail_rng = np.random.default_rng(tail_seed)
        self._tail: list[tuple[np.ndarray, np.ndarray]] = []
        self.reads = [0, 0]

    def _value(self, kind: int) -> float:
        i, width = self.reads[kind], self._width
        self.reads[kind] += 1
        if i < width:
            return float(self._head[kind][i])
        pair, i = divmod(i - width, width)
        while len(self._tail) <= pair:
            self._tail.append((self._tail_rng.random(width),
                               self._tail_rng.standard_normal(width)))
        return float(self._tail[pair][kind][i])

    def random(self) -> float:
        return self._value(0)

    def standard_normal(self) -> float:
        return self._value(1)


def aggregate(kicks_per_game: list[int], goals_per_game: list[int],
              opponent_goals: list[int]) -> MatchStats:
    """One side's stats, each per-game list reduced as its own array."""
    kicks = np.array(kicks_per_game)
    goals = np.array(goals_per_game)
    opponent = np.array(opponent_goals)
    total_kicks = int(kicks.sum())
    total_goals = int(goals.sum())
    return MatchStats(
        kicks=total_kicks,
        kicks_mean_per_game=float(kicks.mean()),
        kicks_std=float(kicks.std()),
        goals=total_goals,
        goals_mean_per_game=float(goals.mean()),
        goals_std=float(goals.std()),
        effectiveness=total_goals / total_kicks if total_kicks else None,
        wins=int(np.sum(goals > opponent)),
        losses=int(np.sum(goals < opponent)),
        draws=int(np.sum(goals == opponent)),
    )


def save_scenes_csv_writer(table: SceneTable, path) -> None:
    """The scene CSV written row by row through csv.writer: the bytes
    scenes.save_scenes must write."""
    labels = [Label.GOAL.value if g else Label.NO_GOAL.value for g in table.goal.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for time, (values, defenders), label in zip(table.time.tolist(), table.rows(), labels):
            row = [str(time), *map(repr, values), label, *map(repr, defenders)]
            writer.writerow(row + [""] * (len(CSV_HEADER) - len(row)))
