"""Kick scenes: data model, feature extraction, dataset utilities, and a
synthetic labeled-scene generator.

A scene is the world snapshot at the moment of a shot: ball, attacker,
keeper, up to ten field defenders, the kick parameters, and the eventual
outcome. Scenes are persisted as CSV (one scene per row, see CSV_HEADER)
and turned into the canonical 22-value feature vector consumed by the
neural scorer.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .aim import GOAL_LINE_TOLERANCE
from .dynamics import DynamicsConfig
from .geometry import FieldConfig, Vec2, difference, opening_angle, unit_components
from .keeper import KeeperModel, ShotResult, simulate_shot

MAX_DEFENDERS = 10


class Label(enum.Enum):
    GOAL = "GOAL"
    NO_GOAL = "NO_GOAL"


@dataclass(frozen=True)
class KickScene:
    """One labeled shot situation. `label` is None for scenes still to be
    resolved (e.g. fed to a policy rather than a trainer)."""

    time: int
    ball: Vec2
    ball_velocity: Vec2
    attacker: Vec2
    attacker_body_angle: float
    keeper: Vec2
    defenders: tuple[Vec2, ...]
    kick_power: float
    target: Vec2
    label: Label | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "defenders", tuple(self.defenders))
        if len(self.defenders) > MAX_DEFENDERS:
            raise ValueError(f"at most {MAX_DEFENDERS} defenders, got {len(self.defenders)}")
        if not math.isfinite(self.attacker_body_angle):
            raise ValueError("attacker_body_angle must be finite")
        if not math.isfinite(self.kick_power) or self.kick_power < 0:
            raise ValueError("kick_power must be finite and >= 0")


FEATURE_NAMES: tuple[str, ...] = (
    "ball_x",
    "ball_y",
    "keeper_x",
    "keeper_y",
    "keeper_distance_to_ball",
    "keeper_abs_offset_from_shot_line",
    "angle_ball_keeper_destiny",
    "angle_attacker_vision",
    "attacker_body_to_shot_angle",
    "ball_distance_to_target",
    "ball_distance_to_near_post",
    "ball_distance_to_far_post",
    "kick_power",
    "target_lateral",
    "filtered_defender_count",
    "def1_distance_to_ball",
    "def1_abs_offset_from_shot_line",
    "def1_distance_to_goal_center",
    "def2_distance_to_ball",
    "def2_abs_offset_from_shot_line",
    "def2_distance_to_goal_center",
    "def3_distance_to_ball",
)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.names),):
            raise ValueError(f"expected {len(self.names)} features, got {self.values.shape}")


def angle_at(origin: Vec2, a: Vec2, b: Vec2) -> float:
    """Opening angle at origin, 0.0 when a vertex degenerates onto origin."""
    try:
        return opening_angle(origin, a, b)
    except ValueError:
        return 0.0


def filter_defenders(scene: KickScene, field: FieldConfig) -> list[Vec2]:
    """Defenders that can threaten the shot: between the attacker's x and
    the goal line, laterally inside the keeper's great area. Sorted by
    distance to the ball, nearest first. The keeper is never included (it
    is not part of scene.defenders)."""
    half_band = field.penalty_area_width / 2
    kept = [d for d in scene.defenders
            if scene.attacker.x <= d.x <= field.goal_line_x and abs(d.y) <= half_band]
    kept.sort(key=lambda d: d.distance_to(scene.ball))
    return kept


def features_by_target(scene: KickScene, field: FieldConfig) -> Callable[[Vec2], list[float]]:
    """The scene half of extract_features: computes the features that do
    not depend on the aim point once, and returns the function that builds
    the row of extract_features for an aim point."""
    ball, keeper = scene.ball, scene.keeper
    d_post_left = ball.distance_to(field.post_left)
    d_post_right = ball.distance_to(field.post_right)
    filtered = filter_defenders(scene, field)
    keeper_distance = keeper.distance_to(ball)
    # The points relative to the ball as (x, y) pairs, as signed_offset(line,
    # p) takes them, raising as it does on an overflow.
    kx, ky = difference(keeper, ball)
    defenders = [(d.distance_to(ball), difference(d, ball), d.distance_to(field.goal_center))
                 for d in filtered[:3]]
    defenders += [(field.field_length, None, field.field_length)] * (3 - len(defenders))
    head = [ball.x, ball.y, keeper.x, keeper.y, keeper_distance]
    vision = angle_at(scene.attacker, field.post_left, field.post_right)
    posts = [min(d_post_left, d_post_right), max(d_post_left, d_post_right), scene.kick_power]

    def row(target: Vec2) -> list[float]:
        dx, dy = target.x - ball.x, target.y - ball.y
        distance, ux, uy = unit_components(dx, dy)  # the line Ray.toward(ball, target)
        # angle_at(ball, keeper, target), 0.0 when the keeper is on the ball
        keeper_angle = (0.0 if keeper_distance < 1e-12
                        else math.atan2(abs(kx * dy - ky * dx), kx * dx + ky * dy))
        body_to_shot = abs(math.remainder(scene.attacker_body_angle - math.atan2(dy, dx),
                                          2 * math.pi))
        values = [*head, abs(ux * ky - uy * kx), keeper_angle, vision, body_to_shot,
                  distance, *posts, target.y, float(len(filtered))]
        for d_ball, to_d, d_goal in defenders[:2]:
            offset = (field.penalty_area_width if to_d is None
                      else abs(ux * to_d[1] - uy * to_d[0]))
            values += (d_ball, offset, d_goal)
        values.append(defenders[2][0])
        return values
    return row


def extract_features(scene: KickScene, field: FieldConfig) -> FeatureVector:
    """Canonical 22-feature view of a scene.

    Derived angles/offsets are measured against the shooting line (ball to
    target). Features of absent defenders are imputed with "no threat"
    extremes: field_length for distances, penalty_area_width for offsets.
    """
    return FeatureVector(np.array(features_by_target(scene, field)(scene.target),
                                  dtype=float))


def feature_matrix(scenes: Sequence[KickScene], field: FieldConfig) -> np.ndarray:
    """(n_scenes, 22) matrix of extracted features."""
    return np.array([features_by_target(s, field)(s.target) for s in scenes], dtype=float)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

_BASE_COLUMNS = (
    "time", "ball_x", "ball_y", "ball_vx", "ball_vy",
    "attacker_x", "attacker_y", "attacker_body_angle",
    "keeper_x", "keeper_y", "kick_power", "target_x", "target_y", "label",
)
CSV_HEADER: tuple[str, ...] = _BASE_COLUMNS + tuple(
    f"def{i}_{axis}" for i in range(1, MAX_DEFENDERS + 1) for axis in ("x", "y"))


def save_scenes(scenes: Sequence[KickScene], path: str | Path) -> None:
    """Write scenes as UTF-8 CSV. Every scene must carry a label."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for idx, scene in enumerate(scenes):
            if scene.label is None:
                raise ValueError(f"scene {idx} has no label; cannot be saved")
            row = [
                str(scene.time),
                repr(scene.ball.x), repr(scene.ball.y),
                repr(scene.ball_velocity.x), repr(scene.ball_velocity.y),
                repr(scene.attacker.x), repr(scene.attacker.y),
                repr(scene.attacker_body_angle),
                repr(scene.keeper.x), repr(scene.keeper.y),
                repr(scene.kick_power),
                repr(scene.target.x), repr(scene.target.y),
                scene.label.value,
            ]
            for i in range(MAX_DEFENDERS):
                if i < len(scene.defenders):
                    row.extend((repr(scene.defenders[i].x), repr(scene.defenders[i].y)))
                else:
                    row.extend(("", ""))
            writer.writerow(row)


def _parse_float(raw: str, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"line {line}, column '{column}': not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line}, column '{column}': non-finite value {raw!r}")
    return value


def load_scenes(path: str | Path, field: FieldConfig = FieldConfig(),
                dynamics: DynamicsConfig = DynamicsConfig()) -> list[KickScene]:
    """Read scenes from CSV, validating the header, every cell, that the
    ball lies inside the field and before the goal line, that the target
    lies on the goal line within the mouth, and that the kick power is at
    most dynamics.max_power. Errors name the offending line and column
    (line 1 is the header)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: missing header row") from None
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected header: expected {','.join(CSV_HEADER)}")
        scenes: list[KickScene] = []
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"line {line}: expected {len(CSV_HEADER)} cells, got {len(row)}")
            cells = dict(zip(CSV_HEADER, row))
            try:
                time = int(cells["time"])
            except ValueError:
                raise ValueError(
                    f"line {line}, column 'time': not an integer: {cells['time']!r}") from None
            numeric = {name: _parse_float(cells[name], line, name)
                       for name in _BASE_COLUMNS if name not in ("time", "label")}
            if cells["label"] not in (Label.GOAL.value, Label.NO_GOAL.value):
                raise ValueError(
                    f"line {line}, column 'label': expected GOAL or NO_GOAL, got {cells['label']!r}")
            defenders = []
            for i in range(1, MAX_DEFENDERS + 1):
                raw_x, raw_y = cells[f"def{i}_x"], cells[f"def{i}_y"]
                if raw_x == "" and raw_y == "":
                    continue
                if raw_x == "" or raw_y == "":
                    raise ValueError(
                        f"line {line}, column 'def{i}_x': defender {i} has only one coordinate")
                defenders.append(Vec2(_parse_float(raw_x, line, f"def{i}_x"),
                                      _parse_float(raw_y, line, f"def{i}_y")))
            ball = Vec2(numeric["ball_x"], numeric["ball_y"])
            if not field.contains(ball):
                raise ValueError(f"line {line}, column 'ball_x': ball outside field bounds")
            if ball.x >= field.goal_line_x:
                raise ValueError(f"line {line}, column 'ball_x': ball on or past the goal line")
            if abs(numeric["target_x"] - field.goal_line_x) > GOAL_LINE_TOLERANCE:
                raise ValueError(f"line {line}, column 'target_x': target off the goal line")
            if abs(numeric["target_y"]) > field.goal_width / 2 + GOAL_LINE_TOLERANCE:
                raise ValueError(f"line {line}, column 'target_y': target outside the goal mouth")
            if numeric["kick_power"] > dynamics.max_power:
                raise ValueError(f"line {line}, column 'kick_power': power above "
                                 f"max_power {dynamics.max_power}")
            try:
                scenes.append(KickScene(
                    time=time,
                    ball=ball,
                    ball_velocity=Vec2(numeric["ball_vx"], numeric["ball_vy"]),
                    attacker=Vec2(numeric["attacker_x"], numeric["attacker_y"]),
                    attacker_body_angle=numeric["attacker_body_angle"],
                    keeper=Vec2(numeric["keeper_x"], numeric["keeper_y"]),
                    defenders=tuple(defenders),
                    kick_power=numeric["kick_power"],
                    target=Vec2(numeric["target_x"], numeric["target_y"]),
                    label=Label(cells["label"]),
                ))
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
    return scenes


# ---------------------------------------------------------------------------
# Splitting, balancing, statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[KickScene, ...]
    validation: tuple[KickScene, ...]
    test: tuple[KickScene, ...]
    seed: int


def split_dataset(scenes: Sequence[KickScene], seed: int) -> DatasetSplit:
    """Seeded shuffle followed by a contiguous 50/25/25 partition.

    Quotas are rounded half-up, keeping every part within one scene of its
    exact proportion.
    """
    n = len(scenes)
    if n < 4:
        raise ValueError(f"need at least 4 scenes to split, got {n}")
    rng = np.random.default_rng(seed)
    shuffled = [scenes[i] for i in rng.permutation(n)]
    n_train = int(n * 0.5 + 0.5)
    n_val = int(n * 0.25 + 0.5)
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        validation=tuple(shuffled[n_train:n_train + n_val]),
        test=tuple(shuffled[n_train + n_val:]),
        seed=seed,
    )


def balance_by_replication(train: Sequence[KickScene], seed: int) -> list[KickScene]:
    """Equalize class counts by replicating minority scenes.

    Whole passes over the minority first, then a seeded sample without
    replacement for the remainder. The majority class is untouched.
    """
    goals = [s for s in train if s.label is Label.GOAL]
    no_goals = [s for s in train if s.label is Label.NO_GOAL]
    if len(goals) + len(no_goals) != len(train):
        raise ValueError("all scenes must be labeled to balance")
    if not goals or not no_goals:
        raise ValueError("both classes must be present to balance")
    minority, majority = (goals, no_goals) if len(goals) < len(no_goals) else (no_goals, goals)
    deficit = len(majority) - len(minority)
    if deficit == 0:
        return list(train)
    passes, remainder = divmod(deficit, len(minority))
    extra = minority * passes
    if remainder:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(minority), size=remainder, replace=False)
        extra = extra + [minority[i] for i in picks]
    return list(train) + extra


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std: float
    median: float
    percentile_1: float
    percentile_99: float
    missing_fraction: float


@dataclass(frozen=True)
class UnivariateReport:
    per_feature: dict[str, FeatureStats]


def univariate_stats(scenes: Sequence[KickScene], field: FieldConfig) -> UnivariateReport:
    """Per-feature mean/std/median/1st/99th percentile and missing fraction.

    Percentiles interpolate linearly between order statistics; std is the
    population standard deviation.
    """
    if not scenes:
        raise ValueError("need at least one scene")
    matrix = feature_matrix(scenes, field)
    stats: dict[str, FeatureStats] = {}
    for j, name in enumerate(FEATURE_NAMES):
        column = matrix[:, j]
        finite = column[np.isfinite(column)]
        missing = 1.0 - finite.size / column.size
        p1, median, p99 = np.percentile(finite, [1, 50, 99], method="linear")
        stats[name] = FeatureStats(
            mean=float(finite.mean()),
            std=float(finite.std()),
            median=float(median),
            percentile_1=float(p1),
            percentile_99=float(p99),
            missing_fraction=float(missing),
        )
    return UnivariateReport(stats)


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling distributions for synthetic shot situations.

    Positions are sampled in an attack zone in front of the goal, the
    keeper near the ball-goal line with lateral placement error, and each
    scene is labeled by simulating the shot against `keeper` (plus static
    defenders with `defender_catch_radius`).
    """

    x_min: float = 30.5
    x_max: float = 45.5
    y_half_range: float = 15.0
    keeper_depth_min: float = 0.8
    keeper_depth_max: float = 4.0
    keeper_lateral_spread: float = 5.0
    max_defenders: int = 5
    defender_catch_radius: float = 1.0
    kick_power_min: float = 70.0
    kick_power_max: float = 100.0
    target_margin: float = 1.5
    body_angle_spread: float = 0.4
    dribble_speed_max: float = 0.3
    keeper: KeeperModel = KeeperModel()

    def __post_init__(self) -> None:
        if self.x_min >= self.x_max:
            raise ValueError("empty ball sampling region: x_min >= x_max")
        if self.y_half_range <= 0:
            raise ValueError("empty ball sampling region: y_half_range <= 0")
        if self.keeper_depth_min > self.keeper_depth_max or self.keeper_depth_min < 0:
            raise ValueError("invalid keeper depth range")
        if not 0 <= self.max_defenders <= MAX_DEFENDERS:
            raise ValueError(f"max_defenders must be in [0, {MAX_DEFENDERS}]")
        if self.kick_power_min > self.kick_power_max or self.kick_power_min < 0:
            raise ValueError("invalid kick power range")
        if (self.target_margin < 0 or self.keeper_lateral_spread < 0
                or self.body_angle_spread < 0 or self.dribble_speed_max < 0
                or self.defender_catch_radius < 0):
            raise ValueError("spreads, margins and radii must be >= 0")


def generate_synthetic_scenes(n: int, gen_config: GeneratorConfig,
                              dynamics: DynamicsConfig, field: FieldConfig,
                              seed: int) -> list[KickScene]:
    """Sample n labeled scenes; deterministic per seed.

    The label is ground truth: the configured shot is simulated with the
    ball dynamics and the keeper/defender interception model, and any
    non-goal outcome (caught, intercepted, wide, dead ball) becomes
    NO_GOAL.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = gen_config
    half_goal = field.goal_width / 2
    if g.x_max >= field.goal_line_x:
        raise ValueError("ball sampling region reaches the goal line")
    if g.x_min <= -field.field_length / 2 or g.y_half_range > field.field_width / 2:
        raise ValueError("ball sampling region leaves the field")
    if g.target_margin >= half_goal:
        raise ValueError("target_margin leaves no goal mouth to aim at")

    rng = np.random.default_rng(seed)
    scenes: list[KickScene] = []
    for _ in range(n):
        ball = Vec2(rng.uniform(g.x_min, g.x_max),
                    rng.uniform(-g.y_half_range, g.y_half_range))
        target = Vec2(field.goal_line_x,
                      rng.uniform(-(half_goal - g.target_margin), half_goal - g.target_margin))
        shot_angle = (target - ball).angle()
        attacker = ball - Vec2.from_angle(shot_angle, 0.7)
        body_angle = shot_angle + rng.uniform(-g.body_angle_spread, g.body_angle_spread)

        depth = rng.uniform(g.keeper_depth_min, g.keeper_depth_max)
        keeper_x = field.goal_line_x - depth
        on_line = ball.y * depth / (field.goal_line_x - ball.x)
        keeper_y = on_line + rng.uniform(-g.keeper_lateral_spread, g.keeper_lateral_spread)
        keeper = Vec2(keeper_x, min(max(keeper_y, -half_goal), half_goal))

        defenders = []
        for _ in range(int(rng.integers(0, g.max_defenders + 1))):
            dx = rng.uniform(min(ball.x + 0.5, field.goal_line_x - 1.0),
                             field.goal_line_x - 0.5)
            dy = ball.y + rng.uniform(-8.0, 8.0)
            defenders.append(Vec2(dx, min(max(dy, -field.field_width / 2),
                                          field.field_width / 2)))

        ball_velocity = Vec2.from_angle(rng.uniform(-math.pi, math.pi),
                                        rng.uniform(0.0, g.dribble_speed_max))
        power = rng.uniform(g.kick_power_min, g.kick_power_max)
        result, _ = simulate_shot(ball, ball_velocity, target, power, keeper,
                                  defenders, g.keeper, dynamics, field, rng,
                                  g.defender_catch_radius)
        scenes.append(KickScene(
            time=int(rng.integers(0, 6000)),
            ball=ball,
            ball_velocity=ball_velocity,
            attacker=attacker,
            attacker_body_angle=body_angle,
            keeper=keeper,
            defenders=tuple(defenders),
            kick_power=power,
            target=target,
            label=Label.GOAL if result is ShotResult.GOAL else Label.NO_GOAL,
        ))
    return scenes


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
