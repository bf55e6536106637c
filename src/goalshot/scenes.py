"""Kick scenes: data model, feature extraction, dataset utilities, and a
synthetic labeled-scene generator.

A scene is the world snapshot at the moment of a shot: ball, attacker,
keeper, up to ten field defenders, the kick parameters, and the eventual
outcome. A batch of scenes is a `SceneTable`: time as Python ints, the
twelve SCALAR_COLUMNS in float64, the defenders as an (n, 10, 2) array
with a count per row, and a GOAL mask, the label past the table.
`SceneTable.load` reads one from CSV (CSV_HEADER), each value the float its
cell parses to, `generate_synthetic_scenes` draws one and labels each
scene with a shot, `save_scenes` writes one, and the dataset layer (split,
balance, features, statistics) takes one. `draw_scenes` gives an
experiment the unlabelled rows of the generator's kernel (`SceneRow`: the
SCALAR_COLUMNS values and the (x, y) defenders), checked once when drawn;
other modules read a row through `ball_of`, `velocity_of`, `keeper_of` and
`power_of`, so the layout stays here. A `KickScene` is the checked
one-scene view at the edge (`scene_row` gives its row; `SceneTable.scenes()`
gives a table's), slotted so that a scene per row carries no instance dict.
`scene_features` is the one feature kernel, on plain
floats: it builds every row of the canonical 22 features, a scene's
(`extract_features`), a survivor's (the MLP policy) and a table row's
(`feature_matrix`), so a row has the same bits, and a bad row the same
error, wherever it is built.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .aim import GOAL_LINE_TOLERANCE
from .dynamics import BlockUniforms, DynamicsConfig
from .geometry import FieldConfig, Vec2, _located, _require_finite, shot_line
from .keeper import DEFAULT_DEFENDER_CATCH_RADIUS, KeeperModel, ShotResult, simulate_shot

MAX_DEFENDERS = 10


class Label(enum.Enum):
    GOAL = "GOAL"
    NO_GOAL = "NO_GOAL"


@dataclass(frozen=True, slots=True)
class KickScene:
    """One shot situation, checked: the one-scene view that a policy's
    decide takes. `label` is None for scenes still to be resolved."""

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


def _threats(attacker_x: float, ball_x: float, ball_y: float,
             defenders: Iterable[Sequence[float]],
             field: FieldConfig) -> list[tuple[float, float, float]]:
    """(distance to the ball, x, y) of each (x, y) defender that can
    threaten the shot: between the attacker's x and the goal line, laterally
    inside the keeper's great area. Nearest the ball first."""
    half_band = field.penalty_area_width / 2
    kept = [(math.hypot(ball_x - x, ball_y - y), x, y) for x, y in defenders
            if attacker_x <= x <= field.goal_line_x and abs(y) <= half_band]
    kept.sort(key=itemgetter(0))
    return kept


# The FEATURE_NAMES columns that depend on the aim point: the keeper's
# offset from the shot line and its angle, the attacker's body-to-shot
# angle, the distance to the target, its lateral, and the two defender offsets.
TARGET_COLUMNS: tuple[int, ...] = (5, 6, 8, 9, 13, 16, 19)
_TARGET_INDEX = np.array(TARGET_COLUMNS)


def scene_features(values: Sequence[float], defenders: Iterable[Sequence[float]],
                   field: FieldConfig
                   ) -> tuple[list[float], Callable[[float, tuple], tuple[float, ...]]]:
    """The feature kernel, on plain floats: a scene's SCALAR_COLUMNS values
    and its (x, y) defenders. Returns the scene's base row, the 22 features
    of extract_features with NaN in the TARGET_COLUMNS, and the function
    that gives those columns' values for an aim point from its y and its
    shot line shot_line(target_x - ball_x, target_y - ball_y)."""
    bx, by, _, _, ax, ay, body_angle, kx, ky, kick_power = values[:10]
    left, right, center = field.post_left, field.post_right, field.goal_center
    d_post_left = math.hypot(left.x - bx, left.y - by)
    d_post_right = math.hypot(right.x - bx, right.y - by)
    threats = _threats(ax, bx, by, defenders, field)
    keeper_distance = math.hypot(bx - kx, by - ky)
    # The keeper and the threats relative to the ball, raising as a Vec2 of
    # the difference would on an overflow.
    kdx, kdy = kx - bx, ky - by
    if not (math.isfinite(kdx) and math.isfinite(kdy)):
        _require_finite("Vec2 component", kdx, kdy)
    near = []
    for d_ball, x, y in threats[:3]:
        dx, dy = x - bx, y - by
        if not (math.isfinite(dx) and math.isfinite(dy)):
            _require_finite("Vec2 component", dx, dy)
        near.append((d_ball, dx, dy, math.hypot(center.x - x, center.y - y)))
    near += [(field.field_length, None, None, field.field_length)] * (3 - len(near))
    # Two threats give three features each, the third its distance to the ball.
    (d1, x1, y1, g1), (d2, x2, y2, g2), (third, _, _, _) = near
    no_offset = field.penalty_area_width
    # The posts' angle at the attacker, 0.0 where an offset is not finite or below 1e-12
    ux, uy, vx, vy = left.x - ax, left.y - ay, right.x - ax, right.y - ay
    vision = (math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
              if all(map(math.isfinite, (ux, uy, vx, vy)))
              and math.hypot(ux, uy) >= 1e-12 and math.hypot(vx, vy) >= 1e-12 else 0.0)
    nan = math.nan
    base = [bx, by, kx, ky, keeper_distance, nan, nan, vision, nan, nan,
            min(d_post_left, d_post_right), max(d_post_left, d_post_right), kick_power,
            nan, float(len(threats)), d1, nan, g1, d2, nan, g2, third]

    def terms(target_y: float, line: tuple) -> tuple[float, ...]:
        dx, dy, distance, ux, uy = line
        # The keeper-to-target angle at the ball, 0.0 when the keeper is on the ball
        keeper_angle = (0.0 if keeper_distance < 1e-12
                        else math.atan2(abs(kdx * dy - kdy * dx), kdx * dx + kdy * dy))
        return (abs(ux * kdy - uy * kdx), keeper_angle,
                abs(math.remainder(body_angle - math.atan2(dy, dx), math.tau)), distance,
                target_y, no_offset if x1 is None else abs(ux * y1 - uy * x1),
                no_offset if x2 is None else abs(ux * y2 - uy * x2))
    return base, terms


def extract_features(scene: KickScene, field: FieldConfig) -> np.ndarray:
    """Canonical 22-feature view of a scene, a float64 (22,) array in
    FEATURE_NAMES order.

    Derived angles/offsets are measured against the shooting line (ball to
    target). Features of absent defenders are imputed with "no threat"
    extremes: field_length for distances, penalty_area_width for offsets.
    """
    ball, target = scene.ball, scene.target
    base, terms = scene_features(*scene_row(scene), field)
    row = np.array(base)
    row[_TARGET_INDEX] = terms(target.y, shot_line(target.x - ball.x, target.y - ball.y))
    return row


def set_target_columns(rows: np.ndarray, targets: Iterable[tuple[float, ...]]) -> np.ndarray:
    """rows, an (n, 22) array, with the TARGET_COLUMNS of each row set from
    its tuple of scene_features target terms, in one assignment."""
    n = len(rows)
    rows[:, _TARGET_INDEX] = np.fromiter(itertools.chain.from_iterable(targets), float,
                                         n * len(TARGET_COLUMNS)).reshape(n, len(TARGET_COLUMNS))
    return rows


def feature_matrix(table: SceneTable, field: FieldConfig) -> np.ndarray:
    """(n, 22) matrix of the table's features: each row's scene_features
    with its own target's terms, as extract_features gives them, so bit-equal
    to it and raising its error at the first bad row."""
    bases, targets = [], []
    for values, defenders in table.rows():
        base, terms = scene_features(values, zip(defenders[::2], defenders[1::2]), field)
        bx, by, tx, ty = values[0], values[1], values[10], values[11]
        bases.append(base)
        targets.append(terms(ty, shot_line(tx - bx, ty - by)))
    rows = np.array(bases, dtype=float).reshape(len(bases), len(FEATURE_NAMES))  # (0, 22) if empty
    return set_target_columns(rows, targets)


# ---------------------------------------------------------------------------
# CSV persistence and the scene table
# ---------------------------------------------------------------------------

_BASE_COLUMNS = (
    "time", "ball_x", "ball_y", "ball_vx", "ball_vy",
    "attacker_x", "attacker_y", "attacker_body_angle",
    "keeper_x", "keeper_y", "kick_power", "target_x", "target_y", "label",
)
CSV_HEADER: tuple[str, ...] = _BASE_COLUMNS + tuple(
    f"def{i}_{axis}" for i in range(1, MAX_DEFENDERS + 1) for axis in ("x", "y"))
SCALAR_COLUMNS: tuple[str, ...] = _BASE_COLUMNS[1:13]
_LABELS = (Label.GOAL.value, Label.NO_GOAL.value)


# A scene as plain floats, and the accessors of its values' points and power.
SceneRow = tuple[list[float], list[tuple[float, float]]]
ball_of = itemgetter(0, 1)
velocity_of = itemgetter(2, 3)
keeper_of = itemgetter(7, 8)
power_of = itemgetter(9)


def scene_row(scene: KickScene) -> SceneRow:
    """The scene's row."""
    return ([scene.ball.x, scene.ball.y, scene.ball_velocity.x, scene.ball_velocity.y,
             scene.attacker.x, scene.attacker.y, scene.attacker_body_angle,
             scene.keeper.x, scene.keeper.y, scene.kick_power, scene.target.x, scene.target.y],
            [(d.x, d.y) for d in scene.defenders])


def save_scenes(table: SceneTable, path: str | Path) -> None:
    """Write the table as UTF-8 CSV, row i scene i, in one write. Each float
    is written as its repr, so SceneTable.load reads back the same bits. No
    cell (an int, a float repr, a label) needs quoting, so a line is its
    cells joined by commas and ended by \\r\\n: the bytes csv.writer writes."""
    labels = [Label.GOAL.value if g else Label.NO_GOAL.value for g in table.goal.tolist()]
    lines = [",".join(CSV_HEADER)]
    for time, (values, defenders), label in zip(table.time.tolist(), table.rows(), labels):
        cells = ",".join([str(time), *map(repr, values), label, *map(repr, defenders)])
        # the empty cells of the defenders not given
        lines.append(cells + "," * (2 * MAX_DEFENDERS - len(defenders)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _parse_float(raw: str, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"line {line}, column '{column}': not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line}, column '{column}': non-finite value {raw!r}")
    return value


def _records(reader) -> Iterator[list[str]]:
    """The rows of a csv.reader; a record it cannot parse (a cell over its
    field size limit) raises ValueError naming the line it ends on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def _checked_cells(line: int, row: list[str]) -> tuple[int, list[float]]:
    """The time and the floats of a CSV row (the scalar columns, then x, y of
    each defender given), checked cell by cell in column order. Raises naming
    the first bad cell."""
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"line {line}: expected {len(CSV_HEADER)} cells, got {len(row)}")
    try:
        time = int(row[0])
    except ValueError:
        raise ValueError(f"line {line}, column 'time': not an integer: {row[0]!r}") from None
    values = [_parse_float(raw, line, name) for raw, name in zip(row[1:13], SCALAR_COLUMNS)]
    if row[13] not in _LABELS:
        raise ValueError(f"line {line}, column 'label': expected GOAL or NO_GOAL, got {row[13]!r}")
    for i in range(1, MAX_DEFENDERS + 1):
        raw_x, raw_y = row[12 + 2 * i], row[13 + 2 * i]
        if raw_x == "" and raw_y == "":
            continue
        if raw_x == "" or raw_y == "":
            raise ValueError(
                f"line {line}, column 'def{i}_x': defender {i} has only one coordinate")
        values += (_parse_float(raw_x, line, f"def{i}_x"), _parse_float(raw_y, line, f"def{i}_y"))
    return time, values


@dataclass(frozen=True, eq=False)
class SceneTable:
    """Labeled scenes column by column (see the module docstring); row i is
    scene i of the CSV."""

    time: np.ndarray  # (n,) object: Python ints
    values: np.ndarray  # (n, 12) float64: the SCALAR_COLUMNS
    defenders: np.ndarray  # (n, MAX_DEFENDERS, 2) float64: defender_count given, then NaN
    defender_count: np.ndarray  # (n,) int
    goal: np.ndarray  # (n,) bool: the label is GOAL

    def __len__(self) -> int:
        return len(self.goal)

    def take(self, index: np.ndarray) -> SceneTable:
        """The rows at index, in its order (repeats allowed)."""
        return SceneTable(*(getattr(self, f.name)[index] for f in fields(self)))

    def rows(self) -> Iterator[tuple[list[float], list[float]]]:
        """Each row's values and the x, y of each of its defenders in turn,
        as Python floats converted one row at a time."""
        flat_defenders = self.defenders.reshape(len(self), 2 * MAX_DEFENDERS)
        for values, defenders, n in zip(self.values, flat_defenders,
                                        (2 * self.defender_count).tolist()):
            yield values.tolist(), defenders[:n].tolist()

    @classmethod
    def _of_rows(cls, times: list[int], rows: list[list[float]], goal: list[bool]) -> SceneTable:
        """The table of rows of the SCALAR_COLUMNS values, then x, y per
        defender: the one table builder, for the CSV and the generator."""
        data = np.full((len(rows), 12 + 2 * MAX_DEFENDERS), math.nan)
        for i, row in enumerate(rows):
            data[i, :len(row)] = row
        return cls(np.array(times, dtype=object), data[:, :12],
                   data[:, 12:].reshape(len(rows), MAX_DEFENDERS, 2),
                   np.array([(len(row) - 12) // 2 for row in rows], dtype=np.intp),
                   np.array(goal, dtype=bool))

    def scenes(self) -> list[KickScene]:
        """Each row as a KickScene."""
        return [KickScene(time, Vec2(bx, by), Vec2(vx, vy), Vec2(ax, ay), body, Vec2(kx, ky),
                          tuple(map(Vec2, defenders[::2], defenders[1::2])), power, Vec2(tx, ty),
                          Label.GOAL if goal else Label.NO_GOAL)
                for time, ((bx, by, vx, vy, ax, ay, body, kx, ky, power, tx, ty), defenders),
                goal in zip(self.time.tolist(), self.rows(), self.goal.tolist())]

    @classmethod
    def load(cls, path: str | Path, field: FieldConfig = FieldConfig(),
             dynamics: DynamicsConfig = DynamicsConfig()) -> SceneTable:
        """Read scenes from CSV, validating the header, every cell, that the
        ball lies inside the field and before the goal line, that the target
        lies on the goal line within the mouth, and that the kick power lies
        in [0, dynamics.max_power]. Errors begin "scene file <path>: " and
        name the first bad line (line 1 is the header), in it the first bad
        cell in column order, else the first failed range. A row is checked
        in one pass on plain floats; only a row that fails is scanned cell by
        cell."""
        return _located(f"scene file {path}", cls._load, path, field, dynamics)

    @classmethod
    def _load(cls, path: str | Path, field: FieldConfig, dynamics: DynamicsConfig) -> SceneTable:
        """load, its errors without the file's name."""
        half_length, half_width = field.field_length / 2, field.field_width / 2
        goal_x, max_power = field.goal_line_x, dynamics.max_power
        half_mouth = field.goal_width / 2 + GOAL_LINE_TOLERANCE
        times, rows, goal = [], [], []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _records(csv.reader(fh))
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("empty file: missing header row") from None
            if tuple(header) != CSV_HEADER:
                raise ValueError(f"unexpected header: expected {','.join(CSV_HEADER)}")
            for line, row in enumerate(reader, start=2):
                try:
                    if len(row) != len(CSV_HEADER) or row[13] not in _LABELS:
                        raise ValueError
                    # The defender cells given, taken here only in pairs from def1_x on.
                    given = list(filter(None, row[14:]))
                    if len(given) % 2 or any(row[14 + len(given):]):
                        raise ValueError
                    time = int(row[0])
                    values = [*map(float, row[1:13]), *map(float, given)]
                    if not all(map(math.isfinite, values)):
                        raise ValueError
                except ValueError:
                    time, values = _checked_cells(line, row)
                ball_x, ball_y = values[0], values[1]
                power, target_x, target_y = values[9:12]
                if abs(ball_x) > half_length or abs(ball_y) > half_width:
                    raise ValueError(f"line {line}, column 'ball_x': ball outside field bounds")
                if ball_x >= goal_x:
                    raise ValueError(f"line {line}, column 'ball_x': ball on or past the goal line")
                if abs(target_x - goal_x) > GOAL_LINE_TOLERANCE:
                    raise ValueError(f"line {line}, column 'target_x': target off the goal line")
                if abs(target_y) > half_mouth:
                    raise ValueError(
                        f"line {line}, column 'target_y': target outside the goal mouth")
                if power > max_power:
                    raise ValueError(f"line {line}, column 'kick_power': power above "
                                     f"max_power {max_power}")
                if power < 0:
                    raise ValueError(f"line {line}: kick_power must be finite and >= 0")
                times.append(time)
                rows.append(values)
                goal.append(row[13] == Label.GOAL.value)
        return cls._of_rows(times, rows, goal)


def load_scenes(path: str | Path, field: FieldConfig = FieldConfig(),
                dynamics: DynamicsConfig = DynamicsConfig()) -> list[KickScene]:
    """The scenes of a CSV file, read and checked by SceneTable.load."""
    return SceneTable.load(path, field, dynamics).scenes()


# ---------------------------------------------------------------------------
# Splitting, balancing, statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    train: SceneTable
    validation: SceneTable
    test: SceneTable


def split_dataset(table: SceneTable, seed: int) -> DatasetSplit:
    """Seeded shuffle followed by a contiguous 50/25/25 partition.

    Quotas are rounded half-up, keeping every part within one scene of its
    exact proportion.
    """
    n = len(table)
    if n < 4:
        raise ValueError(f"need at least 4 scenes to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.5 + 0.5)
    n_val = int(n * 0.25 + 0.5)
    parts = [order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]]
    return DatasetSplit(*(table.take(part) for part in parts))


def balance_by_replication(train: SceneTable, seed: int) -> SceneTable:
    """Equalize class counts by replicating minority rows, appended to the
    training rows.

    Whole passes over the minority first, then a seeded sample without
    replacement for the remainder. The majority class is untouched.
    """
    goals, no_goals = np.flatnonzero(train.goal), np.flatnonzero(~train.goal)
    if not goals.size or not no_goals.size:
        raise ValueError("both classes must be present to balance")
    minority, majority = (goals, no_goals) if goals.size < no_goals.size else (no_goals, goals)
    passes, remainder = divmod(majority.size - minority.size, minority.size)
    picks = np.random.default_rng(seed).choice(minority.size, size=remainder, replace=False)
    index = np.concatenate([np.arange(len(train)), np.tile(minority, passes), minority[picks]])
    return train.take(index)


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


def univariate_stats(matrix: np.ndarray) -> UnivariateReport:
    """Per-feature mean/std/median/1st/99th percentile and missing fraction
    of a feature_matrix.

    Percentiles interpolate linearly between order statistics; std is the
    population standard deviation.
    """
    if not len(matrix):
        raise ValueError("need at least one scene")
    stats: dict[str, FeatureStats] = {}
    for name, column in zip(FEATURE_NAMES, matrix.T):
        finite = column[np.isfinite(column)]
        missing = 1.0 - finite.size / column.size
        p1, median, p99 = np.percentile(finite, [1, 50, 99], method="linear")
        stats[name] = FeatureStats(float(finite.mean()), float(finite.std()), float(median),
                                   float(p1), float(p99), float(missing))
    return UnivariateReport(stats)


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling distributions for synthetic shot situations.

    Positions are sampled in an attack zone in front of the goal, the
    keeper near the ball-goal line with lateral placement error.
    generate_synthetic_scenes labels each scene by simulating the shot
    against `keeper` (plus static defenders with `defender_catch_radius`).
    """

    x_min: float = 30.5
    x_max: float = 45.5
    y_half_range: float = 15.0
    keeper_depth_min: float = 0.8
    keeper_depth_max: float = 4.0
    keeper_lateral_spread: float = 5.0
    max_defenders: int = 5
    defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS
    kick_power_min: float = 70.0
    kick_power_max: float = 100.0
    target_margin: float = 1.5
    body_angle_spread: float = 0.4
    dribble_speed_max: float = 0.3
    keeper: KeeperModel = KeeperModel()

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float":
                _require_finite(f.name, getattr(self, f.name))
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
        # The ranges drawn from config bounds alone must have a finite width.
        for lo, hi in ((self.x_min, self.x_max), (-self.y_half_range, self.y_half_range),
                       (self.keeper_depth_min, self.keeper_depth_max),
                       (-self.keeper_lateral_spread, self.keeper_lateral_spread),
                       (-self.body_angle_spread, self.body_angle_spread),
                       (self.kick_power_min, self.kick_power_max)):
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError(f"sampling range [{lo!r}, {hi!r}] is too wide")


def check_generator(gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                    field: FieldConfig) -> None:
    """The checks of gen_config against the field and the dynamics, each
    error naming the config keys."""
    g, goal_x, region = gen_config, field.goal_line_x, "ball sampling region"
    if g.x_max >= goal_x:
        raise ValueError(f"{region} reaches the goal line: [gen] x_max {g.x_max!r} >= "
                         f"[field] field_length / 2 = {goal_x!r}")
    if g.x_min <= -goal_x:
        raise ValueError(f"{region} leaves the field: [gen] x_min {g.x_min!r} <= "
                         f"-[field] field_length / 2 = {-goal_x!r}")
    if g.y_half_range > field.field_width / 2:
        raise ValueError(f"{region} leaves the field: [gen] y_half_range {g.y_half_range!r} > "
                         f"[field] field_width / 2 = {field.field_width / 2!r}")
    if g.target_margin >= field.goal_width / 2:
        raise ValueError(f"no goal mouth to aim at: [gen] target_margin {g.target_margin!r} >= "
                         f"[field] goal_width / 2 = {field.goal_width / 2!r}")
    if g.kick_power_max > dynamics.max_power:
        raise ValueError(f"[gen] kick_power_max {g.kick_power_max!r} exceeds "
                         f"[dynamics] max_power {dynamics.max_power!r}")


def _scene_draws(n: int, gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                 field: FieldConfig, rng: np.random.Generator | BlockUniforms
                 ) -> Iterator[SceneRow]:
    """The generator's kernel: check_generator, then draw n scenes from rng
    on plain floats, as rows. rng is read only through random() and
    integers(low, high), so it may be a Generator or a BlockUniforms. A
    scene is drawn when the caller asks for it, so what the caller draws
    from rng between two scenes (a labelling shot, then the time) comes in
    that order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = gen_config
    check_generator(g, dynamics, field)
    half_goal = field.goal_width / 2

    random = rng.random

    def uniform(lo: float, hi: float) -> float:
        """The value of rng.uniform(lo, hi), by numpy's own formula."""
        return lo + (hi - lo) * random()

    # Config bounds as the floats numpy would convert them to.
    x_min, x_max, y_half = float(g.x_min), float(g.x_max), float(g.y_half_range)
    depth_min, depth_max = float(g.keeper_depth_min), float(g.keeper_depth_max)
    power_min, power_max = float(g.kick_power_min), float(g.kick_power_max)
    target_half = half_goal - g.target_margin
    goal_x, half_width = field.goal_line_x, field.field_width / 2
    for _ in range(n):
        bx, by = uniform(x_min, x_max), uniform(-y_half, y_half)
        ty = uniform(-target_half, target_half)
        shot_angle = math.atan2(ty - by, goal_x - bx)
        body_angle = shot_angle + uniform(-g.body_angle_spread, g.body_angle_spread)

        depth = uniform(depth_min, depth_max)
        on_line = by * depth / (goal_x - bx)
        keeper_y = on_line + uniform(-g.keeper_lateral_spread, g.keeper_lateral_spread)
        kx, ky = goal_x - depth, min(max(keeper_y, -half_goal), half_goal)

        defenders = []
        for _ in range(int(rng.integers(0, g.max_defenders + 1))):
            dx = uniform(min(bx + 0.5, goal_x - 1.0), goal_x - 0.5)
            dy = by + uniform(-8.0, 8.0)
            defenders.append((dx, min(max(dy, -half_width), half_width)))

        heading, speed = uniform(-math.pi, math.pi), uniform(0.0, g.dribble_speed_max)
        vx, vy = math.cos(heading) * speed, math.sin(heading) * speed
        power = uniform(power_min, power_max)
        yield ([bx, by, vx, vy, bx - math.cos(shot_angle) * 0.7,
                by - math.sin(shot_angle) * 0.7, body_angle, kx, ky, power, goal_x, ty],
               defenders)


def generate_synthetic_scenes(n: int, gen_config: GeneratorConfig,
                              dynamics: DynamicsConfig, field: FieldConfig,
                              seed: int) -> SceneTable:
    """Sample n labeled scenes as a table; deterministic per seed.

    The label is ground truth: each scene's shot is simulated with the
    ball dynamics and the keeper/defender interception model, drawing its
    noise from the scene stream between the scene and its time, and any
    non-goal outcome (caught, intercepted, wide, dead ball) becomes
    NO_GOAL. The scenes are drawn on plain floats and handed to the shot
    simulation as (x, y) pairs, so no Vec2 is built.
    """
    g = gen_config
    rng = np.random.default_rng(seed)
    times, rows, goal = [], [], []
    for values, defenders in _scene_draws(n, g, dynamics, field, rng):
        bx, by, vx, vy, _, _, _, kx, ky, power, tx, ty = values
        result, _ = simulate_shot((bx, by), (vx, vy), (tx, ty), power, (kx, ky),
                                  defenders, g.keeper, dynamics, field, rng,
                                  g.defender_catch_radius)
        times.append(int(rng.integers(0, 6000)))
        rows.append([*values, *itertools.chain.from_iterable(defenders)])
        goal.append(result is ShotResult.GOAL)
    return SceneTable._of_rows(times, rows, goal)


def draw_scenes(n: int, gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                field: FieldConfig, seed: int) -> list[SceneRow]:
    """The rows of n scenes still to be resolved; deterministic per seed.

    The scenes of generate_synthetic_scenes' kernel and checks, each with
    its time drawn right after it, not kept. No shot is simulated, so the
    scenes depend on the scene stream alone, not on gen_config.keeper. The
    kernel reads a BlockUniforms over default_rng(seed), the defender count
    and the time from one uniform each, so these are not the generator's
    scenes on the same seed."""
    rng = BlockUniforms(np.random.default_rng(seed))
    rows = []
    for row in _scene_draws(n, gen_config, dynamics, field, rng):
        rng.integers(0, 6000)  # the time
        rows.append(row)
    return rows
