"""Shot policies behind one decide_all() interface.

A policy decides a batch of scenes at once, as the scenes of one game:
decisions never depend on outcomes. A batch is a list of scene rows
(scenes.SceneRow); decide takes one checked KickScene and decides the batch
of its row. The thresholded policies are one type, _TwoStagePolicy, whose
decide_all runs both stages. Stage one keeps the aim points whose analytic
goal-entry probability clears p_goal_threshold, each with its shot line
(the target relative to the ball, its distance and unit direction). Stage
two ranks the survivors from those lines and kicks at the best one if it
clears the ranker's bar. A subclass gives only what differs: its name, its
bar, whether the top rank is kept as the decision's neural_score, and
_rank, which values the survivors. MlpPolicy ranks by neural score, all of
a batch's survivor rows in one score_batch call, with bar score_threshold,
and keeps the score; LdaPolicy ranks by a two-variable linear discriminant
with bar 0. Stage one depends only on the ball and the configs and is kept
for the last batch, so a second policy deciding the same scenes reuses it.
A scene that fails a check raises for its whole batch, before any decision
is returned. The naive reference has no stages; it always shoots at the
goal center. KickDecision and LdaModel are slotted: no instance dict. The
configs and policies, a handful per run, keep theirs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Protocol, Sequence

import numpy as np

# p_goal, forward and extract_features stay bound for perfbench/tracing.py,
# which spans the scorer as mlp.score_batch: the MLP policy calls it there.
from . import mlp
from .aim import (AimConfig, HorizonError, _aim_chances, _aim_points, _ball_half,
                  p_goal, within_horizon)  # noqa: F401
from .geometry import FieldConfig, Point, Vec2
from .mlp import MlpParams, forward  # noqa: F401
from .scenes import (FEATURE_NAMES, KickScene, Label, SceneRow, ball_of, keeper_of,
                     scene_features, scene_row, set_target_columns,
                     extract_features)  # noqa: F401


class Action(enum.Enum):
    KICK = "KICK"
    NO_KICK = "NO_KICK"


@dataclass(frozen=True)
class PolicyConfig:
    p_goal_threshold: float = 0.70
    score_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.p_goal_threshold < 1.0:
            raise ValueError("p_goal_threshold must be in (0, 1)")
        if not 0.0 < self.score_threshold < 1.0:
            raise ValueError("score_threshold must be in (0, 1)")


@dataclass(frozen=True, slots=True)
class KickDecision:
    """out_of_range marks a NO_KICK forced by the sigma-model horizon. A
    KICK needs a target."""

    action: Action
    target: Vec2 | None = None
    neural_score: float | None = None
    p_goal: float | None = None
    out_of_range: bool = False

    def __post_init__(self) -> None:
        if self.action is Action.KICK and self.target is None:
            raise ValueError("a KICK decision needs a target")


_NO_KICK = KickDecision(Action.NO_KICK)
_OUT_OF_RANGE = KickDecision(Action.NO_KICK, out_of_range=True)


@dataclass(frozen=True, slots=True)
class LdaModel:
    """Linear discriminant over (keeper distance to ball, keeper angle)."""

    weight_distance: float
    weight_angle: float
    bias: float

    def discriminant(self, keeper_distance: float, keeper_angle: float) -> float:
        return (self.weight_distance * keeper_distance
                + self.weight_angle * keeper_angle + self.bias)


def stage_one_survivors(ball: Point, field: FieldConfig, aim_config: AimConfig,
                        policy_config: PolicyConfig) -> list[tuple[Vec2, float, tuple]]:
    """(target, p_goal, shot line) of each aim point passing the analytic
    filter; shared by all thresholded policies. Raises HorizonError beyond
    the sigma horizon."""
    return _aim_chances(_ball_half(ball, field, aim_config), _aim_points(field, aim_config),
                        policy_config.p_goal_threshold)


# The last batch's stage ones, as [(key, stage ones)]: a one-entry cache
# whose key is compared by equality, not hashed. A paired decision passes
# the very configs and ball floats of the call before it, which compare by
# identity, where hashing would run the configs' Python __hash__ each call.
_stage_one_memo: list[tuple[tuple, tuple[tuple | None, ...]]] = []


def _stage_one(balls: tuple[Point, ...], field: FieldConfig, aim_config: AimConfig,
               policy_config: PolicyConfig) -> tuple[tuple | None, ...]:
    """The horizon gate and stage one of each ball of a batch: None beyond
    the horizon, else the survivors. Every argument is a frozen value, so
    the entry of the last batch serves any later call with equal arguments."""
    key = (balls, field, aim_config, policy_config)
    for last_key, last in _stage_one_memo:
        if last_key == key:
            return last
    stage_ones = []
    for ball in balls:
        try:
            stage_ones.append(tuple(stage_one_survivors(ball, field, aim_config, policy_config)))
        except HorizonError:
            stage_ones.append(None)
    stage_ones = tuple(stage_ones)
    _stage_one_memo[:] = [(key, stage_ones)]
    return stage_ones


def _lda_inputs(ball: Point, keeper: Point, lines: Iterable[tuple]) -> tuple[float, list[float]]:
    """The discriminant's two variables: the keeper's distance to the ball
    and, per shot line, the angle at the ball between the keeper and the
    line's target. A line is read only as its first two items (dx, dy), the
    target relative to the ball, finite and at least 1e-12 long as a
    geometry.shot_line is. The angles are 0.0 where the keeper's offset is
    not finite or shorter than 1e-12."""
    (bx, by), (kx, ky) = ball, keeper
    kdx, kdy = kx - bx, ky - by
    distance = math.hypot(kdx, kdy)
    if not (math.isfinite(kdx) and math.isfinite(kdy)) or distance < 1e-12:
        return distance, [0.0 for _ in lines]
    atan2 = math.atan2
    return distance, [atan2(abs(kdx * line[1] - kdy * line[0]),
                            kdx * line[0] + kdy * line[1]) for line in lines]


def lda_train(scenes: Sequence[KickScene], field: FieldConfig) -> LdaModel:
    """Least-squares fit of the two-variable discriminant with labels +/-1,
    each scene's angle taken at its own target."""
    rows = []
    targets = []
    for scene in scenes:
        if scene.label is None:
            raise ValueError("every scene must be labeled")
        dx, dy = scene.target.x - scene.ball.x, scene.target.y - scene.ball.y
        distance, (angle,) = _lda_inputs(scene.ball, scene.keeper, [(dx, dy)])
        if not (math.isfinite(dx) and math.isfinite(dy) and math.hypot(dx, dy) >= 1e-12):
            angle = 0.0  # a target on the ball, or too far from it to subtract
        rows.append([distance, angle, 1.0])
        targets.append(1.0 if scene.label is Label.GOAL else -1.0)
    y = np.array(targets)
    if np.all(y > 0) or np.all(y < 0):
        raise ValueError("both classes must be present")
    x = np.array(rows)
    try:
        w = np.linalg.solve(x.T @ x, x.T @ y)
    except np.linalg.LinAlgError:
        raise ValueError("singular normal equations; features carry no spread") from None
    return LdaModel(weight_distance=float(w[0]), weight_angle=float(w[1]),
                    bias=float(w[2]))


class Policy(Protocol):
    """A named policy deciding a batch of scene rows: one decision per row,
    in order."""

    name: str

    def decide_all(self, rows: Sequence[SceneRow]) -> list[KickDecision]: ...


@dataclass(frozen=True, eq=False)
class _TwoStagePolicy:
    """Both stages of a thresholded policy; a subclass gives name, bar,
    keep_score and _rank."""

    model: MlpParams | LdaModel
    field: FieldConfig
    aim_config: AimConfig
    policy_config: PolicyConfig

    def decide_all(self, rows: Sequence[SceneRow]) -> list[KickDecision]:
        """Per row, kick at the stage-one survivor with the largest rank above
        bar, kept as neural_score when keep_score is set; ties go to the target
        nearest the goal center, then to the smaller lateral coordinate.
        _rank(rows, stage_ones) values the survivors of every row that has any,
        in one flat list, row after row; it is not called when none has."""
        stage_ones = _stage_one(tuple([ball_of(values) for values, _ in rows]), self.field,
                                self.aim_config, self.policy_config)
        values = self._rank(rows, stage_ones) if any(stage_ones) else []
        bar, keep_score = self.bar, self.keep_score
        decisions = []
        start = 0
        for survivors in stage_ones:
            if not survivors:
                decisions.append(_NO_KICK if survivors is not None else _OUT_OF_RANGE)
                continue
            end = start + len(survivors)
            ranks = values[start:end]
            start = end
            top = max(ranks)
            if top != top:  # max stays on a leading NaN, which clears no bar
                top = max(filter(bar.__lt__, ranks), default=bar)
            if not top > bar:
                decisions.append(_NO_KICK)
                continue
            best = ranks.index(top)
            if ranks.count(top) > 1:
                best = min((i for i, value in enumerate(ranks) if value == top),
                           key=lambda i: (abs(survivors[i][0].y), survivors[i][0].y))
            target, pg, _ = survivors[best]
            decisions.append(KickDecision(Action.KICK, target=target,
                                          neural_score=top if keep_score else None, p_goal=pg))
        return decisions


class MlpPolicy(_TwoStagePolicy):
    """Two-stage decisions: analytic p_goal filter, then best neural score,
    with every survivor row of the batch scored in one call. score_batch
    gives each row the bits of a one-row call, so each decision is the one
    its scene gets alone."""

    name = "mlp"
    keep_score = True
    bar = property(lambda self: self.policy_config.score_threshold)

    def decide(self, scene: KickScene) -> KickDecision:
        return mlp_policy_decide(scene, self.model, self.field, self.aim_config,
                                 self.policy_config)

    def _rank(self, rows: Sequence[SceneRow], stage_ones: tuple) -> list[float]:
        features = np.empty((sum(map(len, filter(None, stage_ones))), len(FEATURE_NAMES)))
        targets = []
        start = 0
        for (values, defenders), survivors in zip(rows, stage_ones):
            if survivors:
                base, terms = scene_features(values, defenders, self.field)
                features[start:start + len(survivors)] = base
                start += len(survivors)
                targets += [terms(target.y, line) for target, _, line in survivors]
        return mlp.score_batch(self.model, set_target_columns(features, targets)).tolist()


class LdaPolicy(_TwoStagePolicy):
    """Same two stages, ranked by the discriminant with bar 0; no neural score."""

    name = "lda"
    keep_score = False
    bar = 0.0

    def decide(self, scene: KickScene) -> KickDecision:
        return lda_policy_decide(scene, self.model, self.field, self.aim_config,
                                 self.policy_config)

    def _rank(self, rows: Sequence[SceneRow], stage_ones: tuple) -> list[float]:
        weight_angle, bias, shot_line_of = self.model.weight_angle, self.model.bias, itemgetter(2)
        ranks = []
        for (values, _), survivors in zip(rows, stage_ones):
            if survivors:
                distance, angles = _lda_inputs(ball_of(values), keeper_of(values),
                                               map(shot_line_of, survivors))
                # model.discriminant(distance, angle), its distance term once per scene
                near = self.model.weight_distance * distance
                ranks += [near + weight_angle * angle + bias for angle in angles]
        return ranks


@dataclass(frozen=True, eq=False)
class NaiveCenterPolicy:
    field: FieldConfig
    aim_config: AimConfig
    policy_config: PolicyConfig
    name = "center"

    def decide(self, scene: KickScene) -> KickDecision:
        return naive_center_policy(scene, self.field, self.aim_config,
                                   self.policy_config)

    def decide_all(self, rows: Sequence[SceneRow]) -> list[KickDecision]:
        kick = KickDecision(Action.KICK, target=self.field.goal_center)
        return [kick if within_horizon(ball_of(values), self.field, self.aim_config)
                else _OUT_OF_RANGE for values, _ in rows]


def mlp_policy_decide(scene: KickScene, model: MlpParams, field: FieldConfig,
                      aim_config: AimConfig, policy_config: PolicyConfig) -> KickDecision:
    """MlpPolicy.decide_all of the one scene's row."""
    return MlpPolicy(model, field, aim_config, policy_config).decide_all((scene_row(scene),))[0]


def lda_policy_decide(scene: KickScene, model: LdaModel, field: FieldConfig,
                      aim_config: AimConfig, policy_config: PolicyConfig) -> KickDecision:
    """LdaPolicy.decide_all of the one scene's row."""
    return LdaPolicy(model, field, aim_config, policy_config).decide_all((scene_row(scene),))[0]


def naive_center_policy(scene: KickScene, field: FieldConfig,
                        aim_config: AimConfig, policy_config: PolicyConfig) -> KickDecision:
    """Reference floor: always kick at the goal center while in range."""
    return NaiveCenterPolicy(field, aim_config, policy_config).decide_all([scene_row(scene)])[0]
