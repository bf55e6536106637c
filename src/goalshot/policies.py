"""Shot policies behind one decide() interface.

The thresholded policies run one two-stage routine. Stage one discretizes
the goal into aim points and keeps those whose analytic goal-entry
probability clears p_goal_threshold, each kept with its shot line (the
target relative to the ball, its distance and unit direction). Stage two
ranks the survivors from those lines (the MLP policy by neural score, the
LDA baseline by a two-variable linear discriminant) and kicks at the best
one if it clears the ranker's bar; only the MLP's decision keeps its rank as
neural_score. The terms that depend only on the scene are computed once per
decision: the MLP's survivor rows are one array, the scene's base row with
each survivor's target columns set in one assignment. Stage one, which
depends only on the ball and the configs, is kept for the last ball, so a
second policy deciding on the same scene (as in a paired experiment)
reuses it. The naive reference has no stages; it always shoots at the goal
center.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol, Sequence

import numpy as np

# p_goal, forward and extract_features stay bound for perfbench/tracing.py,
# which spans the scorer as mlp.score_batch: the MLP policy calls it there.
from . import mlp
from .aim import (AimConfig, HorizonError, _aim_chances, _aim_points, _ball_half,
                  p_goal, within_horizon)  # noqa: F401
from .geometry import FieldConfig, Vec2
from .mlp import MlpParams, forward  # noqa: F401
from .scenes import (KickScene, Label, angle_at, features_by_target, set_target_columns,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LdaModel:
    """Linear discriminant over (keeper distance to ball, keeper angle)."""

    weight_distance: float
    weight_angle: float
    bias: float

    def discriminant(self, keeper_distance: float, keeper_angle: float) -> float:
        return (self.weight_distance * keeper_distance
                + self.weight_angle * keeper_angle + self.bias)


def stage_one_survivors(ball: Vec2, field: FieldConfig, aim_config: AimConfig,
                        policy_config: PolicyConfig) -> list[tuple[Vec2, float, tuple]]:
    """(target, p_goal, shot line) of each aim point passing the analytic
    filter; shared by all thresholded policies. Raises HorizonError beyond
    the sigma horizon."""
    threshold = policy_config.p_goal_threshold
    return [(target, pg, line) for target, line, _, _, pg in
            _aim_chances(_ball_half(ball, field, aim_config), _aim_points(field, aim_config))
            if pg >= threshold]


@lru_cache(maxsize=1)
def _stage_one(ball: Vec2, field: FieldConfig, aim_config: AimConfig,
               policy_config: PolicyConfig) -> tuple[tuple[Vec2, float, tuple], ...] | None:
    """The horizon gate and stage one of a ball: None beyond the horizon,
    else the survivors. Every argument is a frozen value, so the entry of
    the last ball serves any later call with equal arguments."""
    try:
        return tuple(stage_one_survivors(ball, field, aim_config, policy_config))
    except HorizonError:
        return None


def _two_stage(scene: KickScene, field: FieldConfig, aim_config: AimConfig,
               policy_config: PolicyConfig,
               rank: Callable[[tuple], list[float]], bar: float,
               keep_score: bool) -> KickDecision:
    """Kick at the stage-one survivor with the largest rank above bar, kept
    as neural_score when keep_score is set; ties go to the target nearest
    the goal center, then to the smaller lateral coordinate. rank values
    every survivor at once."""
    survivors = _stage_one(scene.ball, field, aim_config, policy_config)
    if survivors is None:
        return _OUT_OF_RANGE
    values = rank(survivors) if survivors else []
    candidates = [(target, value, pg) for (target, pg, _), value in zip(survivors, values)
                  if value > bar]
    if not candidates:
        return _NO_KICK
    target, value, pg = min(candidates, key=lambda c: (-c[1], abs(c[0].y), c[0].y))
    return KickDecision(Action.KICK, target=target,
                        neural_score=value if keep_score else None, p_goal=pg)


def mlp_policy_decide(scene: KickScene, model: MlpParams, field: FieldConfig,
                      aim_config: AimConfig,
                      policy_config: PolicyConfig) -> KickDecision:
    """Two-stage decision: analytic p_goal filter, then best neural score."""
    def rank(survivors: tuple) -> list[float]:
        base, terms = features_by_target(scene, field)
        rows = np.empty((len(survivors), len(base)))
        rows[:] = base
        set_target_columns(rows, (terms(target.y, line) for target, _, line in survivors))
        return mlp.score_batch(model, rows).tolist()
    return _two_stage(scene, field, aim_config, policy_config, rank,
                      policy_config.score_threshold, True)


def lda_train(scenes: Sequence[KickScene], field: FieldConfig) -> LdaModel:
    """Least-squares fit of the two-variable discriminant with labels +/-1."""
    rows = []
    targets = []
    for scene in scenes:
        if scene.label is None:
            raise ValueError("every scene must be labeled")
        rows.append([scene.keeper.distance_to(scene.ball),
                     angle_at(scene.ball, scene.keeper, scene.target), 1.0])
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


def lda_policy_decide(scene: KickScene, model: LdaModel, field: FieldConfig,
                      aim_config: AimConfig,
                      policy_config: PolicyConfig) -> KickDecision:
    """Same two stages, ranked by the discriminant with bar 0; no neural score."""
    def rank(survivors: tuple) -> list[float]:
        ball, keeper = scene.ball, scene.keeper
        distance = keeper.distance_to(ball)
        kdx, kdy = keeper.x - ball.x, keeper.y - ball.y
        # angle_at(ball, keeper, target) from the target's line, which is
        # finite and not degenerate: 0.0 where the keeper's offset is not
        # finite or its length (distance) is below opening_angle's 1e-12
        if not (math.isfinite(kdx) and math.isfinite(kdy)) or distance < 1e-12:
            return [model.discriminant(distance, 0.0)] * len(survivors)
        return [model.discriminant(distance, math.atan2(abs(kdx * dy - kdy * dx),
                                                        kdx * dx + kdy * dy))
                for _, _, (dx, dy, _, _, _) in survivors]
    return _two_stage(scene, field, aim_config, policy_config, rank, 0.0, False)


def naive_center_policy(scene: KickScene, field: FieldConfig,
                        aim_config: AimConfig,
                        policy_config: PolicyConfig) -> KickDecision:
    """Reference floor: always kick at the goal center while in range."""
    if not within_horizon(scene.ball, field, aim_config):
        return _OUT_OF_RANGE
    return KickDecision(Action.KICK, target=field.goal_center)


class Policy(Protocol):
    name: str

    def decide(self, scene: KickScene) -> KickDecision: ...


@dataclass(frozen=True, eq=False)
class MlpPolicy:
    model: MlpParams
    field: FieldConfig
    aim_config: AimConfig
    policy_config: PolicyConfig
    name: str = "mlp"

    def decide(self, scene: KickScene) -> KickDecision:
        return mlp_policy_decide(scene, self.model, self.field, self.aim_config,
                                 self.policy_config)


@dataclass(frozen=True, eq=False)
class LdaPolicy:
    model: LdaModel
    field: FieldConfig
    aim_config: AimConfig
    policy_config: PolicyConfig
    name: str = "lda"

    def decide(self, scene: KickScene) -> KickDecision:
        return lda_policy_decide(scene, self.model, self.field, self.aim_config,
                                 self.policy_config)


@dataclass(frozen=True, eq=False)
class NaiveCenterPolicy:
    field: FieldConfig
    aim_config: AimConfig
    policy_config: PolicyConfig
    name: str = "center"

    def decide(self, scene: KickScene) -> KickDecision:
        return naive_center_policy(scene, self.field, self.aim_config,
                                   self.policy_config)
