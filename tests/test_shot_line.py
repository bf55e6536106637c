"""Stage one's shot lines against the one-pass functions.

Stage one computes each aim point's shot line once, and both rankers read
it: the MLP policy's feature rows and the LDA policy's keeper angles. For
every survivor of a drawn ball, its p_goal, the feature row the MLP policy
scores and the discriminant the LDA policy ranks by must be the bits of
p_goal, extract_features and LdaModel.discriminant(distance, angle_at(...))
of that target; the discriminant is also that of the row's keeper distance
and keeper angle (columns 4 and 6). Balls are drawn in range, beyond the
sigma horizon, next to a post and with a signed-zero y; the keeper sits now
and then on the ball.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_scene
import goalshot.mlp
import goalshot.policies
from goalshot.aim import (AimConfig, HorizonError, ShotQuery, discretize_targets, p_goal,
                          sigma, within_horizon)
from goalshot.geometry import FieldConfig, Vec2, shot_line
from goalshot.mlp import init_params
from goalshot.config import RunConfig
from goalshot.policies import (LdaModel, LdaPolicy, PolicyConfig, lda_policy_decide,
                               lda_train, mlp_policy_decide, stage_one_survivors)
from goalshot.scenes import (FEATURE_NAMES, extract_features,
                             generate_synthetic_scenes, scene_row)
from oracles import angle_at

FIELD = FieldConfig()
AIM = AimConfig()
# A low bar keeps most aim points of a near ball, so most rows are checked.
POLICY = PolicyConfig(p_goal_threshold=0.05)
MODEL = init_params((len(FEATURE_NAMES), 5, 2), np.zeros(len(FEATURE_NAMES)),
                    np.ones(len(FEATURE_NAMES)), np.random.default_rng(3))
LDA = LdaModel(weight_distance=0.1, weight_angle=1.0, bias=-0.5)

_coordinate = st.floats(min_value=-30.0, max_value=30.0)
_balls = st.one_of(
    st.builds(Vec2, st.floats(min_value=20.0, max_value=52.4), _coordinate),  # in range
    st.builds(Vec2, st.floats(min_value=-50.0, max_value=10.0), _coordinate),  # beyond
    st.builds(Vec2, st.floats(min_value=52.5 - 1e-6, max_value=52.5 - 1e-12),  # at a post
              st.sampled_from([7.01, -7.01, 7.0, -7.0])),
    st.builds(Vec2, st.floats(min_value=5.0, max_value=52.4),  # signed-zero y
              st.sampled_from([0.0, -0.0])),
)


@st.composite
def scenes(draw):
    ball = draw(_balls)
    keeper = draw(st.one_of(
        st.just(ball),
        st.builds(lambda dx: Vec2(ball.x + dx, ball.y), st.sampled_from([1e-13, -1e-13])),
        st.builds(Vec2, st.floats(min_value=44.0, max_value=52.5),
                  st.floats(min_value=-8.0, max_value=8.0))))
    defenders = draw(st.lists(st.builds(Vec2, st.floats(min_value=0.0, max_value=53.0),
                                        st.floats(min_value=-25.0, max_value=25.0)),
                              max_size=10))
    return make_scene(ball=ball, keeper=keeper, defenders=defenders,
                      attacker=Vec2(ball.x - 0.7, ball.y),
                      attacker_body_angle=draw(st.floats(min_value=-4.0, max_value=4.0)),
                      kick_power=draw(st.floats(min_value=0.0, max_value=100.0)))


def hexes(values):
    return [float.hex(float(v)) for v in values]


def ranked(scene, monkeypatch):
    """Each survivor of the scene's ball, with the feature row the MLP
    policy scores for it and the value the LDA policy ranks it by."""
    rows, values = [], []
    score_batch, rank = goalshot.mlp.score_batch, LdaPolicy._rank

    def spy_score_batch(model, features):
        rows.extend(features.tolist())
        return score_batch(model, features)

    def spy_rank(policy, rows, stage_ones):
        ranked = rank(policy, rows, stage_ones)
        values.extend(ranked)
        return ranked

    monkeypatch.setattr(goalshot.mlp, "score_batch", spy_score_batch)
    monkeypatch.setattr(LdaPolicy, "_rank", spy_rank)
    mlp = mlp_policy_decide(scene, MODEL, FIELD, AIM, POLICY)
    lda = lda_policy_decide(scene, LDA, FIELD, AIM, POLICY)
    monkeypatch.undo()
    return mlp, lda, rows, values


def check_scene(scene, monkeypatch):
    mlp, lda, rows, values = ranked(scene, monkeypatch)
    if not within_horizon(scene.ball, FIELD, AIM):
        assert mlp.out_of_range and lda.out_of_range
        with pytest.raises(HorizonError, match="sigma horizon"):
            stage_one_survivors(scene.ball, FIELD, AIM, POLICY)
        return
    survivors = stage_one_survivors(scene.ball, FIELD, AIM, POLICY)
    assert not mlp.out_of_range and not lda.out_of_range
    assert len(rows) == len(values) == len(survivors)
    distance = scene.keeper.distance_to(scene.ball)
    for (target, pg, _), row, value in zip(survivors, rows, values):
        expected = p_goal(ShotQuery(scene.ball, target), FIELD, AIM).p_goal
        assert float.hex(pg) == float.hex(expected)
        features = extract_features(replace(scene, target=target), FIELD)
        assert hexes(row) == hexes(features)
        angle = angle_at(scene.ball, scene.keeper, target)
        assert float.hex(value) == float.hex(LDA.discriminant(distance, angle))
        # The LDA's inputs are the kernel's keeper distance and keeper angle.
        assert float.hex(value) == float.hex(LDA.discriminant(features[4], features[6]))


@settings(max_examples=150, deadline=None)
@given(scene=scenes())
def test_survivor_lines_match_one_pass_functions(scene):
    with pytest.MonkeyPatch.context() as monkeypatch:
        goalshot.policies._stage_one_memo.clear()
        check_scene(scene, monkeypatch)


@settings(max_examples=150, deadline=None)
@given(ball=_balls, threshold=st.floats(min_value=0.01, max_value=0.99),
       boundary=st.one_of(st.none(), st.integers(min_value=0, max_value=AIM.target_count - 1)))
@example(ball=Vec2(40.0, 3.0), threshold=0.5, boundary=9)
@example(ball=Vec2(40.0, 0.0), threshold=0.5, boundary=0)  # a tie with the mirrored point
def test_stage_one_keeps_the_aim_points_at_or_above_the_threshold(ball, threshold, boundary):
    """Stage one keeps, in order, exactly the aim points whose p_goal clears
    p_goal_threshold, with p_goal's P(goal) and the shot line's bits. With
    boundary, the threshold is that aim point's exact P(goal), which clears it."""
    if not within_horizon(ball, FIELD, AIM):
        with pytest.raises(HorizonError):
            stage_one_survivors(ball, FIELD, AIM, POLICY)
        return
    targets = discretize_targets(FIELD, AIM)
    goals = [p_goal(ShotQuery(ball, target), FIELD, AIM).p_goal for target in targets]
    if boundary is not None and 0.0 < goals[boundary] < 1.0:
        threshold = goals[boundary]
    expected = [(target, float.hex(pg), hexes(shot_line(target.x - ball.x, target.y - ball.y)))
                for target, pg in zip(targets, goals) if pg >= threshold]
    if boundary is not None and threshold == goals[boundary]:
        assert (targets[boundary], float.hex(threshold)) in [(t, pg) for t, pg, _ in expected]
    survivors = stage_one_survivors(ball, FIELD, AIM, PolicyConfig(p_goal_threshold=threshold))
    assert [(target, float.hex(pg), hexes(line)) for target, pg, line in survivors] == expected


@pytest.mark.parametrize("scene", [
    make_scene(ball=Vec2(40.0, 0.0), keeper=Vec2(40.0, 0.0)),  # keeper on the ball
    make_scene(ball=Vec2(40.0, -0.0), keeper=Vec2(50.0, -0.0)),
    make_scene(ball=Vec2(52.5 - 1e-9, 7.01)),  # next to the left post
    make_scene(ball=Vec2(8.0, 0.0)),  # beyond the sigma horizon
])
def test_survivor_lines_on_edge_cases(scene, monkeypatch):
    goalshot.policies._stage_one_memo.clear()
    check_scene(scene, monkeypatch)


def test_cached_stage_one_serves_the_other_signed_zero(monkeypatch):
    # (x, 0.0) == (x, -0.0), so the cached stage one of one ball serves the
    # other; the rows must still be those of the second ball.
    goalshot.policies._stage_one_memo.clear()
    for y in (0.0, -0.0):
        scene = make_scene(ball=Vec2(40.0, y), keeper=Vec2(50.0, 1.0),
                           defenders=(Vec2(45.0, 2.0),))
        check_scene(scene, monkeypatch)
    # the entry is still the +0.0 ball's: the -0.0 ball was served by it
    (balls, *_), _ = goalshot.policies._stage_one_memo[0]
    assert balls == ((40.0, 0.0),) and math.copysign(1.0, balls[0][1]) == 1.0


def test_fitted_rank_is_the_discriminant_of_the_kernel_columns(monkeypatch):
    """Over one batch of generated scenes, some beyond the sigma horizon,
    each value the LDA policy ranks a survivor by is the fitted model's
    discriminant of extract_features columns 4 and 6, the keeper distance
    and the keeper angle, with the scene retargeted at that survivor."""
    config = RunConfig()
    model = lda_train(generate_synthetic_scenes(300, config.gen, config.dynamics, FIELD,
                                                seed=4).scenes(), FIELD)
    scenes = generate_synthetic_scenes(60, replace(config.gen, x_min=5.0), config.dynamics,
                                       FIELD, seed=5).scenes()
    values, rank = [], LdaPolicy._rank

    def spy_rank(*rank_args):
        ranked = rank(*rank_args)
        values.extend(ranked)
        return ranked

    monkeypatch.setattr(LdaPolicy, "_rank", spy_rank)
    LdaPolicy(model, FIELD, AIM, config.policy).decide_all([scene_row(scene) for scene in scenes])
    expected = []
    for scene in filter(lambda scene: within_horizon(scene.ball, FIELD, AIM), scenes):
        for target, _, _ in stage_one_survivors(scene.ball, FIELD, AIM, config.policy):
            features = extract_features(replace(scene, target=target), FIELD)
            expected.append(model.discriminant(features[4], features[6]))
    assert len(expected) > 100 and sum(within_horizon(s.ball, FIELD, AIM) for s in scenes) < 60
    assert hexes(values) == hexes(expected)


def test_horizon_error_is_the_value_error_sigma_raised():
    assert issubclass(HorizonError, ValueError)
    message = r"^distance 45\.0 is at or beyond the sigma horizon 45\.0$"
    with pytest.raises(HorizonError, match=message):
        sigma(45.0, AIM)
