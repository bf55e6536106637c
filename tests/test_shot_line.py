"""Stage one's shot lines against the one-pass functions.

Stage one computes each aim point's shot line once, and both rankers read
it: the MLP policy's feature rows and the LDA policy's keeper angles. For
every survivor of a drawn ball, its p_goal, the feature row the MLP policy
scores and the discriminant the LDA policy ranks by must be the bits of
p_goal, extract_features and LdaModel.discriminant(distance, angle_at(...))
of that target. Balls are drawn in range, beyond the sigma horizon, next to
a post and with a signed-zero y; the keeper sits now and then on the ball.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene
import goalshot.mlp
import goalshot.policies
from goalshot.aim import AimConfig, HorizonError, ShotQuery, p_goal, sigma, within_horizon
from goalshot.geometry import FieldConfig, Vec2
from goalshot.mlp import init_params
from goalshot.policies import (LdaModel, PolicyConfig, lda_policy_decide, mlp_policy_decide,
                               stage_one_survivors)
from goalshot.scenes import FEATURE_NAMES, angle_at, extract_features

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
    score_batch, two_stage = goalshot.mlp.score_batch, goalshot.policies._two_stage

    def spy_score_batch(model, features):
        rows.extend(features.tolist())
        return score_batch(model, features)

    def spy_two_stage(scene, field, aim_config, policy_config, rank, bar):
        survivors = goalshot.policies._stage_one(scene.ball, field, aim_config, policy_config)
        if bar == 0.0 and survivors:  # the LDA policy's rank
            values.extend(rank(survivors))
        return two_stage(scene, field, aim_config, policy_config, rank, bar)

    monkeypatch.setattr(goalshot.mlp, "score_batch", spy_score_batch)
    monkeypatch.setattr(goalshot.policies, "_two_stage", spy_two_stage)
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
        assert hexes(row) == hexes(extract_features(replace(scene, target=target), FIELD))
        angle = angle_at(scene.ball, scene.keeper, target)
        assert float.hex(value) == float.hex(LDA.discriminant(distance, angle))


@settings(max_examples=150, deadline=None)
@given(scene=scenes())
def test_survivor_lines_match_one_pass_functions(scene):
    with pytest.MonkeyPatch.context() as monkeypatch:
        goalshot.policies._stage_one.cache_clear()
        check_scene(scene, monkeypatch)


@pytest.mark.parametrize("scene", [
    make_scene(ball=Vec2(40.0, 0.0), keeper=Vec2(40.0, 0.0)),  # keeper on the ball
    make_scene(ball=Vec2(40.0, -0.0), keeper=Vec2(50.0, -0.0)),
    make_scene(ball=Vec2(52.5 - 1e-9, 7.01)),  # next to the left post
    make_scene(ball=Vec2(8.0, 0.0)),  # beyond the sigma horizon
])
def test_survivor_lines_on_edge_cases(scene, monkeypatch):
    goalshot.policies._stage_one.cache_clear()
    check_scene(scene, monkeypatch)


def test_cached_stage_one_serves_the_other_signed_zero(monkeypatch):
    # Vec2(x, 0.0) == Vec2(x, -0.0), so the cached stage one of one ball
    # serves the other; the rows must still be those of the second ball.
    goalshot.policies._stage_one.cache_clear()
    for y in (0.0, -0.0):
        scene = make_scene(ball=Vec2(40.0, y), keeper=Vec2(50.0, 1.0),
                           defenders=(Vec2(45.0, 2.0),))
        check_scene(scene, monkeypatch)
    assert goalshot.policies._stage_one.cache_info().hits > 0


def test_horizon_error_is_the_value_error_sigma_raised():
    assert issubclass(HorizonError, ValueError)
    message = r"^distance 45\.0 is at or beyond the sigma horizon 45\.0$"
    with pytest.raises(HorizonError, match=message):
        sigma(45.0, AIM)
