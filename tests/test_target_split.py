"""The split feature and goal-probability code against a Vec2 reference.

`extract_features` and `p_goal` compute their target-independent terms
once per scene or ball and loop the aim-point terms on plain floats. The
reference functions below are the one-pass forms: the shooting line is a
`Ray`, offsets come from `signed_offset` and the keeper angle from
`angle_at`, performing the same float operations in the same order. Every
feature and every probability must match exactly, for every aim point,
and so must the error raised on an invalid input.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_scene
from goalshot.aim import (GOAL_LINE_TOLERANCE, AimConfig, ShotQuery, discretize_targets,
                          p_goal, sigma)
from goalshot.geometry import FieldConfig, Ray, Vec2, shot_line, signed_offset
from goalshot.policies import PolicyConfig, stage_one_survivors
from goalshot.scenes import (Label, SceneTable, angle_at, extract_features, feature_matrix,
                             features_by_target, filter_defenders)
from oracles import gaussian_cdf, p_miss_left, p_miss_right

FIELD = FieldConfig()
AIM_CONFIGS = (AimConfig(), AimConfig(target_count=1), AimConfig(target_inset=0.0))


def reference_features(scene, field):
    ball, target, keeper = scene.ball, scene.target, scene.keeper
    line = Ray.toward(ball, target)
    shot_angle = (target - ball).angle()
    d_post_left = ball.distance_to(field.post_left)
    d_post_right = ball.distance_to(field.post_right)
    filtered = filter_defenders(scene, field)
    wrapped = math.remainder(scene.attacker_body_angle - shot_angle, 2 * math.pi)
    values = [
        ball.x, ball.y, keeper.x, keeper.y,
        keeper.distance_to(ball),
        abs(signed_offset(line, keeper)),
        angle_at(ball, keeper, target),
        angle_at(scene.attacker, field.post_left, field.post_right),
        abs(wrapped),
        ball.distance_to(target),
        min(d_post_left, d_post_right),
        max(d_post_left, d_post_right),
        scene.kick_power,
        target.y,
        float(len(filtered)),
    ]
    for i in range(3):
        if i < len(filtered):
            d = filtered[i]
            triple = (d.distance_to(ball), abs(signed_offset(line, d)),
                      d.distance_to(field.goal_center))
        else:
            triple = (field.field_length, field.penalty_area_width, field.field_length)
        values.extend(triple if i < 2 else triple[:1])
    return values


def reference_tails(query, field, config):
    if abs(query.target.x - field.goal_line_x) > GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie on the goal line")
    if query.ball.x >= field.goal_line_x:
        raise ValueError("ball must be in front of the goal line")
    if abs(query.target.y) > field.goal_width / 2 + GOAL_LINE_TOLERANCE:
        raise ValueError("target must lie within the goal mouth")
    line = Ray.toward(query.ball, query.target)
    sigma_l = sigma(query.ball.distance_to(field.post_left), config)
    sigma_r = sigma(query.ball.distance_to(field.post_right), config)
    left = gaussian_cdf(-signed_offset(line, field.post_left) / sigma_l)
    right = gaussian_cdf(signed_offset(line, field.post_right) / sigma_r)
    return left, right, 1.0 - left - right


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _signed(rng, low, high):
    """A uniform draw, or now and then a signed zero."""
    u = rng.random()
    return -0.0 if u < 0.05 else 0.0 if u < 0.1 else rng.uniform(low, high)


def sample_scene(rng):
    """Balls from near the goal to beyond the sigma horizon, defenders in
    and out of the filter band, the keeper now and then on the ball."""
    ball = Vec2(rng.uniform(5.0, 52.4), _signed(rng, -20.0, 20.0))
    keeper = ball if rng.random() < 0.05 else Vec2(rng.uniform(45.0, 52.5),
                                                   _signed(rng, -8.0, 8.0))
    defenders = tuple(Vec2(rng.uniform(ball.x - 3.0, 53.0), rng.uniform(-25.0, 25.0))
                      for _ in range(int(rng.integers(0, 11))))
    return make_scene(ball=ball, keeper=keeper, defenders=defenders,
                      target=Vec2(FIELD.goal_line_x, rng.uniform(-7.0, 7.0)),
                      kick_power=rng.uniform(0.0, 100.0),
                      attacker=Vec2(ball.x - 0.7, ball.y + rng.uniform(-0.5, 0.5)),
                      attacker_body_angle=rng.uniform(-10.0, 10.0))


def assert_matches_reference(scene, aim_config):
    targets = discretize_targets(FIELD, aim_config)
    row = features_by_target(scene, FIELD)
    for target in targets + [scene.target]:
        expected = reference_features(replace(scene, target=target), FIELD)
        line = shot_line(target.x - scene.ball.x, target.y - scene.ball.y)
        assert row(target.y, line) == expected
        assert extract_features(replace(scene, target=target), FIELD).tolist() == expected
        query = ShotQuery(scene.ball, target)
        expected = outcome(reference_tails, query, FIELD, aim_config)
        result = outcome(p_goal, query, FIELD, aim_config)
        if isinstance(expected[0], type):
            assert result == expected
            continue
        assert (result.p_left, result.p_right, result.p_goal) == expected
        assert p_miss_left(query, FIELD, aim_config) == expected[0]
        assert p_miss_right(query, FIELD, aim_config) == expected[1]
    policy = PolicyConfig()
    expected = [(t, pg) for t, (_, _, pg) in
                ((t, reference_tails(ShotQuery(scene.ball, t), FIELD, aim_config))
                 for t in targets) if pg >= policy.p_goal_threshold]
    assert [(t, pg) for t, pg, _ in
            stage_one_survivors(scene.ball, FIELD, aim_config, policy)] == expected


def in_range(scene, aim_config):
    return all(scene.ball.distance_to(post) < aim_config.sigma_horizon
               for post in (FIELD.post_left, FIELD.post_right))


@pytest.mark.parametrize("aim_config", AIM_CONFIGS)
def test_matches_reference_on_seeded_scenes(aim_config):
    rng = np.random.default_rng(21)
    scenes = [sample_scene(rng) for _ in range(500)]
    for scene in scenes:
        if in_range(scene, aim_config):
            assert_matches_reference(scene, aim_config)
        else:
            with pytest.raises(ValueError, match="sigma horizon"):
                stage_one_survivors(scene.ball, FIELD, aim_config, PolicyConfig())
    table = SceneTable.from_scenes([replace(s, label=Label.GOAL) for s in scenes])
    assert feature_matrix(table, FIELD).tolist() == [reference_features(s, FIELD)
                                                     for s in scenes]


@pytest.mark.parametrize("aim_config", AIM_CONFIGS)
@pytest.mark.parametrize("scene", [
    make_scene(keeper=Vec2(32.5, 0.0)),  # keeper on the ball: angle_at degenerates
    make_scene(ball=Vec2(40.0, 3.0), keeper=Vec2(40.0, 3.0), defenders=(Vec2(45.0, 3.0),)),
    make_scene(defenders=()),
    make_scene(defenders=tuple(Vec2(34.0 + 1.5 * i, (-1.0) ** i * i) for i in range(10))),
    # defenders and keeper on the line to the goal center
    make_scene(keeper=Vec2(51.0, 0.0), defenders=(Vec2(40.0, 0.0), Vec2(45.0, -0.0))),
    make_scene(ball=Vec2(42.5, -5.0), defenders=(Vec2(47.5, -2.5),), keeper=Vec2(50.0, -1.0)),
    make_scene(ball=Vec2(52.5 - 1e-9, 7.01)),  # next to the left post
])
def test_matches_reference_on_edge_cases(scene, aim_config):
    assert_matches_reference(scene, aim_config)


@pytest.mark.parametrize("scene,target", [
    (make_scene(ball=Vec2(52.5, 1.0)), Vec2(52.5, 1.0)),  # ball on the target
    (make_scene(keeper=Vec2(-1e308, 0.0), ball=Vec2(1e308, 0.0)), Vec2(52.5, 0.0)),
    (make_scene(ball=Vec2(1.7e308, 0.0), defenders=(Vec2(-1.7e308, 0.0),),
                attacker=Vec2(-1.7e308, 0.0)), Vec2(52.5, 0.0)),
])
def test_feature_errors_match_reference(scene, target):
    scene = replace(scene, target=target)
    expected = outcome(reference_features, scene, FIELD)
    assert isinstance(expected[0], type)
    assert outcome(lambda: features_by_target(scene, FIELD)(
        target.y, shot_line(target.x - scene.ball.x, target.y - scene.ball.y))) == expected
    assert outcome(extract_features, scene, FIELD) == expected


@pytest.mark.parametrize("ball,target", [
    (Vec2(52.5, 0.0), Vec2(52.5, 3.0)),  # ball on the goal line
    (Vec2(30.0, 0.0), Vec2(52.0, 3.0)),  # target off the goal line
    (Vec2(30.0, 0.0), Vec2(52.5, 7.5)),  # target outside the mouth
    (Vec2(0.0, 0.0), Vec2(52.5, 0.0)),  # ball beyond the sigma horizon
])
def test_p_goal_errors_match_reference(ball, target):
    query = ShotQuery(ball, target)
    expected = outcome(reference_tails, query, FIELD, AimConfig())
    assert isinstance(expected[0], type)
    assert outcome(p_goal, query, FIELD, AimConfig()) == expected
