"""Shared fixtures and scene-building helpers."""

import pytest
from hypothesis import Phase, settings

from goalshot.geometry import FieldConfig, Vec2
from goalshot.scenes import KickScene

# A failing property test is reported with its shrunk example but without
# the explain phase, which re-runs the example once per drawn value: on a
# list of scenes that took minutes and most of a gigabyte per failure.
settings.register_profile("goalshot", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("goalshot")


@pytest.fixture
def field():
    return FieldConfig()


def make_scene(ball=Vec2(32.5, 0.0), target=Vec2(52.5, 0.0),
               keeper=Vec2(50.0, 0.5), defenders=(), kick_power=85.0,
               attacker=None, attacker_body_angle=0.0, ball_velocity=Vec2(0.0, 0.0),
               time=0, label=None):
    if attacker is None:
        attacker = Vec2(ball.x - 0.7, ball.y)
    return KickScene(
        time=time,
        ball=ball,
        ball_velocity=ball_velocity,
        attacker=attacker,
        attacker_body_angle=attacker_body_angle,
        keeper=keeper,
        defenders=tuple(defenders),
        kick_power=kick_power,
        target=target,
        label=label,
    )


def random_scene(rng, field=FieldConfig(), label=None):
    """A random but geometrically valid scene for property tests."""
    ball = Vec2(rng.uniform(20.0, 48.0), rng.uniform(-18.0, 18.0))
    target = Vec2(field.goal_line_x, rng.uniform(-6.5, 6.5))
    keeper = Vec2(rng.uniform(46.0, 52.0), rng.uniform(-7.0, 7.0))
    defenders = tuple(
        Vec2(rng.uniform(ball.x - 5.0, 52.0), rng.uniform(-25.0, 25.0))
        for _ in range(int(rng.integers(0, 6))))
    return make_scene(
        ball=ball, target=target, keeper=keeper, defenders=defenders,
        kick_power=rng.uniform(40.0, 100.0),
        attacker=Vec2(ball.x - 0.7, ball.y + rng.uniform(-0.5, 0.5)),
        attacker_body_angle=rng.uniform(-3.0, 3.0),
        ball_velocity=Vec2(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
        time=int(rng.integers(0, 6000)),
        label=label,
    )
