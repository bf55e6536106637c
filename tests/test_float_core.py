"""The float simulation core against a Vec2 reference.

`rollout_to_goal_line` and `simulate_shot` step the ball on plain floats.
The reference loops below step it through the public `step` and resolve
the shot with `Vec2` arithmetic, performing the same float operations in
the same order. Results, step counts and the generator state afterwards
must match exactly, including the sign of a zero lateral.
"""

import numpy as np
import pytest

from goalshot.dynamics import (STOP_SPEED, BallState, CrossingOutcome, DynamicsConfig,
                               kick, rollout_to_goal_line, step)
from goalshot.geometry import FieldConfig, Vec2
from goalshot.keeper import KeeperModel, ShotResult, simulate_shot

FIELD = FieldConfig()
CONFIGS = (DynamicsConfig(), DynamicsConfig(noise_coefficient=0.0),
           DynamicsConfig(noise_coefficient=0.3, max_speed=1.5))


def reference_rollout(state, config, field, rng, max_steps=10_000):
    current = state
    for n in range(1, max_steps + 1):
        prev = current.position
        current = step(current, config, rng)
        pos = current.position
        if pos.x >= field.goal_line_x:
            t = (field.goal_line_x - prev.x) / (pos.x - prev.x)
            return CrossingOutcome(True, prev.y + t * (pos.y - prev.y), n)
        if current.velocity.norm() < STOP_SPEED:
            return CrossingOutcome(False, None, n)
    return CrossingOutcome(False, None, max_steps)


def _segment_distance(point, a, b):
    ab = b - a
    length_sq = ab.dot(ab)
    if length_sq < 1e-18:
        return point.distance_to(a)
    t = max(0.0, min(1.0, (point - a).dot(ab) / length_sq))
    return point.distance_to(a + ab * t)


def reference_shot(ball, ball_velocity, target, power, keeper, defenders,
                   model, config, field, rng, defender_catch_radius=1.0,
                   max_steps=10_000):
    state = kick(BallState.at_rest(ball), power, (target - ball).angle(), config)
    state = BallState(state.position, ball_velocity, state.acceleration)
    for n in range(1, max_steps + 1):
        prev = state.position
        state = step(state, config, rng)
        pos = state.position
        crossed = pos.x >= field.goal_line_x
        if crossed:
            t = (field.goal_line_x - prev.x) / (pos.x - prev.x)
            path_end = Vec2(field.goal_line_x, prev.y + t * (pos.y - prev.y))
        else:
            path_end = pos
        if _segment_distance(keeper, prev, path_end) <= model.catch_radius:
            return ShotResult.CAUGHT, n
        for defender in defenders:
            if _segment_distance(defender, prev, path_end) <= defender_catch_radius:
                return ShotResult.CAUGHT, n
        if crossed:
            if abs(path_end.y) <= field.goal_width / 2:
                return ShotResult.GOAL, n
            return ShotResult.WIDE, n
        speed = state.velocity.norm()
        if speed < STOP_SPEED:
            return ShotResult.CAUGHT, n
        if n > model.reaction_delay and model.max_speed > 0:
            direction = state.velocity * (1.0 / speed)
            aim = pos + direction * max(0.0, (keeper - pos).dot(direction))
            if model.positioning_noise > 0:
                jitter = rng.normal(0.0, model.positioning_noise, 2)
                aim = Vec2(aim.x + jitter[0], aim.y + jitter[1])
            gap = aim - keeper
            if gap.norm() > model.max_speed:
                gap = gap * (model.max_speed / gap.norm())
            keeper = keeper + gap
    return ShotResult.CAUGHT, max_steps


def _signed(rng, low, high):
    """A uniform draw, or now and then a signed zero."""
    u = rng.random()
    return -0.0 if u < 0.1 else 0.0 if u < 0.2 else rng.uniform(low, high)


@pytest.mark.parametrize("config", CONFIGS)
def test_rollout_matches_step_reference(config):
    cases = np.random.default_rng(8)
    for seed in range(300):
        ball = Vec2(cases.uniform(20.0, 52.0), _signed(cases, -10.0, 10.0))
        state = BallState(ball, Vec2(_signed(cases, -0.5, 1.0), _signed(cases, -0.5, 0.5)),
                          Vec2(_signed(cases, 0.0, 3.0), _signed(cases, -1.0, 1.0)))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = rollout_to_goal_line(state, config, FIELD, got_rng)
        expected = reference_rollout(state, config, FIELD, ref_rng)
        assert repr(got) == repr(expected)
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("config", CONFIGS)
def test_simulate_shot_matches_vec2_reference(config):
    cases = np.random.default_rng(9)
    for seed in range(300):
        ball = Vec2(cases.uniform(25.0, 50.0), _signed(cases, -15.0, 15.0))
        target = Vec2(FIELD.goal_line_x, _signed(cases, -9.0, 9.0))
        velocity = Vec2(_signed(cases, -0.3, 0.3), _signed(cases, -0.3, 0.3))
        keeper = Vec2(cases.uniform(48.0, 52.0), cases.uniform(-7.0, 7.0))
        defenders = tuple(Vec2(cases.uniform(ball.x, 52.0), cases.uniform(-12.0, 12.0))
                          for _ in range(int(cases.integers(0, 4))))
        model = KeeperModel(max_speed=cases.choice([0.0, 0.28, 1.0]),
                            reaction_delay=int(cases.integers(0, 3)),
                            catch_radius=cases.uniform(0.0, 1.0),
                            positioning_noise=cases.choice([0.0, 0.15]))
        power = cases.choice([0.0, cases.uniform(20.0, 100.0)])
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simulate_shot(ball, velocity, target, power, keeper, defenders,
                            model, config, FIELD, got_rng)
        expected = reference_shot(ball, velocity, target, power, keeper, defenders,
                                  model, config, FIELD, ref_rng)
        assert got == expected
        assert got_rng.random() == ref_rng.random()
