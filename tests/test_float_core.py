"""The float simulation core against a Vec2 reference.

`step`, `rollout_to_goal_line` and `simulate_shot` run one step loop on
plain floats. The reference loops below step the ball through
`oracles.textbook_step` and resolve the shot with `Vec2` arithmetic,
performing the same float operations in the same order, and measure every
player's distance, where the loop skips the players out of reach. Results,
step counts and the generator state afterwards must match exactly,
including the sign of a zero lateral.
"""

import math

import numpy as np
import pytest

from goalshot.dynamics import (STOP_SPEED, BallState, BlockUniforms, CrossingOutcome,
                               DynamicsConfig, kick, kick_components, rollout_to_goal_line,
                               step)
from goalshot.geometry import FieldConfig, Vec2
from goalshot.keeper import KeeperModel, ShotResult, simulate_shot
from goalshot.scenes import GeneratorConfig
from oracles import dot, normalized, textbook_step

FIELD = FieldConfig()
CONFIGS = (DynamicsConfig(), DynamicsConfig(noise_coefficient=0.0),
           DynamicsConfig(noise_coefficient=0.3, max_speed=1.5))


def reference_rollout(state, config, field, rng, max_steps=10_000):
    current = state
    for n in range(1, max_steps + 1):
        prev = current.position
        current = textbook_step(current, config, rng)
        pos = current.position
        if pos.x >= field.goal_line_x:
            t = (field.goal_line_x - prev.x) / (pos.x - prev.x)
            return CrossingOutcome(True, prev.y + t * (pos.y - prev.y), n)
        if current.velocity.norm() < STOP_SPEED:
            return CrossingOutcome(False, None, n)
    return CrossingOutcome(False, None, max_steps)


def _segment_distance(point, a, b):
    ab = b - a
    length_sq = dot(ab, ab)
    if length_sq < 1e-18:
        return point.distance_to(a)
    t = max(0.0, min(1.0, dot(point - a, ab) / length_sq))
    return point.distance_to(a + ab * t)


def reference_shot(ball, ball_velocity, target, power, keeper, defenders,
                   model, config, field, rng, defender_catch_radius=1.0,
                   max_steps=10_000):
    state = kick(BallState.at_rest(ball), power, (target - ball).angle(), config)
    state = BallState(state.position, ball_velocity, state.acceleration)
    for n in range(1, max_steps + 1):
        prev = state.position
        state = textbook_step(state, config, rng)
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
            aim = pos + direction * max(0.0, dot(keeper - pos, direction))
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


def _ball_states():
    """300 seeds, each with a ball before the goal line, some of its
    components signed zeros."""
    cases = np.random.default_rng(8)
    for seed in range(300):
        ball = Vec2(cases.uniform(20.0, 52.0), _signed(cases, -10.0, 10.0))
        yield seed, BallState(ball, Vec2(_signed(cases, -0.5, 1.0), _signed(cases, -0.5, 0.5)),
                              Vec2(_signed(cases, 0.0, 3.0), _signed(cases, -1.0, 1.0)))


@pytest.mark.parametrize("config", CONFIGS)
def test_step_matches_textbook_step(config):
    for seed, state in _ball_states():
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = step(state, config, got_rng)
        expected = textbook_step(state, config, ref_rng)
        assert repr(got) == repr(expected)
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("config", CONFIGS)
def test_rollout_matches_step_reference(config):
    for seed, state in _ball_states():
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
        # The same points as (x, y) tuples: the same shot, steps and draws.
        pairs_rng = np.random.default_rng(seed)
        pairs = simulate_shot((ball.x, ball.y), (velocity.x, velocity.y), (target.x, target.y),
                              power, (keeper.x, keeper.y), [(d.x, d.y) for d in defenders],
                              model, config, FIELD, pairs_rng)
        assert pairs == got
        assert pairs_rng.bit_generator.state == got_rng.bit_generator.state
        assert got_rng.random() == ref_rng.random()


# simulate_shot skips a player that lies farther than its radius outside the
# box of the step's path before measuring its distance; reference_shot
# measures every player. Players sit exactly at the radius from a first-step
# path, and one ulp either side of it, on each axis from both ends of the
# path and along its normal. The paths: axis-aligned and noise-free, a noisy
# diagonal, one clipped at the goal line (with players around the unclipped
# end too), and a zero-length step. Players left of the start stand behind
# the ball.
BOUNDARY_SHOTS = (
    (Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 0.0), 100.0,
     DynamicsConfig(noise_coefficient=0.0), 0),
    (Vec2(35.0, -6.0), Vec2(0.25, -0.125), Vec2(52.5, 4.0), 80.0, DynamicsConfig(), 3),
    (Vec2(51.0, 2.0), Vec2(0.0, 0.0), Vec2(52.5, -3.0), 100.0, DynamicsConfig(), 5),
    (Vec2(40.0, 1.0), Vec2(0.0, 0.0), Vec2(52.5, 1.0), 0.0, DynamicsConfig(), 7),
)


def _first_path(ball, velocity, target, power, config, seed):
    """The start, the clipped end and the unclipped end of the first step."""
    state = kick(BallState.at_rest(ball), power, (target - ball).angle(), config)
    end = textbook_step(BallState(ball, velocity, state.acceleration), config,
                        np.random.default_rng(seed)).position
    if end.x < FIELD.goal_line_x:
        return ball, end, end
    t = (FIELD.goal_line_x - ball.x) / (end.x - ball.x)
    return ball, Vec2(FIELD.goal_line_x, ball.y + t * (end.y - ball.y)), end


def _around(point, offsets):
    for dx, dy in offsets:
        x, y = point.x + dx, point.y + dy
        for nx in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            for ny in (math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)):
                yield Vec2(nx, ny)


def _boundary_players(start, end, unclipped, radius):
    axes = ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius))
    yield from _around(start, axes)
    yield from _around(end, axes)
    if unclipped != end:
        yield from _around(unclipped, axes)
    path = end - start
    if path.norm() > 0.0:
        normal = normalized(Vec2(-path.y, path.x)) * radius
        yield from _around(start + path * 0.5, ((normal.x, normal.y), (-normal.x, -normal.y)))


@pytest.mark.parametrize("radius", (1.0, 0.75))
@pytest.mark.parametrize("shot", BOUNDARY_SHOTS)
def test_prune_keeps_results_at_the_catch_radius(shot, radius):
    ball, velocity, target, power, config, seed = shot
    start, end, unclipped = _first_path(ball, velocity, target, power, config, seed)
    far_keeper = Vec2(FIELD.goal_line_x, 20.0)
    first_step = set()
    for player in _boundary_players(start, end, unclipped, radius):
        for keeper, defenders, model in (
                (player, (), KeeperModel(catch_radius=radius)),
                (far_keeper, (Vec2(start.x - 5.0, start.y), player), KeeperModel())):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = simulate_shot(ball, velocity, target, power, keeper, defenders,
                                model, config, FIELD, got_rng, radius)
            expected = reference_shot(ball, velocity, target, power, keeper, defenders,
                                      model, config, FIELD, ref_rng, radius)
            assert got == expected
            assert got_rng.random() == ref_rng.random()
            first_step.add(got[1] == 1)
    # The cases straddle the boundary: some players catch at once, some do not.
    assert first_step == ({True} if start == end else {True, False})


# The generator and the keeper draw by numpy's own formulas, which propagate
# NaN or inf where rng.uniform would raise; so no config may carry them.
@pytest.mark.parametrize("make,message", [
    (lambda: KeeperModel(catch_radius=math.nan), "catch_radius must be finite"),
    (lambda: KeeperModel(positioning_noise=math.inf), "positioning_noise must be finite"),
    (lambda: DynamicsConfig(max_speed=math.inf), "max_speed must be finite"),
    (lambda: DynamicsConfig(noise_coefficient=math.nan), "noise_coefficient must be finite"),
    (lambda: DynamicsConfig(kick_power_rate=1e300, max_power=1e300), "overflows"),
    (lambda: GeneratorConfig(kick_power_max=math.nan), "kick_power_max must be finite"),
    (lambda: GeneratorConfig(body_angle_spread=1e308), "too wide"),
    (lambda: GeneratorConfig(keeper_lateral_spread=1e308), "too wide"),
    (lambda: GeneratorConfig(x_min=-1e308, x_max=1e308), "too wide"),
])
def test_configs_reject_non_finite_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# A noise range that overflows turns the ball's position to NaN, on which
# every comparison is false: the shot used to end WIDE after one step and the
# rollout crossed at a NaN lateral, and `step` failed in Vec2 with a message
# of its own. With 1e308, r_max itself overflows; with 5e307 on a full-power
# kick, r_max is finite but the width 2 * r_max is not.
@pytest.mark.parametrize("noise", (1e308, 5e307))
def test_ball_leaving_the_finite_range_fails(noise):
    config = DynamicsConfig(noise_coefficient=noise)
    r_max = noise * math.hypot(*kick_components(100.0, 0.0, config))
    assert math.isinf(r_max) == (noise == 1e308) and math.isinf(2 * r_max)
    ball, target = Vec2(32.5, 0.0), Vec2(FIELD.goal_line_x, 0.0)
    state = kick(BallState.at_rest(ball), 100.0, 0.0, config)
    with pytest.raises(ValueError, match="the ball left the finite range"):
        step(state, config, np.random.default_rng(1))
    for rng in (np.random.default_rng(1), BlockUniforms(np.random.default_rng(1))):
        with pytest.raises(ValueError, match="the ball left the finite range"):
            rollout_to_goal_line(state, config, FIELD, rng)
    with pytest.raises(ValueError, match="the ball left the finite range"):
        simulate_shot(ball, Vec2(0.0, 0.0), target, 100.0, Vec2(FIELD.goal_line_x, 20.0),
                      (), KeeperModel(), config, FIELD, np.random.default_rng(1))


# A positioning noise near the float limit blurs the keeper's aim point to
# inf. The step toward it, scaled by max_speed / inf, used to move the keeper
# to NaN, after which no player could catch: most such shots ended as goals.
def test_keeper_step_leaving_the_finite_range_fails():
    model = KeeperModel(positioning_noise=1e308)
    ball, target, keeper = Vec2(40.0, 0.0), Vec2(FIELD.goal_line_x, 0.0), Vec2(51.0, 0.0)
    failed = 0
    for seed in range(200):
        try:
            simulate_shot(ball, Vec2(0.0, 0.0), target, 60.0, keeper, (), model,
                          DynamicsConfig(), FIELD, np.random.default_rng(seed))
        except ValueError as exc:
            assert str(exc) == ("positioning_noise 1e+308 moves the keeper's aim point "
                                "out of float range")
            failed += 1
    assert failed > 100
