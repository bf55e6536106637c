import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalshot.dynamics import (UNIFORM_BLOCK, BallState, BlockUniforms, CrossingOutcome,
                               DynamicsConfig, kick, rollout_to_goal_line, step,
                               travel_range)
from goalshot.geometry import Vec2

NOISELESS = DynamicsConfig(noise_coefficient=0.0)


class TestStep:
    def test_noise_free_step(self):
        state = BallState(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 0.0))
        after = step(state, NOISELESS, None)
        assert after.position == Vec2(1.0, 0.0)
        assert after.velocity == Vec2(0.94, 0.0)
        assert after.acceleration == Vec2(0.0, 0.0)

    def test_rest_state_stays_at_rest(self):
        state = BallState(Vec2(3.0, -2.0), Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        after = step(state, NOISELESS, None)
        assert after == state

    def test_noise_bound_per_component(self):
        config = DynamicsConfig()
        rng = np.random.default_rng(5)
        for _ in range(500):
            v = Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            a = Vec2(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            state = BallState(Vec2(0.0, 0.0), v, a)
            after = step(state, config, rng)
            r_max = config.noise_coefficient * math.hypot(v.x + a.x, v.y + a.y)
            assert abs(after.position.x - (v.x + a.x)) <= r_max + 1e-12
            assert abs(after.position.y - (v.y + a.y)) <= r_max + 1e-12

    def test_rng_required_with_noise(self):
        state = BallState(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 0.0))
        with pytest.raises(ValueError):
            step(state, DynamicsConfig(), None)

    def test_displacement_capped_at_max_speed(self):
        config = DynamicsConfig(noise_coefficient=0.0, max_speed=3.0)
        state = BallState(Vec2(0.0, 0.0), Vec2(2.5, 0.0), Vec2(2.0, 0.0))
        after = step(state, config, None)
        assert math.isclose(after.position.x, 3.0, abs_tol=1e-12)
        assert after.velocity.norm() <= config.max_speed * config.decay + 1e-12

    def test_velocity_never_exceeds_max_speed(self):
        config = DynamicsConfig(noise_coefficient=0.4)
        rng = np.random.default_rng(17)
        state = BallState(Vec2(0.0, 0.0), Vec2(2.9, 0.1), Vec2(0.0, 0.0))
        for _ in range(200):
            state = step(state, config, rng)
            assert state.velocity.norm() <= config.max_speed + 1e-12
            state = BallState(state.position, state.velocity * (1 / 0.9), Vec2(0.0, 0.0)) \
                if state.velocity.norm() < 2.0 else state  # keep it lively

    def test_lateral_leaving_the_finite_range_fails(self):
        """v + a overflows in y alone: the speed cap turns y to NaN while x
        stays finite, so the flight sees no crossing and step checks itself."""
        state = BallState(Vec2(0.0, 0.0), Vec2(0.0, 1.7e308), Vec2(0.0, 1.7e308))
        with pytest.raises(ValueError) as raised:
            step(state, NOISELESS, None)
        assert str(raised.value).startswith("the ball left the finite range at (0.0, nan)")


class TestKick:
    def test_zero_power(self):
        state = BallState(Vec2(1.0, 1.0), Vec2(0.3, 0.0), Vec2(9.0, 9.0))
        after = kick(state, 0.0, 1.0, NOISELESS)
        assert after.acceleration == Vec2(0.0, 0.0)
        assert after.position == state.position
        assert after.velocity == state.velocity

    def test_full_power_along_x(self):
        after = kick(BallState.at_rest(Vec2(0.0, 0.0)), 100.0, 0.0, NOISELESS)
        assert math.isclose(after.acceleration.x, 2.7, abs_tol=1e-12)
        assert math.isclose(after.acceleration.y, 0.0, abs_tol=1e-12)

    def test_lateral_direction(self):
        after = kick(BallState.at_rest(Vec2(0.0, 0.0)), 50.0, math.pi / 2, NOISELESS)
        assert math.isclose(after.acceleration.y, 0.027 * 50.0, abs_tol=1e-12)
        assert abs(after.acceleration.x) < 1e-12

    def test_power_out_of_range(self):
        state = BallState.at_rest(Vec2(0.0, 0.0))
        with pytest.raises(ValueError):
            kick(state, -1.0, 0.0, NOISELESS)
        with pytest.raises(ValueError):
            kick(state, 100.5, 0.0, NOISELESS)


class TestRollout:
    def test_straight_noise_free_shot_hits_aim_point(self, field):
        ball = Vec2(30.0, 5.0)
        target = Vec2(field.goal_line_x, -3.0)
        direction = (target - ball).angle()
        state = kick(BallState.at_rest(ball), 100.0, direction, NOISELESS)
        outcome = rollout_to_goal_line(state, NOISELESS, field, None)
        assert outcome.crossed
        assert math.isclose(outcome.lateral_at_goal_line, -3.0, abs_tol=1e-9)

    def test_dead_ball_reports_not_crossed_in_one_step(self, field):
        outcome = rollout_to_goal_line(BallState.at_rest(Vec2(0.0, 0.0)),
                                       NOISELESS, field, None)
        assert outcome == CrossingOutcome(False, None, 1)

    def test_requires_ball_before_goal_line(self, field):
        with pytest.raises(ValueError):
            rollout_to_goal_line(BallState.at_rest(Vec2(52.5, 0.0)),
                                 NOISELESS, field, None)

    def test_lateral_spread_grows_with_distance(self, field):
        config = DynamicsConfig()
        spreads = []
        for distance in (10.0, 20.0, 30.0):
            rng = np.random.default_rng(23)
            ball = Vec2(field.goal_line_x - distance, 0.0)
            laterals = []
            for _ in range(2000):
                state = kick(BallState.at_rest(ball), 100.0, 0.0, config)
                outcome = rollout_to_goal_line(state, config, field, rng)
                assert outcome.crossed
                laterals.append(outcome.lateral_at_goal_line)
            spreads.append(np.std(laterals))
        assert spreads[0] < spreads[1] < spreads[2]

    def test_deterministic_per_seed(self, field):
        config = DynamicsConfig()
        results = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            state = kick(BallState.at_rest(Vec2(30.0, 2.0)), 90.0, -0.05, config)
            trajectory = []
            for _ in range(8):
                state = step(state, config, rng)
                trajectory.append((state.position.x, state.position.y,
                                   state.velocity.x, state.velocity.y))
            results.append(trajectory)
        assert results[0] == results[1]  # bit-identical


class TestBlockUniforms:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           draws=st.integers(min_value=0, max_value=3 * UNIFORM_BLOCK + 5))
    def test_values_equal_scalar_draws(self, seed, draws):
        source = BlockUniforms(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        got = [source.random() for _ in range(draws)]
        assert all(type(u) is float for u in got)
        assert [u.hex() for u in got] == [rng.random().hex() for _ in range(draws)]


class TestTravelRange:
    def test_geometric_sum(self):
        assert math.isclose(travel_range(1.0, 0.94), 1.0 / 0.06, rel_tol=1e-12)
        assert travel_range(0.0, 0.94) == 0.0

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            travel_range(1.0, 1.0)
        with pytest.raises(ValueError):
            travel_range(1.0, 0.0)

    def test_negative_speed(self):
        with pytest.raises(ValueError, match="^initial_speed must be >= 0$"):
            travel_range(-1.0, 0.94)

    def test_stepper_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            speed = rng.uniform(0.2, 2.8)
            decay = rng.uniform(0.5, 0.97)
            config = DynamicsConfig(decay=decay, noise_coefficient=0.0)
            state = BallState(Vec2(0.0, 0.0), Vec2(speed, 0.0), Vec2(0.0, 0.0))
            while state.velocity.norm() >= 1e-12:
                state = step(state, config, None)
            assert math.isclose(state.position.x, travel_range(speed, decay),
                                abs_tol=1e-9)

    def test_partial_sums_match_stepper(self):
        speed, decay = 1.7, 0.91
        config = DynamicsConfig(decay=decay, noise_coefficient=0.0)
        state = BallState(Vec2(0.0, 0.0), Vec2(speed, 0.0), Vec2(0.0, 0.0))
        for n in range(1, 60):
            state = step(state, config, None)
            expected = speed * (1.0 - decay ** n) / (1.0 - decay)
            assert math.isclose(state.position.x, expected, abs_tol=1e-9)
