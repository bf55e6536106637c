import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from goalshot.aim import (AimConfig, ShotQuery, _aim_points, _check_target,
                          discretize_targets, p_goal, sigma, within_horizon)
from goalshot.geometry import FieldConfig, Vec2
from oracles import Ray, p_miss_left, p_miss_right, signed_offset

AIM = AimConfig()


def quadrature_tail(bound: float, sd: float) -> float:
    """Gaussian mass beyond `bound`, by adaptive quadrature."""
    pdf = lambda y: math.exp(-y * y / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi))
    value, abserr = quad(pdf, bound, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert abserr < 1e-10
    return value


def random_query(rng, field):
    ball = Vec2(rng.uniform(20.0, 50.0), rng.uniform(-15.0, 15.0))
    target = Vec2(field.goal_line_x, rng.uniform(-7.01, 7.01))
    return ShotQuery(ball, target)


class TestAimConfig:
    @pytest.mark.parametrize("name", ["sigma_coefficient", "sigma_horizon", "target_inset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            AimConfig(**{name: value})

    def test_finite_floats_accepted(self):
        assert AimConfig(sigma_coefficient=0.5, sigma_horizon=1e300, target_inset=0.0)


class TestSigma:
    def test_zero_distance(self):
        assert sigma(0.0, AIM) == 0.0

    def test_midpoint_value(self):
        assert math.isclose(sigma(22.5, AIM), 1.88 * math.log(2.0), abs_tol=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 44.9, 1000)
        values = [sigma(d, AIM) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma(45.0, AIM)
        with pytest.raises(ValueError):
            sigma(60.0, AIM)
        with pytest.raises(ValueError):
            sigma(-0.1, AIM)


class TestMissProbabilities:
    def test_target_on_left_post_gives_half(self, field):
        query = ShotQuery(Vec2(20.0, 0.0), field.post_left)
        assert math.isclose(p_miss_left(query, field, AIM), 0.5, abs_tol=1e-6)

    def test_target_on_right_post_gives_half(self, field):
        query = ShotQuery(Vec2(20.0, 0.0), field.post_right)
        assert math.isclose(p_miss_right(query, field, AIM), 0.5, abs_tol=1e-6)

    def test_straight_central_shot_rarely_misses(self, field):
        query = ShotQuery(Vec2(32.5, 0.0), Vec2(52.5, 0.0))
        left = p_miss_left(query, field, AIM)
        assert left < 1e-8
        assert math.isclose(left, p_miss_right(query, field, AIM), abs_tol=1e-12)

    def test_matches_quadrature(self, field):
        rng = np.random.default_rng(3)
        for _ in range(50):
            query = random_query(rng, field)
            line = Ray.toward(query.ball, query.target)
            s_l = signed_offset(line, field.post_left)
            s_r = signed_offset(line, field.post_right)
            sd_l = sigma(query.ball.distance_to(field.post_left), AIM)
            sd_r = sigma(query.ball.distance_to(field.post_right), AIM)
            assert math.isclose(p_miss_left(query, field, AIM),
                                quadrature_tail(s_l, sd_l), abs_tol=1e-9)
            assert math.isclose(p_miss_right(query, field, AIM),
                                quadrature_tail(-s_r, sd_r), abs_tol=1e-9)

    def test_mirror_symmetry(self, field):
        rng = np.random.default_rng(5)
        for _ in range(100):
            query = random_query(rng, field)
            mirrored = ShotQuery(Vec2(query.ball.x, -query.ball.y),
                                 Vec2(query.target.x, -query.target.y))
            assert math.isclose(p_miss_right(query, field, AIM),
                                p_miss_left(mirrored, field, AIM), abs_tol=1e-12)


class TestPGoal:
    def test_close_central_shot_is_nearly_sure(self, field):
        result = p_goal(ShotQuery(Vec2(50.5, 0.0), Vec2(52.5, 0.0)), field, AIM)
        assert result.p_goal > 0.999

    def test_partition_of_unity(self, field):
        rng = np.random.default_rng(7)
        for _ in range(500):
            result = p_goal(random_query(rng, field), field, AIM)
            assert abs(result.p_left + result.p_right + result.p_goal - 1.0) <= 1e-12
            for p in (result.p_left, result.p_right, result.p_goal):
                assert 0.0 <= p <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(ball_x=st.floats(min_value=8.0, max_value=52.4),
           ball_y=st.floats(min_value=-34.0, max_value=34.0),
           target_y=st.floats(min_value=-7.01, max_value=7.01))
    def test_partition_of_unity_within_ulps(self, ball_x, ball_y, target_y):
        """p_goal is 1 - left - right, so the three sum to 1 up to the
        rounding of those two subtractions, not exactly."""
        field = FieldConfig()
        query = ShotQuery(Vec2(ball_x, ball_y), Vec2(field.goal_line_x, target_y))
        assume(within_horizon(query.ball, field, AIM))
        result = p_goal(query, field, AIM)
        total = result.p_left + result.p_right + result.p_goal
        assert abs(total - 1.0) <= 2 * math.ulp(1.0)

    def test_center_target_maximal_on_center_line(self, field):
        ball = Vec2(34.0, 0.0)
        values = [(t, p_goal(ShotQuery(ball, t), field, AIM).p_goal)
                  for t in discretize_targets(field, AIM)]
        best = max(values, key=lambda tv: tv[1])
        assert best[0].y == 0.0

    def test_decreases_with_distance_on_center_line(self, field):
        # From ~38 m in, the tails are representable; closer in they
        # underflow to exactly 0 and p_goal saturates at 1.
        target = Vec2(52.5, 0.0)
        values = [p_goal(ShotQuery(Vec2(x, 0.0), target), field, AIM).p_goal
                  for x in np.linspace(38.0, 11.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_horizon_raises(self, field):
        with pytest.raises(ValueError):
            p_goal(ShotQuery(Vec2(5.0, 0.0), Vec2(52.5, 0.0)), field, AIM)

    def test_invalid_targets_raise(self, field):
        with pytest.raises(ValueError):
            p_goal(ShotQuery(Vec2(30.0, 0.0), Vec2(50.0, 0.0)), field, AIM)
        with pytest.raises(ValueError):
            p_goal(ShotQuery(Vec2(30.0, 0.0), Vec2(52.5, 8.0)), field, AIM)
        with pytest.raises(ValueError):
            p_goal(ShotQuery(Vec2(53.0, 0.0), Vec2(52.5, 0.0)), field, AIM)

    def test_monte_carlo_single_draw_agreement(self, field):
        # One standard-normal draw per rollout, scaled by each post's sigma.
        rng = np.random.default_rng(11)
        z = rng.standard_normal(20000)
        for _ in range(10):
            query = random_query(rng, field)
            line = Ray.toward(query.ball, query.target)
            s_l = signed_offset(line, field.post_left)
            s_r = signed_offset(line, field.post_right)
            sd_l = sigma(query.ball.distance_to(field.post_left), AIM)
            sd_r = sigma(query.ball.distance_to(field.post_right), AIM)
            frequency = np.mean((z * sd_l <= s_l) & (z * sd_r >= s_r))
            result = p_goal(query, field, AIM)
            assert abs(result.p_goal - frequency) < 0.02


class TestWithinHorizon:
    def test_boundary(self, field):
        assert within_horizon(Vec2(30.0, 0.0), field, AIM)
        assert not within_horizon(Vec2(8.0, 0.0), field, AIM)


class TestDiscretizeTargets:
    def test_single_target_is_goal_center(self, field):
        targets = discretize_targets(field, AimConfig(target_count=1))
        assert targets == [Vec2(52.5, 0.0)]

    def test_default_fifteen_spacing(self, field):
        targets = discretize_targets(field, AIM)
        assert len(targets) == 15
        spacing = (field.goal_width - 2 * AIM.target_inset) / 14
        assert math.isclose(spacing, 0.9657142857142858, rel_tol=1e-12)
        for a, b in zip(targets, targets[1:]):
            assert math.isclose(b.y - a.y, spacing, abs_tol=1e-12)

    def test_targets_stay_inside_posts(self, field):
        for t in discretize_targets(field, AIM):
            assert abs(t.y) <= field.goal_width / 2 - AIM.target_inset + 1e-12
            assert t.x == field.goal_line_x

    def test_inset_past_the_half_width_rejected(self, field):
        with pytest.raises(ValueError, match="^target_inset exceeds the goal half-width$"):
            discretize_targets(field, AimConfig(target_inset=7.5))

    def test_sorted_by_lateral(self, field):
        targets = discretize_targets(field, AIM)
        assert [t.y for t in targets] == sorted(t.y for t in targets)

    def test_returns_a_fresh_list(self, field):
        # The aim points are built once per configuration; a caller may
        # still change the list it gets.
        targets = discretize_targets(field, AIM)
        targets.clear()
        assert len(discretize_targets(field, AIM)) == AIM.target_count

    def test_aim_points_follow_the_config(self, field):
        # One entry, compared by equality: equal configs share the points,
        # a different config gets its own.
        points = _aim_points(field, AIM)
        assert _aim_points(FieldConfig(), AimConfig()) is points
        assert len(_aim_points(field, AimConfig(target_count=3))) == 3
        assert _aim_points(FieldConfig(goal_width=10.0), AIM) != points
        assert _aim_points(field, AIM) == points

    @settings(max_examples=300, deadline=None)
    @given(goal_width=st.floats(min_value=0.5, max_value=60.0),
           field_length=st.floats(min_value=1.0, max_value=1000.0),
           inset_share=st.floats(min_value=0.0, max_value=1.0),
           target_count=st.integers(min_value=1, max_value=500),
           sigma_coefficient=st.floats(min_value=1e-3, max_value=10.0),
           sigma_horizon=st.floats(min_value=1e-3, max_value=1e3))
    def test_aim_points_pass_the_target_checks(self, goal_width, field_length, inset_share,
                                               target_count, sigma_coefficient,
                                               sigma_horizon):
        # Stage one skips p_goal's target checks, so its aim points must pass them.
        field = FieldConfig(field_length=field_length, goal_width=goal_width)
        config = AimConfig(sigma_coefficient=sigma_coefficient,
                           sigma_horizon=sigma_horizon, target_count=target_count,
                           target_inset=inset_share * goal_width / 2)
        for target in _aim_points(field, config):
            _check_target(target, field)
