import math
from dataclasses import replace

import numpy as np
import pytest

from goalshot.geometry import FieldConfig, Ray, Vec2, opening_angle, signed_offset
from goalshot.scenes import angle_at


class TestVec2:
    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))
        with pytest.raises(ValueError):
            Vec2(1.0, 1.0) * float("inf")

    def test_arithmetic(self):
        a, b = Vec2(1.0, 2.0), Vec2(3.0, -4.0)
        assert a + b == Vec2(4.0, -2.0)
        assert a - b == Vec2(-2.0, 6.0)
        assert 2.0 * a == Vec2(2.0, 4.0)
        assert -a == Vec2(-1.0, -2.0)
        assert a.dot(b) == -5.0
        assert a.cross(b) == -10.0
        assert Vec2(3.0, 4.0).norm() == 5.0
        assert Vec2(1.0, 1.0).distance_to(Vec2(4.0, 5.0)) == 5.0

    def test_from_angle_roundtrip(self):
        rng = np.random.default_rng(1)
        for angle in rng.uniform(-math.pi, math.pi, 50):
            v = Vec2.from_angle(angle, 2.5)
            assert math.isclose(v.angle(), angle, abs_tol=1e-12)
            assert math.isclose(v.norm(), 2.5, rel_tol=1e-12)

    def test_normalized(self):
        v = Vec2(3.0, 4.0).normalized()
        assert math.isclose(v.norm(), 1.0, abs_tol=1e-15)
        with pytest.raises(ValueError):
            Vec2(0.0, 0.0).normalized()
        with pytest.raises(ValueError):  # the norm overflows to inf
            Vec2(1.7e308, 1.7e308).normalized()


class TestRay:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            Ray(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
        Ray(Vec2(0.0, 0.0), Vec2(0.0, 1.0))  # fine

    def test_toward_normalizes(self):
        ray = Ray.toward(Vec2(1.0, 1.0), Vec2(4.0, 5.0))
        assert math.isclose(ray.direction.norm(), 1.0, abs_tol=1e-15)
        assert ray.origin + ray.direction * 5.0 == Vec2(4.0, 5.0)


class TestFieldConfig:
    def test_default_posts(self, field):
        assert field.post_left == Vec2(52.5, 7.01)
        assert field.post_right == Vec2(52.5, -7.01)
        assert field.goal_center == Vec2(52.5, 0.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            FieldConfig(goal_width=70.0)  # wider than the field
        with pytest.raises(ValueError):
            FieldConfig(goal_line_x=50.0)  # not half the length
        with pytest.raises(ValueError):
            FieldConfig(field_width=-68.0)

    def test_posts_read_once_keep_eq_hash_and_repr(self):
        read = FieldConfig()
        posts = (read.post_left, read.post_right, read.goal_center)
        assert read.post_left is posts[0]
        fresh = FieldConfig()
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)

    def test_replace_gives_new_posts(self):
        field = FieldConfig()
        assert field.post_left == Vec2(52.5, 7.01)
        narrow = replace(field, goal_width=10.0, field_length=100.0, goal_line_x=50.0)
        assert narrow.post_left == Vec2(50.0, 5.0)
        assert narrow.post_right == Vec2(50.0, -5.0)
        assert narrow.goal_center == Vec2(50.0, 0.0)
        assert field.post_left == Vec2(52.5, 7.01)

    def test_contains(self, field):
        assert field.contains(Vec2(0.0, 0.0))
        assert field.contains(Vec2(52.5, 34.0))
        assert not field.contains(Vec2(52.6, 0.0))
        assert not field.contains(Vec2(0.0, -34.1))


class TestOpeningAngle:
    def test_ten_meters_from_goal_center(self, field):
        origin = Vec2(42.5, 0.0)
        angle = opening_angle(origin, field.post_left, field.post_right)
        assert math.isclose(angle, 2.0 * math.atan(7.01 / 10.0), abs_tol=1e-12)
        assert math.isclose(angle, 1.2227, abs_tol=1e-4)

    def test_collinear_outside_segment_is_zero(self):
        assert opening_angle(Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0)) == 0.0

    def test_between_posts_is_pi(self):
        angle = opening_angle(Vec2(1.5, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0))
        assert math.isclose(angle, math.pi, abs_tol=1e-15)

    def test_equals_the_vec2_formula(self):
        def vec2_formula(origin, a, b):
            u, v = a - origin, b - origin
            if u.norm() < 1e-12 or v.norm() < 1e-12:
                raise ValueError("origin coincides with a post")
            return math.atan2(abs(u.cross(v)), u.dot(v))

        rng = np.random.default_rng(11)
        for scale in (1e-6, 1.0, 60.0, 1e150):
            for _ in range(300):
                origin, a, b = (Vec2(*rng.uniform(-scale, scale, 2).tolist())
                                for _ in range(3))
                assert opening_angle(origin, a, b) == vec2_formula(origin, a, b)

    def test_overflowing_difference_raises(self):
        origin, a, b = Vec2(-1.7e308, 0.0), Vec2(1.7e308, 0.0), Vec2(0.0, 1.0)
        with pytest.raises(ValueError, match="Vec2 component must be finite"):
            opening_angle(origin, a, b)
        with pytest.raises(ValueError, match="Vec2 component must be finite"):
            opening_angle(origin, b, a)
        assert angle_at(origin, a, b) == 0.0

    def test_degenerate_origin_raises(self):
        with pytest.raises(ValueError):
            opening_angle(Vec2(1.0, 2.0), Vec2(1.0, 2.0), Vec2(3.0, 4.0))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = [Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(3)]
            origin, a, b = pts
            if origin.distance_to(a) < 1e-6 or origin.distance_to(b) < 1e-6:
                continue
            base = opening_angle(origin, a, b)
            theta = rng.uniform(-math.pi, math.pi)
            shift = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            moved = [Vec2(p.x * cos_t - p.y * sin_t + shift.x,
                          p.x * sin_t + p.y * cos_t + shift.y) for p in pts]
            assert math.isclose(opening_angle(*moved), base, abs_tol=1e-9)


class TestSignedOffset:
    def test_axis_aligned_examples(self):
        line = Ray(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        assert signed_offset(line, Vec2(5.0, 3.0)) == 3.0
        assert signed_offset(line, Vec2(7.0, 0.0)) == 0.0
        assert signed_offset(line, Vec2(5.0, -2.0)) == -2.0

    def test_mirror_negates(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            origin = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            direction = Vec2.from_angle(rng.uniform(-math.pi, math.pi))
            line = Ray(origin, direction)
            p = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            offset = signed_offset(line, p)
            # Reflect p across the line.
            t = (p - origin).dot(direction)
            foot = origin + direction * t
            mirrored = foot + (foot - p)
            assert math.isclose(signed_offset(line, mirrored), -offset, abs_tol=1e-9)

    def test_offset_bounded_by_distance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            origin = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            line = Ray(origin, Vec2.from_angle(rng.uniform(-math.pi, math.pi)))
            p = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            assert abs(signed_offset(line, p)) <= origin.distance_to(p) + 1e-12
