"""Planar geometry primitives and pitch configuration.

Coordinate conventions used throughout the package: x runs along the field
with the attacked goal at positive x, y is the lateral axis, units are
meters. Seen from above with +x ahead, "left" is the +y side, so the left
goal post sits at lateral +goal_width/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


@dataclass(frozen=True)
class Vec2:
    """Immutable 2D point/vector. Components must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("Vec2 component", self.x, self.y)

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> Vec2:
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> Vec2:
        return Vec2(-self.x, -self.y)

    def dot(self, other: Vec2) -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: Vec2) -> float:
        """Scalar z-component of the 3D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: Vec2) -> float:
        return math.hypot(other.x - self.x, other.y - self.y)

    def angle(self) -> float:
        """Direction in radians from the +x axis."""
        return math.atan2(self.y, self.x)

    def normalized(self) -> Vec2:
        return Vec2(*unit_components(self.x, self.y)[1:])

    @staticmethod
    def from_angle(angle: float, length: float = 1.0) -> Vec2:
        return Vec2(math.cos(angle) * length, math.sin(angle) * length)


@dataclass(frozen=True)
class Ray:
    """Half-line with a unit direction (|direction| = 1 within 1e-9)."""

    origin: Vec2
    direction: Vec2

    def __post_init__(self) -> None:
        if abs(self.direction.norm() - 1.0) > 1e-9:
            raise ValueError("Ray direction must be a unit vector")

    @classmethod
    def toward(cls, origin: Vec2, point: Vec2) -> Ray:
        """Ray from origin through a distinct point."""
        return cls(origin, Vec2(*unit_components(point.x - origin.x, point.y - origin.y)[1:]))


@dataclass(frozen=True)
class FieldConfig:
    """Pitch dimensions in meters.

    Defaults follow the standard simulated-soccer pitch (105 x 68 field,
    14.02 m goal, 16.5 x 40.32 m penalty area); all values are configurable
    and none of them is inherent to the model.
    """

    field_length: float = 105.0
    field_width: float = 68.0
    goal_width: float = 14.02
    goal_line_x: float = 52.5
    penalty_area_depth: float = 16.5
    penalty_area_width: float = 40.32

    def __post_init__(self) -> None:
        for name in ("field_length", "field_width", "goal_width",
                     "goal_line_x", "penalty_area_depth", "penalty_area_width"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.goal_width >= self.field_width:
            raise ValueError("goal_width must be smaller than field_width")
        if abs(self.goal_line_x - self.field_length / 2) > 1e-9:
            raise ValueError("goal_line_x must equal field_length / 2")

    # Built on first access and kept in the instance __dict__, which the
    # field-based eq, hash and repr never read.
    @cached_property
    def goal_center(self) -> Vec2:
        return Vec2(self.goal_line_x, 0.0)

    @cached_property
    def post_left(self) -> Vec2:
        """Post on the +y side (shooter's left when attacking +x)."""
        return Vec2(self.goal_line_x, self.goal_width / 2)

    @cached_property
    def post_right(self) -> Vec2:
        return Vec2(self.goal_line_x, -self.goal_width / 2)

    def contains(self, point: Vec2) -> bool:
        return (abs(point.x) <= self.field_length / 2
                and abs(point.y) <= self.field_width / 2)


def opening_angle(origin: Vec2, post_left: Vec2, post_right: Vec2) -> float:
    """Unsigned angle in [0, pi] subtended at origin by the two posts.

    Raises ValueError when origin coincides with either post.
    """
    ux, uy = difference(post_left, origin)
    vx, vy = difference(post_right, origin)
    if math.hypot(ux, uy) < 1e-12 or math.hypot(vx, vy) < 1e-12:
        raise ValueError("origin coincides with a post")
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def difference(a: Vec2, b: Vec2) -> tuple[float, float]:
    """The components of a - b, with the finiteness check of that Vec2."""
    dx, dy = a.x - b.x, a.y - b.y
    _require_finite("Vec2 component", dx, dy)
    return dx, dy


def unit_components(dx: float, dy: float) -> tuple[float, float, float]:
    """(n, dx / n, dy / n) for the vector (dx, dy) of length n, with the
    checks of a Ray along it: finite, nonzero, and of unit length after."""
    _require_finite("Vec2 component", dx, dy)
    n = math.hypot(dx, dy)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero-length vector")
    ux, uy = dx / n, dy / n
    if abs(math.hypot(ux, uy) - 1.0) > 1e-9:
        raise ValueError("Ray direction must be a unit vector")
    return n, ux, uy


def signed_offset(line: Ray, point: Vec2) -> float:
    """Perpendicular distance from point to the infinite line through `line`.

    Positive when the point lies to the left of the direction of travel.
    """
    return line.direction.cross(point - line.origin)
