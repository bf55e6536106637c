"""Planar geometry primitives and pitch configuration.

Coordinate conventions used throughout the package: x runs along the field
with the attacked goal at positive x, y is the lateral axis, units are
meters. Seen from above with +x ahead, "left" is the +y side, so the left
goal post sits at lateral +goal_width/2. Vec2, built per point, is a
slotted frozen dataclass: x and y live in slots and there is no instance
dict. FieldConfig keeps its dict, which holds its cached_property values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


@dataclass(frozen=True, slots=True)
class Vec2:
    """Immutable 2D point/vector. Components must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            _require_finite("Vec2 component", self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        """x, then y: a Vec2 unpacks like an (x, y) pair."""
        return iter((self.x, self.y))

    def __add__(self, other: Vec2) -> Vec2:
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Vec2) -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> Vec2:
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> Vec2:
        return Vec2(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: Vec2) -> float:
        return math.hypot(other.x - self.x, other.y - self.y)

    def angle(self) -> float:
        """Direction in radians from the +x axis."""
        return math.atan2(self.y, self.x)

    @staticmethod
    def from_angle(angle: float, length: float = 1.0) -> Vec2:
        return Vec2(math.cos(angle) * length, math.sin(angle) * length)


Point = Vec2 | tuple[float, float]  # what the float kernels read: it unpacks to x, y


@dataclass(frozen=True)
class FieldConfig:
    """Pitch dimensions in meters.

    Defaults follow the standard simulated-soccer pitch (105 x 68 field,
    14.02 m goal, 40.32 m wide penalty area); all values are configurable
    and none of them is inherent to the model.
    """

    field_length: float = 105.0
    field_width: float = 68.0
    goal_width: float = 14.02
    penalty_area_width: float = 40.32

    def __post_init__(self) -> None:
        for name in ("field_length", "field_width", "goal_width", "penalty_area_width"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.goal_width >= self.field_width:
            raise ValueError("goal_width must be smaller than field_width")

    # Built on first access and kept in the instance __dict__, which the
    # field-based eq, hash and repr never read.
    @cached_property
    def goal_line_x(self) -> float:
        return self.field_length / 2

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


def shot_line(dx: float, dy: float) -> tuple[float, float, float, float, float]:
    """(dx, dy, n, dx / n, dy / n) for the vector (dx, dy) of length n, with
    the checks of a line along it: finite, nonzero, and of unit length after.
    Of a target relative to the ball, the shooting line."""
    n = math.hypot(dx, dy)
    if not n < math.inf:  # a component is not finite, or the length overflows
        _require_finite("Vec2 component", dx, dy)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero-length vector")
    ux, uy = dx / n, dy / n
    if abs(math.hypot(ux, uy) - 1.0) > 1e-9:
        raise ValueError("Ray direction must be a unit vector")
    return dx, dy, n, ux, uy

