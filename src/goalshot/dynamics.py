"""Ball motion model of the 2D soccer simulator.

Per simulation step the ball moves by u = v + a + noise, the velocity
becomes decay * u and the acceleration resets to zero. The noise term is
drawn per component, independently and uniformly from [-r_max, +r_max]
with r_max = noise_coefficient * |v + a|, so the disturbance scales with
how fast the ball travels. The displacement is capped at max_speed, which
keeps |velocity| <= max_speed after every step.

`step`, `rollout_to_goal_line` and `keeper.simulate_shot` all step through
`_advance` on plain floats; `Vec2` and `BallState` stay at the boundary.
`kick` and `keeper.simulate_shot` take the impulse from `kick_components`.
The loops add the acceleration to the first step only: skipping `step`'s
later v + 0.0 at most flips the sign of a zero that no result depends on.
A noise range that overflows turns the ball's position to NaN. Every
comparison on NaN is false, so the crossing test is the first that passes;
`_goal_line_lateral` checks there, once per run, that the position is finite.

`_advance` calls only `rng.random()`, so a rollout may take a
`BlockUniforms`, which hands out the same values drawn a block at a time.
`aim-table`'s Monte-Carlo column uses it. `keeper.simulate_shot` and the
scene generator keep scalar draws: their uniforms interleave with
`standard_normal` and `integers` draws from the same generator, so drawing
ahead would change the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .geometry import FieldConfig, Vec2, _require_finite

# A rolling ball below this speed (m/step) is considered at rest.
STOP_SPEED = 1e-3
# Uniforms a BlockUniforms draws from its generator at a time.
UNIFORM_BLOCK = 256


@dataclass(frozen=True)
class DynamicsConfig:
    """Simulator motion constants (per-step units)."""

    decay: float = 0.94
    noise_coefficient: float = 0.05
    max_speed: float = 3.0
    kick_power_rate: float = 0.027
    max_power: float = 100.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        if self.noise_coefficient < 0.0:
            raise ValueError("noise_coefficient must be >= 0")
        if self.max_speed <= 0.0 or self.kick_power_rate <= 0.0 or self.max_power <= 0.0:
            raise ValueError("max_speed, kick_power_rate and max_power must be positive")
        if not math.isfinite(self.kick_power_rate * self.max_power):
            raise ValueError("kick_power_rate * max_power overflows")


@dataclass(frozen=True)
class BallState:
    position: Vec2
    velocity: Vec2
    acceleration: Vec2 = Vec2(0.0, 0.0)

    @staticmethod
    def at_rest(position: Vec2) -> BallState:
        return BallState(position, Vec2(0.0, 0.0), Vec2(0.0, 0.0))


@dataclass(frozen=True)
class CrossingOutcome:
    """Result of rolling a ball out toward the goal line.

    lateral_at_goal_line is only meaningful when crossed is True; it is the
    y coordinate linearly interpolated at the instant x reaches the line.
    """

    crossed: bool
    lateral_at_goal_line: float | None
    steps_taken: int


class BlockUniforms:
    """The values of rng.random(), in order, one per call to random().

    Drawn as rng.random(UNIFORM_BLOCK).tolist(), Python floats bit-equal to
    the scalar draws, and handed out by a C-level iterator, far cheaper per
    value than a Generator.random call. The generator ends up to a block
    ahead of the last value used, so nothing else may draw from it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
        self.random = chain.from_iterable(blocks).__next__


def _advance(px, py, bx, by, config: DynamicsConfig, rng) -> tuple[float, float, float, float]:
    """One step from (px, py) with b = velocity + acceleration: new position, velocity."""
    r_max = config.noise_coefficient * math.hypot(bx, by)
    if r_max > 0.0:
        if rng is None:
            raise ValueError("rng is required when noise_coefficient > 0")
        # The values of rng.uniform(-r_max, r_max, 2), by numpy's own formula.
        bx += -r_max + (r_max - -r_max) * rng.random()
        by += -r_max + (r_max - -r_max) * rng.random()
    u_norm = math.hypot(bx, by)
    if u_norm > config.max_speed:
        scale = config.max_speed / u_norm
        bx, by = bx * scale, by * scale
    return px + bx, py + by, config.decay * bx, config.decay * by


def _goal_line_lateral(x0, y0, x1, y1, line_x) -> float | None:
    """Interpolated y where the step (x0, y0) -> (x1, y1) reaches x = line_x, else None.

    Raises ValueError if (x1, y1) is not finite (module docstring).
    """
    if x1 < line_x:
        return None
    if not (math.isfinite(x1) and math.isfinite(y1)):
        raise ValueError(f"the ball left the finite range at ({x1!r}, {y1!r}): "
                         "the noise range noise_coefficient * speed overflows")
    return y0 + (line_x - x0) / (x1 - x0) * (y1 - y0)


def step(state: BallState, config: DynamicsConfig,
         rng: np.random.Generator | None) -> BallState:
    """Advance the ball one simulation step.

    `rng` may be None only when the config has zero noise.
    """
    p, v, a = state.position, state.velocity, state.acceleration
    px, py, vx, vy = _advance(p.x, p.y, v.x + a.x, v.y + a.y, config, rng)
    return BallState(Vec2(px, py), Vec2(vx, vy), Vec2(0.0, 0.0))


def kick_components(power: float, direction: float,
                    config: DynamicsConfig) -> tuple[float, float]:
    """The (x, y) acceleration of an impulse of the given power, `direction`
    radians from the +x axis."""
    if not 0.0 <= power <= config.max_power:
        raise ValueError(f"power must be in [0, {config.max_power}], got {power}")
    magnitude = config.kick_power_rate * power
    return math.cos(direction) * magnitude, math.sin(direction) * magnitude


def kick(state: BallState, power: float, direction: float,
         config: DynamicsConfig) -> BallState:
    """Set the ball's acceleration for an impulse of the given power.

    Position and velocity are untouched; the impulse takes effect on the
    next step.
    """
    return BallState(state.position, state.velocity,
                     Vec2(*kick_components(power, direction, config)))


def rollout_to_goal_line(state: BallState, config: DynamicsConfig,
                         field: FieldConfig,
                         rng: np.random.Generator | BlockUniforms | None,
                         max_steps: int = 10_000) -> CrossingOutcome:
    """Step the ball until it crosses the goal line or comes to rest.

    The lateral coordinate at the crossing is linearly interpolated inside
    the crossing step. A ball that never reaches the line (speed drops
    below STOP_SPEED, or max_steps elapses) reports crossed=False. Raises
    ValueError if the ball's position overflows. `rng` supplies the noise
    through `random()` alone, so a `BlockUniforms` gives the same outcome.
    """
    if state.position.x >= field.goal_line_x:
        raise ValueError("ball must start before the goal line")
    p, v, a = state.position, state.velocity, state.acceleration
    px, py, vx, vy = p.x, p.y, v.x + a.x, v.y + a.y
    for n in range(1, max_steps + 1):
        x0, y0 = px, py
        px, py, vx, vy = _advance(px, py, vx, vy, config, rng)
        lateral = _goal_line_lateral(x0, y0, px, py, field.goal_line_x)
        if lateral is not None:
            return CrossingOutcome(True, lateral, n)
        if math.hypot(vx, vy) < STOP_SPEED:
            return CrossingOutcome(False, None, n)
    return CrossingOutcome(False, None, max_steps)


def travel_range(initial_speed: float, decay: float) -> float:
    """Total noise-free distance a rolling ball covers before stopping.

    Geometric series of the per-step displacements: speed / (1 - decay).
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if initial_speed < 0.0:
        raise ValueError("initial_speed must be >= 0")
    return initial_speed / (1.0 - decay)
