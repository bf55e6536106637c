"""Ball motion model of the 2D soccer simulator.

Per simulation step the ball moves by u = v + a + noise, the velocity
becomes decay * u and the acceleration resets to zero. The noise term is
drawn per component, independently and uniformly from [-r_max, +r_max]
with r_max = noise_coefficient * |v + a|, so the disturbance scales with
how fast the ball travels. The displacement is capped at max_speed, which
keeps |velocity| <= max_speed after every step.

One step loop on plain floats, `_fly`, runs `step`, `rollout_to_goal_line`
and `keeper.simulate_shot`. It adds the acceleration to the first step
only (skipping v + 0.0 at most flips the sign of a zero that no result
depends on) and takes one |v| per step, the stop test's speed, which is
the next step's noise base. A noise range that overflows turns the
position to NaN, which fails every comparison, so the crossing test checks
once per flight that the position is finite; `step` checks it itself.

A shot's catchers are the keeper and the defenders. The loop skips one
that lies more than its radius outside the box of the points
`_segment_distance` can return, which never changes a result:

- `_segment_distance(q, a, b)` measures from q to c = a + ab * t, with
  ab = b - a rounded and t in [0, 1]. Rounding is monotone, so each
  coordinate of c lies between that of a and that of b' = a + ab, as
  computed. The box spans a and b' exactly, so it needs no margin and no
  bound on coordinate size (c can overshoot b itself by a few ulps).
- For a catcher left of the box whose computed lo_x - qx exceeds its
  radius, c_x >= lo_x, so by monotone rounding the computed x term
  |c_x - qx| is at least as large. math.hypot(a, b) >= |a|, so the
  distance exceeds the radius, or is NaN after an overflow. The other
  three sides are symmetric.
- A skip draws no random number, and any catch ends the flight at that
  step, so which catcher catches does not matter.

The ball's noise comes from `rng.random()` alone, so a rollout may take a
`BlockUniforms` (`aim-table --mc-rollouts`). A flight reads its noise only
through `rng.random()` and `rng.standard_normal()`, so a shot may take any
object with those two methods (`experiment.ShotNoise`). A rollout's result, a
`CrossingOutcome`, is a NamedTuple: read by field name, or unpacked as
(crossed, lateral, steps), and built at a tuple's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import FieldConfig, Vec2, _require_finite

# A rolling ball below this speed (m/step) is considered at rest.
STOP_SPEED = 1e-3
# Steps after which a rollout or a shot that has not ended counts as stopped.
MAX_STEPS = 10_000
# Uniforms a BlockUniforms draws from its generator at a time.
UNIFORM_BLOCK = 256
# How a flight ends in `_fly`; running out of steps counts as stopped.
_CROSSED, _CAUGHT, _STOPPED = "crossed", "caught", "stopped"
_LEFT_RANGE = ("the ball left the finite range at ({!r}, {!r}): "
               "the noise range noise_coefficient * speed overflows")


class KeeperNoiseError(ValueError):
    """A keeper's positioning noise that moves its aim point out of float range."""


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


@dataclass(frozen=True, slots=True)
class BallState:
    position: Vec2
    velocity: Vec2
    acceleration: Vec2 = Vec2(0.0, 0.0)

    @staticmethod
    def at_rest(position: Vec2) -> BallState:
        return BallState(position, Vec2(0.0, 0.0), Vec2(0.0, 0.0))


class CrossingOutcome(NamedTuple):
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
    ahead of the last value used, so nothing else may draw from it: a
    labelling shot, whose uniforms interleave with normal and integer draws
    from the scene generator, keeps scalar draws. `aim-table`'s rollouts and
    an experiment's game scenes (scenes.draw_scenes) read one; a kick reads
    its shot's values drawn up front for the game (experiment.ShotNoise) the
    same way.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
        self.random = chain.from_iterable(blocks).__next__

    def integers(self, low: int, high: int) -> int:
        """low + int((high - low) * u) of the next uniform u, not rng.integers'
        value: in [low, high), as (high - low) * u rounds below high - low for
        every u < 1 while high - low <= 2**53."""
        return low + int((high - low) * self.random())


def _segment_distance(qx, qy, ax, ay, bx, by) -> float:
    """Distance from the point q to the segment a-b."""
    abx, aby = bx - ax, by - ay
    length_sq = abx * abx + aby * aby
    if length_sq < 1e-18:
        return math.hypot(ax - qx, ay - qy)
    t = max(0.0, min(1.0, ((qx - ax) * abx + (qy - ay) * aby) / length_sq))
    return math.hypot(ax + abx * t - qx, ay + aby * t - qy)


def _fly(px, py, vx, vy, config: DynamicsConfig, line_x, rng, max_steps,
         keeper=None, defenders=()):
    """Step the ball from (px, py), with (vx, vy) = v + a, until it crosses
    x = line_x, is caught or stops. `keeper` is None or (x, y, catch_radius,
    max_speed, reaction_delay, positioning_noise), `defenders` (x, y, radius)
    triples. Returns (end, steps, crossing lateral or None, (px, py, vx, vy))."""
    noise, top_speed, decay = config.noise_coefficient, config.max_speed, config.decay
    hypot, isfinite = math.hypot, math.isfinite
    speed = hypot(vx, vy)
    if rng is None and noise * speed > 0.0:  # no draw now, none later: speeds only decay
        raise ValueError("rng is required when noise_coefficient > 0")
    random = None if rng is None else rng.random
    pursue_after = max_steps  # no step is later: nobody pursues
    if keeper is not None:
        kx, ky, k_radius, k_speed, k_delay, k_noise = keeper
        pursue_after = k_delay if k_speed > 0 else max_steps
        if rng is None and k_noise > 0:
            raise ValueError("rng is required when positioning_noise > 0")
        normal = rng.standard_normal if k_noise > 0 else None
    for n in range(1, max_steps + 1):
        x0, y0 = px, py
        r_max = noise * speed
        if r_max > 0.0:
            # The values of rng.uniform(-r_max, r_max, 2), by numpy's own formula.
            low, width = -r_max, r_max - -r_max
            vx += low + width * random()
            vy += low + width * random()
            speed = hypot(vx, vy)
        if speed > top_speed:
            scale = top_speed / speed
            vx, vy = vx * scale, vy * scale
        px, py = px + vx, py + vy
        vx, vy = decay * vx, decay * vy
        ex, ey = px, py
        crossed = not px < line_x  # also for NaN (module docstring)
        if crossed:
            if not (isfinite(px) and isfinite(py)):
                raise ValueError(_LEFT_RANGE.format(px, py))
            # Clip the path at the line: catches count only before it.
            ex, ey = line_x, y0 + (line_x - x0) / (px - x0) * (py - y0)
        if keeper is not None:
            # The box of the points _segment_distance can return (module docstring).
            bx, by = x0 + (ex - x0), y0 + (ey - y0)
            lo_x, hi_x = (x0, bx) if x0 <= bx else (bx, x0)
            lo_y, hi_y = (y0, by) if y0 <= by else (by, y0)
            for qx, qy, radius in ((kx, ky, k_radius), *defenders):
                if (lo_x - qx > radius or qx - hi_x > radius
                        or lo_y - qy > radius or qy - hi_y > radius):
                    continue
                if _segment_distance(qx, qy, x0, y0, ex, ey) <= radius:
                    return _CAUGHT, n, None, (px, py, vx, vy)
        if crossed:
            return _CROSSED, n, ey, (px, py, vx, vy)
        speed = hypot(vx, vy)
        if speed < STOP_SPEED:
            return _STOPPED, n, None, (px, py, vx, vy)
        if n > pursue_after:
            # The keeper heads for the closest point to itself on the ball's travel ray.
            dx, dy = vx * (1.0 / speed), vy * (1.0 / speed)
            t = (kx - px) * dx + (ky - py) * dy
            if not t > 0.0:  # max(0.0, t)
                t = 0.0
            aim_x, aim_y = px + dx * t, py + dy * t
            if k_noise > 0:
                # The values of rng.normal(0, noise, 2), by numpy's own formula.
                aim_x += 0.0 + k_noise * normal()
                aim_y += 0.0 + k_noise * normal()
            gx, gy = aim_x - kx, aim_y - ky
            reach = hypot(gx, gy)
            if reach > k_speed:
                if not isfinite(reach):
                    raise KeeperNoiseError(f"positioning_noise {k_noise!r} "
                                           "moves the keeper's aim point out of float range")
                scale = k_speed / reach
                gx, gy = gx * scale, gy * scale
            kx, ky = kx + gx, ky + gy
    return _STOPPED, max_steps, None, (px, py, vx, vy)


def step(state: BallState, config: DynamicsConfig,
         rng: np.random.Generator | None) -> BallState:
    """Advance the ball one simulation step; `rng` may be None only without noise."""
    p, v, a = state.position, state.velocity, state.acceleration
    px, py, vx, vy = _fly(p.x, p.y, v.x + a.x, v.y + a.y, config, math.inf, rng, 1)[3]
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError(_LEFT_RANGE.format(px, py))
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
                         rng: np.random.Generator | BlockUniforms | None) -> CrossingOutcome:
    """Step the ball until it crosses the goal line or comes to rest.

    The lateral at the crossing is linearly interpolated inside the crossing
    step. A ball that stops (below STOP_SPEED) or runs MAX_STEPS steps reports
    crossed=False. Raises ValueError if the ball's position overflows. A
    `BlockUniforms` as `rng` gives the same outcome.
    """
    if state.position.x >= field.goal_line_x:
        raise ValueError("ball must start before the goal line")
    p, v, a = state.position, state.velocity, state.acceleration
    end, steps, lateral, _ = _fly(p.x, p.y, v.x + a.x, v.y + a.y, config,
                                  field.goal_line_x, rng, MAX_STEPS)
    return CrossingOutcome(end == _CROSSED, lateral, steps)


def travel_range(initial_speed: float, decay: float) -> float:
    """Total noise-free distance a rolling ball covers before stopping.

    Geometric series of the per-step displacements: speed / (1 - decay).
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if initial_speed < 0.0:
        raise ValueError("initial_speed must be >= 0")
    return initial_speed / (1.0 - decay)
