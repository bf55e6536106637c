"""Shared fixtures and scene-building helpers."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, settings

from goalshot.geometry import FieldConfig, Vec2
from goalshot.mlp import save_model
from goalshot.scenes import KickScene, Label, SceneTable, scene_row

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


def from_scenes(scenes):
    """The SceneTable of labeled hand-made scenes, row i scene i."""
    if any(s.label is None for s in scenes):
        raise ValueError("every scene must be labeled")
    return SceneTable._of_rows([s.time for s in scenes],
                               [values + [c for d in defenders for c in d]
                                for values, defenders in map(scene_row, scenes)],
                               [s.label is Label.GOAL for s in scenes])


def row_scene(row, time=0, label=None):
    """The KickScene view of a scene row (scenes.SceneRow)."""
    (bx, by, vx, vy, ax, ay, body, kx, ky, power, tx, ty), defenders = row
    return KickScene(time, Vec2(bx, by), Vec2(vx, vy), Vec2(ax, ay), body, Vec2(kx, ky),
                     tuple(Vec2(x, y) for x, y in defenders), power, Vec2(tx, ty), label)


def write_model(path, layer_sizes):
    """A model file of any layer sizes, written by save_model from plain
    arrays, so that no MlpParams check refuses the layout."""
    sizes = tuple(layer_sizes)
    save_model(SimpleNamespace(
        layer_sizes=sizes, norm_mean=np.zeros(sizes[0]), norm_std=np.ones(sizes[0]),
        weights=[np.full((a, b), 0.1) for a, b in zip(sizes, sizes[1:])],
        biases=[np.zeros(b) for b in sizes[1:]]), path)
    return path
