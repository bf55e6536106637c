"""The per-row and per-call value types are slotted frozen dataclasses: each
instance keeps its fields in slots and has no instance dict, and slots change
nothing else. Frozen-ness, dataclasses.replace, ==, hash and repr behave as
they did on the dict-backed classes; the reprs below are theirs."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from goalshot.aim import AimResult, ShotQuery
from goalshot.dynamics import BallState
from goalshot.experiment import MatchStats
from goalshot.geometry import Vec2
from goalshot.policies import Action, KickDecision, LdaModel
from goalshot.scenes import KickScene, Label

VALUES = [
    pytest.param(Vec2(1.5, -2.0), "Vec2(x=1.5, y=-2.0)", {"y": 3.0}, id="Vec2"),
    pytest.param(
        KickScene(3, Vec2(40.0, 0.0), Vec2(0.0, 0.0), Vec2(39.0, 0.0), 0.25, Vec2(51.0, 1.0),
                  [Vec2(45.0, 2.0)], 60.0, Vec2(52.5, 3.0), Label.GOAL),
        "KickScene(time=3, ball=Vec2(x=40.0, y=0.0), ball_velocity=Vec2(x=0.0, y=0.0), "
        "attacker=Vec2(x=39.0, y=0.0), attacker_body_angle=0.25, keeper=Vec2(x=51.0, y=1.0), "
        "defenders=(Vec2(x=45.0, y=2.0),), kick_power=60.0, target=Vec2(x=52.5, y=3.0), "
        "label=<Label.GOAL: 'GOAL'>)", {"label": None}, id="KickScene"),
    pytest.param(
        KickDecision(Action.KICK, Vec2(52.5, 1.0), 0.75, 0.8),
        "KickDecision(action=<Action.KICK: 'KICK'>, target=Vec2(x=52.5, y=1.0), "
        "neural_score=0.75, p_goal=0.8, out_of_range=False)",
        {"action": Action.NO_KICK, "target": None}, id="KickDecision"),
    pytest.param(LdaModel(0.1, -0.2, 0.3),
                 "LdaModel(weight_distance=0.1, weight_angle=-0.2, bias=0.3)", {"bias": -1.0},
                 id="LdaModel"),
    pytest.param(
        BallState(Vec2(1.0, 2.0), Vec2(0.5, 0.0)),
        "BallState(position=Vec2(x=1.0, y=2.0), velocity=Vec2(x=0.5, y=0.0), "
        "acceleration=Vec2(x=0.0, y=0.0))", {"acceleration": Vec2(0.1, 0.0)}, id="BallState"),
    pytest.param(ShotQuery(Vec2(40.0, 0.0), Vec2(52.5, 1.0)),
                 "ShotQuery(ball=Vec2(x=40.0, y=0.0), target=Vec2(x=52.5, y=1.0))",
                 {"target": Vec2(52.5, -1.0)}, id="ShotQuery"),
    pytest.param(AimResult(0.1, 0.2, 0.7), "AimResult(p_left=0.1, p_right=0.2, p_goal=0.7)",
                 {"p_left": 0.2, "p_right": 0.1}, id="AimResult"),
    pytest.param(
        MatchStats(10, 5.0, 1.0, 4, 2.0, 0.5, 0.4, 1, 0, 1),
        "MatchStats(kicks=10, kicks_mean_per_game=5.0, kicks_std=1.0, goals=4, "
        "goals_mean_per_game=2.0, goals_std=0.5, effectiveness=0.4, wins=1, losses=0, "
        "draws=1)", {"effectiveness": None}, id="MatchStats"),
]


def _values(value) -> tuple:
    return tuple(getattr(value, f.name) for f in fields(value))


@pytest.mark.parametrize("value, text, change", VALUES)
class TestSlottedValue:
    def test_fields_live_in_slots_and_no_instance_has_a_dict(self, value, text, change):
        cls = type(value)
        assert cls.__slots__ == tuple(f.name for f in fields(cls))
        assert not hasattr(value, "__dict__")

    def test_every_field_is_frozen(self, value, text, change):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        # No slot and no dict takes a new name. On Python 3.11 the frozen
        # __setattr__ raises TypeError for it: its super() call names the
        # class from before slots=True rebuilt it.
        with pytest.raises((FrozenInstanceError, TypeError)):
            value.extra = 1.0

    def test_repr_eq_and_hash_read_the_fields(self, value, text, change):
        assert repr(value) == text
        twin = type(value)(*_values(value))
        assert twin == value and twin is not value
        assert hash(twin) == hash(value) == hash(_values(value))

    def test_replace_changes_only_the_given_fields(self, value, text, change):
        assert replace(value) == value
        other = replace(value, **change)
        assert type(other) is type(value) and not hasattr(other, "__dict__")
        for f in fields(value):
            assert getattr(other, f.name) == change.get(f.name, getattr(value, f.name))
        assert other != value
