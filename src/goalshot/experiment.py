"""Policy-vs-policy shot experiments and aggregate match reports.

A "game" is a bundle of shot episodes. In an experiment both policies face
the identical seeded stream of scenes, and each episode seeds its noise
from the (experiment seed, game, shot) triple, so two policies, or two
runs, see exactly the same world and differ only through their decisions.

The stream contract:

- A game's scenes come from the scene stream alone, with label None:
  scenes.draw_scenes, seeded with the first word of
  SeedSequence([seed, game, _SCENE_STREAM]) and read through a
  dynamics.BlockUniforms: the stream's uniforms in order, 256 per numpy
  call, the defender count and the time from one uniform each. No
  labelling shot is simulated, so the labelling keeper (gen_config.keeper,
  [keeper]) plays no part in a game; the keeper argument resolves the
  kicks.
- Label noise is drawn only where a label is read: gen-data, and compare's
  LDA fit without --data (lda_training_scenes: scenes.generate_synthetic_scenes,
  seeded with the first word of SeedSequence([seed, _LDA_SCENE_STREAM])).
- Both sides share an episode's noise (common random numbers): each
  side's kick reads the same values, in the same order.
- A game draws its episodes' noise up front, from one generator on
  SeedSequence([seed, game, _GAME_NOISE_STREAM]): a (shots, 2 * HEAD_STEPS)
  block of uniforms, then one of standard normals. Shot k's flight reads
  row k of each, a row turned into floats only when a kick reads it. The
  ball takes two uniforms per step and the pursuing keeper two normals, so
  a row covers HEAD_STEPS steps of each.
- A flight that reads past its row goes on in the shot's tail, drawn from
  a generator on SeedSequence([seed, game, shot, _EPISODE_STREAM]), built
  only then: 2 * HEAD_STEPS uniforms, then as many normals, at a time. So
  the i-th value of each kind is the same whichever kind a flight runs out
  of first, and both sides read identical values whatever their targets.

Decisions never depend on outcomes, so each policy decides all of a game's
scenes in one decide_all batch before any shot is resolved: the MLP scores
the game's survivor rows in one call, and the second policy reuses the
stage one the first computed for the game's balls (policies._stage_one,
keyed on the tuple of balls). An error in a decision therefore raises
before the game's first episode-log line. The two sides of a shot share its
noise, so a kick both policies take at the same target has one outcome,
simulated once. Per-game goal totals decide win/loss/draw. The per-game
counts stay Python ints until one (4, games) array reduces them to the
means and stds. Each episode-log line, and the JSON report, is written as
the text json.dumps gives for its record, from f-strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain, count
from typing import IO, Callable, Sequence

import numpy as np

from .dynamics import DynamicsConfig
from .geometry import FieldConfig
from .keeper import (DEFAULT_DEFENDER_CATCH_RADIUS, KeeperModel, ShotResult,
                     simulate_shot)
from .policies import Action, KickDecision, Policy
from .scenes import GeneratorConfig, KickScene, SceneTable, draw_scenes, generate_synthetic_scenes

__all__ = [
    "KeeperModel", "ShotResult", "EpisodeOutcome", "MatchStats", "check_report_format",
    "run_experiment", "lda_training_scenes", "report", "stats_pair_from_json",
]

# Entropy tags keeping apart the streams of game scenes, episode tails, the lda
# fit and a game's episode noise.
_SCENE_STREAM = 1
_EPISODE_STREAM = 2
_LDA_SCENE_STREAM = 3
_GAME_NOISE_STREAM = 4
# Flight steps whose noise a game draws up front for each of its shots.
HEAD_STEPS = 16


@dataclass(frozen=True)
class EpisodeOutcome:
    kicked: bool
    result: ShotResult
    steps: int


@dataclass(frozen=True)
class MatchStats:
    """Aggregate over an experiment; effectiveness is None when no kick was
    taken. Means and stds are per game (population convention)."""

    kicks: int
    kicks_mean_per_game: float
    kicks_std: float
    goals: int
    goals_mean_per_game: float
    goals_std: float
    effectiveness: float | None
    wins: int
    losses: int
    draws: int


_NO_KICK_OUTCOME = EpisodeOutcome(kicked=False, result=ShotResult.NO_KICK, steps=0)


class ShotNoise:
    """One kick's noise, read as a flight reads a Generator: random() and
    standard_normal() hand out the shot's row of the game's uniforms or
    normals, then the shot's tail (module docstring). The tail generator is
    built on the first value past the row."""

    def __init__(self, uniforms: np.ndarray, normals: np.ndarray, tail_entropy: list[int]):
        self._tail_entropy = tail_entropy
        self._tail: list[tuple[list[float], list[float]]] = []
        self.random = chain(uniforms.tolist(),
                            chain.from_iterable(self._tail_blocks(0))).__next__
        self.standard_normal = chain(normals.tolist(),
                                     chain.from_iterable(self._tail_blocks(1))).__next__

    def _tail_blocks(self, kind: int):
        """The tail's blocks of one kind (0 uniforms, 1 normals), each pair
        drawn when either kind first reads into it."""
        for block in count():
            if block == len(self._tail):
                if not self._tail:
                    self._rng = np.random.default_rng(np.random.SeedSequence(self._tail_entropy))
                self._tail.append((self._rng.random(2 * HEAD_STEPS).tolist(),
                                   self._rng.standard_normal(2 * HEAD_STEPS).tolist()))
            yield self._tail[block][kind]


class GameNoise:
    """A game's episode noise, drawn up front (module docstring)."""

    def __init__(self, seed: int, game: int, shots: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, game, _GAME_NOISE_STREAM]))
        self.uniforms = rng.random((shots, 2 * HEAD_STEPS))
        self.normals = rng.standard_normal((shots, 2 * HEAD_STEPS))
        self._seed, self._game = seed, game

    def shot(self, shot: int) -> ShotNoise:
        """A fresh reader of the shot's noise, from its first value."""
        return ShotNoise(self.uniforms[shot], self.normals[shot],
                         [self._seed, self._game, shot, _EPISODE_STREAM])


def _resolve(decision: KickDecision, scene: KickScene, keeper: KeeperModel,
             dynamics: DynamicsConfig, field: FieldConfig, noise: GameNoise, shot: int,
             defender_catch_radius: float) -> EpisodeOutcome:
    """Simulate the decision's kick, if any, on a reader of the shot's
    noise; the reader is built only for a kick."""
    if decision.action is not Action.KICK:
        return _NO_KICK_OUTCOME
    result, steps = simulate_shot(
        scene.ball, scene.ball_velocity, decision.target, scene.kick_power,
        scene.keeper, scene.defenders, keeper, dynamics, field,
        noise.shot(shot), defender_catch_radius)
    return EpisodeOutcome(kicked=True, result=result, steps=steps)


def lda_training_scenes(n: int, gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                        field: FieldConfig, seed: int) -> SceneTable:
    """compare's n labelled scenes to fit the lda on, on their own stream."""
    return generate_synthetic_scenes(n, gen_config, dynamics, field, int(
        np.random.SeedSequence([seed, _LDA_SCENE_STREAM]).generate_state(1)[0]))


def _aggregate(kicks: tuple[list[int], list[int]],
               goals: tuple[list[int], list[int]]) -> tuple[MatchStats, MatchStats]:
    """Both sides' stats from their per-game kicks and goals: one (4, games)
    array gives every per-game mean and std; totals and results are int sums."""
    counts = np.array([*kicks, *goals])
    means, stds = counts.mean(axis=1).tolist(), counts.std(axis=1).tolist()
    pair = []
    for side, other in ((0, 1), (1, 0)):
        total_kicks, total_goals = sum(kicks[side]), sum(goals[side])
        pairs = list(zip(goals[side], goals[other]))
        pair.append(MatchStats(
            kicks=total_kicks,
            kicks_mean_per_game=means[side],
            kicks_std=stds[side],
            goals=total_goals,
            goals_mean_per_game=means[2 + side],
            goals_std=stds[2 + side],
            effectiveness=total_goals / total_kicks if total_kicks else None,
            wins=sum(own > their for own, their in pairs),
            losses=sum(own < their for own, their in pairs),
            draws=sum(own == their for own, their in pairs),
        ))
    return pair[0], pair[1]


# json.dumps of each result's value, as the episode log writes it
_RESULT_JSON = {result: json.dumps(result.value) for result in ShotResult}


def run_experiment(policy_a: Policy, policy_b: Policy, games: int,
                   shots_per_game: int, keeper: KeeperModel,
                   gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                   field: FieldConfig, seed: int,
                   defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS,
                   episode_log: IO[str] | None = None,
                   ) -> tuple[MatchStats, MatchStats]:
    """Paired experiment: both policies face the same scenes and noise.

    Each policy decides a game's scenes in one decide_all call before any
    of them is resolved. Each shot reads its own row of the game's noise and
    its own tail, so episodes are mutually independent and could be resolved
    in any order; results are reduced in (game, shot) order. Both sides of a
    shot read the same noise, so when their decisions agree (the same action
    and target) the second side reuses the first side's outcome instead of
    simulating the same kick again. With episode_log set, one JSON line is
    written per episode, side a first, byte-equal to json.dumps of the
    record (game, shot, policy name or policy_<side>, kicked, result,
    steps).
    """
    check_experiment_size(games, shots_per_game)
    policies = (policy_a, policy_b)
    # Each side's log text from after the shot number to the kick flag, its
    # policy name encoded once, as json.dumps encodes it.
    prefixes = [] if episode_log is None else [
        f', "policy": {json.dumps(getattr(policy, "name", f"policy_{side}"))}, "kicked": '
        for side, policy in enumerate(policies)]
    kicks: tuple[list[int], list[int]] = ([], [])
    goals: tuple[list[int], list[int]] = ([], [])
    for game in range(games):
        scene_seed = int(np.random.SeedSequence(
            [seed, game, _SCENE_STREAM]).generate_state(1)[0])
        scenes = draw_scenes(shots_per_game, gen_config, dynamics, field, scene_seed)
        decisions = zip(*(policy.decide_all(scenes) for policy in policies), strict=True)
        noise = GameNoise(seed, game, shots_per_game)
        game_kicks = [0, 0]
        game_goals = [0, 0]
        for shot, (scene, pair) in enumerate(zip(scenes, decisions, strict=True)):
            outcomes: dict[tuple, EpisodeOutcome] = {}
            for side, decision in enumerate(pair):
                key = (decision.action, decision.target)
                outcome = outcomes.get(key)
                if outcome is None:
                    outcome = outcomes[key] = _resolve(
                        decision, scene, keeper, dynamics, field, noise, shot,
                        defender_catch_radius)
                game_kicks[side] += outcome.kicked
                game_goals[side] += outcome.result is ShotResult.GOAL
                if episode_log is not None:
                    # the text json.dumps gives for the episode's record
                    episode_log.write(
                        f'{{"game": {game}, "shot": {shot}{prefixes[side]}'
                        f'{"true" if outcome.kicked else "false"}, '
                        f'"result": {_RESULT_JSON[outcome.result]}, '
                        f'"steps": {outcome.steps}}}\n')
        for side in (0, 1):
            kicks[side].append(game_kicks[side])
            goals[side].append(game_goals[side])
    return _aggregate(kicks, goals)


_REPORT_ROWS: tuple[tuple[str, str], ...] = (
    ("kicks", "Kicks to goal"),
    ("kicks_mean_per_game", "Kicks (average per game)"),
    ("kicks_std", "Kicks (standard deviation)"),
    ("goals", "Goals scored"),
    ("goals_mean_per_game", "Goals scored (average per game)"),
    ("goals_std", "Goals scored (standard deviation)"),
    ("effectiveness", "Effectiveness"),
    ("wins", "Wins"),
    ("losses", "Losses"),
    ("draws", "Draws"),
)


def _cell(value: float | int | None, float_format: Callable[[float], str] = repr) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else float_format(value)


def check_experiment_size(games: int, shots_per_game: int) -> None:
    if games < 1 or shots_per_game < 1:
        raise ValueError("games and shots_per_game must be >= 1")


def check_report_format(format: str) -> None:
    if format not in ("text", "csv", "json"):
        raise ValueError(f"unknown report format {format!r}; use text, csv or json")


_STATS_FIELDS = tuple(f.name for f in fields(MatchStats))
# The stats object of a JSON report with its values left to fill, as
# json.dumps(..., indent=1) lays it out four levels deep.
_STATS_JSON = ",\n".join(f'    "{field}": {{}}' for field in _STATS_FIELDS)


def _json_number(value: float | int | None) -> str:
    """value as json.dumps writes it: repr of an int or a finite float."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def report(stats_pair: tuple[MatchStats, MatchStats], format: str,
           names: Sequence[str] = ("policy_a", "policy_b")) -> str:
    """Render the ten aggregate rows as 'text', 'csv' or 'json'."""
    check_report_format(format)
    stats_a, stats_b = stats_pair
    if format == "json":
        # json.dumps(doc, indent=1) of {"policies": [{"name": ..., "stats": {...}}, ...]}
        return ('{\n "policies": [\n' + ",\n".join(
            f'  {{\n   "name": {json.dumps(name)},\n   "stats": {{\n'
            + _STATS_JSON.format(*[_json_number(getattr(stats, field))
                                   for field in _STATS_FIELDS])
            + "\n   }\n  }" for name, stats in zip(names, stats_pair)) + "\n ]\n}")
    if format == "csv":
        lines = [f"metric,{names[0]},{names[1]}"]
        for attr, _ in _REPORT_ROWS:
            lines.append(f"{attr},{_cell(getattr(stats_a, attr))},"
                         f"{_cell(getattr(stats_b, attr))}")
        return "\n".join(lines) + "\n"
    label_width = max(len(label) for _, label in _REPORT_ROWS)
    width = max(max(len(str(n)) for n in names) + 2, 12)
    fmt = "{:.3f}".format
    lines = [f"{'Metric':<{label_width}}  {names[0]:>{width}}  {names[1]:>{width}}"]
    for attr, label in _REPORT_ROWS:
        lines.append(f"{label:<{label_width}}  "
                     f"{_cell(getattr(stats_a, attr), fmt):>{width}}  "
                     f"{_cell(getattr(stats_b, attr), fmt):>{width}}")
    return "\n".join(lines) + "\n"


def stats_pair_from_json(text: str) -> tuple[MatchStats, MatchStats]:
    """Inverse of report(..., 'json')."""
    doc = json.loads(text)
    pair = [MatchStats(**entry["stats"]) for entry in doc["policies"]]
    if len(pair) != 2:
        raise ValueError("expected exactly two policies in the report")
    return pair[0], pair[1]
