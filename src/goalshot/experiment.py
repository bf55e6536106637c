"""Policy-vs-policy shot experiments and aggregate match reports.

A "game" is a bundle of shot episodes. In an experiment both policies face
the identical seeded stream of scenes, and each episode seeds its noise
from the (experiment seed, game, shot) triple, so two policies, or two
runs, see exactly the same world and differ only through their decisions.
The two sides of a shot share its seed, so a kick both policies take at the
same target has one outcome, simulated once. Per-game goal totals decide
win/loss/draw.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .dynamics import DynamicsConfig
from .geometry import FieldConfig
from .keeper import (DEFAULT_DEFENDER_CATCH_RADIUS, KeeperModel, ShotResult,
                     simulate_shot)
from .policies import Action, KickDecision, Policy
from .scenes import GeneratorConfig, KickScene, generate_synthetic_scenes

__all__ = [
    "KeeperModel", "ShotResult", "EpisodeOutcome", "MatchStats", "check_report_format",
    "run_episode", "run_experiment", "report", "stats_pair_from_json",
]

# Entropy tags keeping scene-generation and episode noise streams apart.
_SCENE_STREAM = 1
_EPISODE_STREAM = 2


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


def _resolve(decision: KickDecision, scene: KickScene, keeper: KeeperModel,
             dynamics: DynamicsConfig, field: FieldConfig,
             seed: np.random.SeedSequence | np.random.Generator,
             defender_catch_radius: float) -> EpisodeOutcome:
    """Simulate the decision's kick, if any; the noise generator is built
    from seed only for a kick (a Generator is used as it is)."""
    if decision.action is not Action.KICK:
        return _NO_KICK_OUTCOME
    result, steps = simulate_shot(
        scene.ball, scene.ball_velocity, decision.target, scene.kick_power,
        scene.keeper, scene.defenders, keeper, dynamics, field,
        np.random.default_rng(seed), defender_catch_radius)
    return EpisodeOutcome(kicked=True, result=result, steps=steps)


def run_episode(policy: Policy, scene: KickScene, keeper: KeeperModel,
                dynamics: DynamicsConfig, field: FieldConfig,
                rng: np.random.Generator,
                defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS,
                ) -> EpisodeOutcome:
    """Let the policy decide on the scene and resolve any kick it takes."""
    return _resolve(policy.decide(scene), scene, keeper, dynamics, field, rng,
                    defender_catch_radius)


def _aggregate(kicks_per_game: list[int], goals_per_game: list[int],
               opponent_goals: list[int]) -> MatchStats:
    kicks = np.array(kicks_per_game)
    goals = np.array(goals_per_game)
    opponent = np.array(opponent_goals)
    total_kicks = int(kicks.sum())
    total_goals = int(goals.sum())
    return MatchStats(
        kicks=total_kicks,
        kicks_mean_per_game=float(kicks.mean()),
        kicks_std=float(kicks.std()),
        goals=total_goals,
        goals_mean_per_game=float(goals.mean()),
        goals_std=float(goals.std()),
        effectiveness=total_goals / total_kicks if total_kicks else None,
        wins=int(np.sum(goals > opponent)),
        losses=int(np.sum(goals < opponent)),
        draws=int(np.sum(goals == opponent)),
    )


def run_experiment(policy_a: Policy, policy_b: Policy, games: int,
                   shots_per_game: int, keeper: KeeperModel,
                   gen_config: GeneratorConfig, dynamics: DynamicsConfig,
                   field: FieldConfig, seed: int,
                   defender_catch_radius: float = DEFAULT_DEFENDER_CATCH_RADIUS,
                   episode_log: IO[str] | None = None,
                   ) -> tuple[MatchStats, MatchStats]:
    """Paired experiment: both policies face the same scenes and noise.

    Episode seeds come from a splittable scheme, so episodes are mutually
    independent and could be resolved in any order; results are reduced in
    (game, shot) order. Both sides of a shot draw from the same seed, so
    when their decisions agree (the same action and target) the second
    side reuses the first side's outcome instead of simulating the same
    kick again. With episode_log set, one JSON line is written per
    episode, side a first.
    """
    check_experiment_size(games, shots_per_game)
    kicks: tuple[list[int], list[int]] = ([], [])
    goals: tuple[list[int], list[int]] = ([], [])
    for game in range(games):
        scene_seed = int(np.random.SeedSequence(
            [seed, game, _SCENE_STREAM]).generate_state(1)[0])
        scenes = generate_synthetic_scenes(shots_per_game, gen_config, dynamics,
                                           field, scene_seed)
        game_kicks = [0, 0]
        game_goals = [0, 0]
        for shot, scene in enumerate(scenes):
            episode_seed = np.random.SeedSequence([seed, game, shot, _EPISODE_STREAM])
            outcomes: dict[tuple, EpisodeOutcome] = {}
            for side, policy in enumerate((policy_a, policy_b)):
                decision = policy.decide(scene)
                key = (decision.action, decision.target)
                outcome = outcomes.get(key)
                if outcome is None:
                    outcome = outcomes[key] = _resolve(
                        decision, scene, keeper, dynamics, field, episode_seed,
                        defender_catch_radius)
                game_kicks[side] += int(outcome.kicked)
                game_goals[side] += int(outcome.result is ShotResult.GOAL)
                if episode_log is not None:
                    episode_log.write(json.dumps({
                        "game": game,
                        "shot": shot,
                        "policy": getattr(policy, "name", f"policy_{side}"),
                        "kicked": outcome.kicked,
                        "result": outcome.result.value,
                        "steps": outcome.steps,
                    }) + "\n")
        for side in (0, 1):
            kicks[side].append(game_kicks[side])
            goals[side].append(game_goals[side])
    stats_a = _aggregate(kicks[0], goals[0], goals[1])
    stats_b = _aggregate(kicks[1], goals[1], goals[0])
    return stats_a, stats_b


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


def report(stats_pair: tuple[MatchStats, MatchStats], format: str,
           names: Sequence[str] = ("policy_a", "policy_b")) -> str:
    """Render the ten aggregate rows as 'text', 'csv' or 'json'."""
    check_report_format(format)
    stats_a, stats_b = stats_pair
    if format == "json":
        return json.dumps({
            "policies": [
                {"name": names[0], "stats": asdict(stats_a)},
                {"name": names[1], "stats": asdict(stats_b)},
            ]
        }, indent=1)
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
