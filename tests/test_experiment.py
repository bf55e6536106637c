import io
import json
import math

import numpy as np
import pytest

from conftest import make_scene
import goalshot.experiment
from goalshot.config import RunConfig
from goalshot.dynamics import DynamicsConfig
from goalshot.experiment import (EpisodeOutcome, MatchStats, ShotResult, report,
                                 run_episode, run_experiment,
                                 stats_pair_from_json)
from goalshot.geometry import Vec2
from goalshot.keeper import KeeperModel, simulate_shot
from goalshot.mlp import TrainConfig, train
from goalshot.policies import (Action, KickDecision, LdaPolicy, MlpPolicy,
                               NaiveCenterPolicy, PolicyConfig, lda_train)
from goalshot.scenes import (SceneTable, balance_by_replication, feature_matrix,
                             generate_synthetic_scenes, split_dataset)

CFG = RunConfig()
NOISELESS = DynamicsConfig(noise_coefficient=0.0)
IDLE_KEEPER = KeeperModel(max_speed=0.0, reaction_delay=0, catch_radius=0.0,
                          positioning_noise=0.0)


class FixedPolicy:
    """Stub policy returning one canned decision."""

    name = "fixed"

    def __init__(self, decision):
        self.decision = decision

    def decide(self, scene):
        return self.decision


class TestSimulateShot:
    def test_unopposed_straight_shot_scores(self, field):
        rng = np.random.default_rng(0)
        result, steps = simulate_shot(
            Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 2.0), 100.0,
            Vec2(51.5, -5.0), (), IDLE_KEEPER, NOISELESS, field, rng)
        assert result is ShotResult.GOAL
        assert steps > 0

    def test_shot_aimed_wide_with_zero_noise(self, field):
        rng = np.random.default_rng(0)
        result, _ = simulate_shot(
            Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 9.5), 100.0,
            Vec2(51.5, -5.0), (), IDLE_KEEPER, NOISELESS, field, rng)
        assert result is ShotResult.WIDE

    def test_defender_on_the_line_blocks(self, field):
        rng = np.random.default_rng(0)
        result, _ = simulate_shot(
            Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 0.0), 100.0,
            Vec2(51.5, -5.0), (Vec2(40.0, 0.3),), IDLE_KEEPER, NOISELESS,
            field, rng, defender_catch_radius=1.0)
        assert result is ShotResult.CAUGHT

    def test_fast_ball_cannot_tunnel_through_reach(self, field):
        # The ball covers ~2.5 m per step; the defender sits between two
        # successive ball positions but within reach of the path segment.
        rng = np.random.default_rng(0)
        result, _ = simulate_shot(
            Vec2(40.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 0.0), 100.0,
            Vec2(52.0, -6.9), (Vec2(41.3, 0.9),), IDLE_KEEPER, NOISELESS,
            field, rng, defender_catch_radius=1.0)
        assert result is ShotResult.CAUGHT

    def test_weak_kick_dies_and_counts_as_caught(self, field):
        rng = np.random.default_rng(0)
        result, _ = simulate_shot(
            Vec2(20.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 0.0), 40.0,
            Vec2(51.5, -5.0), (), IDLE_KEEPER, NOISELESS, field, rng)
        assert result is ShotResult.CAUGHT

    def test_pursuing_keeper_catches_reachable_shot(self, field):
        rng = np.random.default_rng(0)
        keeper = KeeperModel(max_speed=1.0, reaction_delay=0, catch_radius=1.0,
                             positioning_noise=0.0)
        result, _ = simulate_shot(
            Vec2(25.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 0.0), 80.0,
            Vec2(50.0, 3.0), (), keeper, NOISELESS, field, rng)
        assert result is ShotResult.CAUGHT


class TestRunEpisode:
    def test_no_kick_policy(self, field):
        policy = FixedPolicy(KickDecision(Action.NO_KICK))
        outcome = run_episode(policy, make_scene(), CFG.keeper, CFG.dynamics,
                              field, np.random.default_rng(0))
        assert outcome == EpisodeOutcome(False, ShotResult.NO_KICK, 0)

    def test_kick_resolves_shot(self, field):
        policy = FixedPolicy(KickDecision(Action.KICK, target=Vec2(52.5, 0.0)))
        scene = make_scene(ball=Vec2(46.0, 0.0), keeper=Vec2(52.0, -6.0),
                           kick_power=100.0)
        outcome = run_episode(policy, scene, IDLE_KEEPER, NOISELESS, field,
                              np.random.default_rng(0))
        assert outcome.kicked
        assert outcome.result is ShotResult.GOAL

    def test_same_seed_same_outcome(self, field):
        policy = FixedPolicy(KickDecision(Action.KICK, target=Vec2(52.5, 3.0)))
        scene = make_scene(ball=Vec2(30.0, -4.0))
        outcomes = [run_episode(policy, scene, CFG.keeper, CFG.dynamics, field,
                                np.random.default_rng(42)) for _ in range(2)]
        assert outcomes[0] == outcomes[1]


class TestRunExperiment:
    def test_identical_policies_draw_every_game(self, field):
        policy = NaiveCenterPolicy(field, CFG.aim, PolicyConfig())
        stats_a, stats_b = run_experiment(policy, policy, 6, 5, CFG.keeper,
                                          CFG.gen, CFG.dynamics, field, seed=3)
        assert stats_a == stats_b
        assert stats_a.draws == 6
        assert stats_a.wins == stats_a.losses == 0

    def test_aggregate_consistency(self, field):
        policy = NaiveCenterPolicy(field, CFG.aim, PolicyConfig())
        stats_a, stats_b = run_experiment(policy, policy, 5, 8, CFG.keeper,
                                          CFG.gen, CFG.dynamics, field, seed=5)
        for stats in (stats_a, stats_b):
            assert stats.goals <= stats.kicks
            assert stats.wins + stats.losses + stats.draws == 5
            assert math.isclose(stats.effectiveness, stats.goals / stats.kicks,
                                abs_tol=1e-15)
            assert math.isclose(stats.kicks_mean_per_game * 5, stats.kicks,
                                abs_tol=1e-9)

    def test_stronger_keeper_never_helps_the_shooter(self, field):
        policy = NaiveCenterPolicy(field, CFG.aim, PolicyConfig())
        effectiveness = []
        for speed in (0.1, 0.9):
            keeper = KeeperModel(max_speed=speed, reaction_delay=1,
                                 catch_radius=1.0, positioning_noise=0.1)
            stats, _ = run_experiment(policy, policy, 25, 8, keeper, CFG.gen,
                                      CFG.dynamics, field, seed=7)
            effectiveness.append(stats.effectiveness)
        assert effectiveness[0] > effectiveness[1]

    def test_episode_log_matches_aggregates(self, field):
        policy = NaiveCenterPolicy(field, CFG.aim, PolicyConfig())
        log = io.StringIO()
        stats_a, _ = run_experiment(policy, policy, 4, 6, CFG.keeper, CFG.gen,
                                    CFG.dynamics, field, seed=9, episode_log=log)
        entries = [json.loads(line) for line in log.getvalue().splitlines()]
        assert len(entries) == 4 * 6 * 2
        # Recompute per-game aggregates for side a from the log.
        first_seen: dict[tuple[int, int], dict] = {}
        for e in entries:
            first_seen.setdefault((e["game"], e["shot"]), e)
        per_game_kicks = [0] * 4
        per_game_goals = [0] * 4
        for (game, _), e in first_seen.items():
            per_game_kicks[game] += int(e["kicked"])
            per_game_goals[game] += int(e["result"] == "GOAL")
        assert sum(per_game_kicks) == stats_a.kicks
        assert sum(per_game_goals) == stats_a.goals
        assert math.isclose(np.mean(per_game_kicks), stats_a.kicks_mean_per_game,
                            abs_tol=1e-9)
        assert math.isclose(np.std(per_game_kicks), stats_a.kicks_std, abs_tol=1e-9)
        assert math.isclose(np.std(per_game_goals), stats_a.goals_std, abs_tol=1e-9)

    def test_invalid_counts_rejected(self, field):
        policy = NaiveCenterPolicy(field, CFG.aim, PolicyConfig())
        with pytest.raises(ValueError):
            run_experiment(policy, policy, 0, 5, CFG.keeper, CFG.gen,
                           CFG.dynamics, field, seed=0)


@pytest.fixture(scope="module")
def policies():
    """mlp, lda and center policies; the mlp is trained briefly, so it and
    the lda often, but not always, kick at the same target."""
    field = CFG.field
    scenes = generate_synthetic_scenes(800, CFG.gen, CFG.dynamics, field, seed=21)
    split = split_dataset(SceneTable.from_scenes(scenes), seed=21)
    balanced = balance_by_replication(split.train, seed=21)
    model, _ = train(feature_matrix(balanced, field), balanced.goal,
                     feature_matrix(split.validation, field), split.validation.goal,
                     TrainConfig(max_epochs=10, seed=21))
    return {"mlp": MlpPolicy(model, field, CFG.aim, CFG.policy),
            "lda": LdaPolicy(lda_train(scenes, field), field, CFG.aim, CFG.policy),
            "center": NaiveCenterPolicy(field, CFG.aim, CFG.policy)}


def reference_experiment(policy_a, policy_b, games, shots, seed, episode_log):
    """The loop run_experiment replaces: each side decides and resolves on
    its own, with a fresh generator from the shot's seed."""
    per_side = ([], []), ([], [])  # (kicks, goals) per game, per side
    for game in range(games):
        scene_seed = int(np.random.SeedSequence(
            [seed, game, goalshot.experiment._SCENE_STREAM]).generate_state(1)[0])
        scenes = generate_synthetic_scenes(shots, CFG.gen, CFG.dynamics, CFG.field,
                                           scene_seed)
        counts = [[0, 0], [0, 0]]
        for shot, scene in enumerate(scenes):
            for side, policy in enumerate((policy_a, policy_b)):
                rng = np.random.default_rng(np.random.SeedSequence(
                    [seed, game, shot, goalshot.experiment._EPISODE_STREAM]))
                outcome = run_episode(policy, scene, CFG.keeper, CFG.dynamics,
                                      CFG.field, rng, CFG.gen.defender_catch_radius)
                counts[side][0] += int(outcome.kicked)
                counts[side][1] += int(outcome.result is ShotResult.GOAL)
                episode_log.write(json.dumps({
                    "game": game, "shot": shot, "policy": policy.name,
                    "kicked": outcome.kicked, "result": outcome.result.value,
                    "steps": outcome.steps}) + "\n")
        for side in (0, 1):
            per_side[side][0].append(counts[side][0])
            per_side[side][1].append(counts[side][1])
    aggregate = goalshot.experiment._aggregate
    return (aggregate(*per_side[0], per_side[1][1]),
            aggregate(*per_side[1], per_side[0][1]))


class TestSharedResolution:
    @pytest.mark.parametrize("a, b", [("mlp", "lda"), ("lda", "mlp"), ("mlp", "mlp"),
                                      ("center", "lda")])
    def test_matches_the_per_side_loop(self, policies, a, b, monkeypatch):
        logs = io.StringIO(), io.StringIO()
        args = policies[a], policies[b], 20, 10
        expected = reference_experiment(*args, 17, logs[0])
        sims = []
        simulate = goalshot.experiment.simulate_shot
        monkeypatch.setattr(goalshot.experiment, "simulate_shot",
                            lambda *shot: sims.append(shot) or simulate(*shot))
        stats = run_experiment(*args, CFG.keeper, CFG.gen, CFG.dynamics, CFG.field, 17,
                               CFG.gen.defender_catch_radius, episode_log=logs[1])
        assert stats == expected
        assert logs[1].getvalue() == logs[0].getvalue()
        kicks = stats[0].kicks, stats[1].kicks
        assert max(kicks) <= len(sims) <= sum(kicks)
        if a == b:
            assert len(sims) == kicks[0]
        elif "center" not in (a, b):  # both branches ran: shared and split kicks
            assert max(kicks) < len(sims) < sum(kicks)

    @pytest.mark.parametrize("targets, simulations", [
        ((Vec2(52.5, 1.0), Vec2(52.5, 1.0)), 1),
        ((Vec2(52.5, 1.0), Vec2(52.5, -2.0)), 2),
        ((None, None), 0),
    ])
    def test_one_simulation_and_generator_per_distinct_kick(self, monkeypatch, targets,
                                                            simulations):
        sims, generators = [], []
        simulate = goalshot.experiment.simulate_shot
        default_rng = np.random.default_rng

        def counted_simulate(*args, **kwargs):
            sims.append(args[2])
            return simulate(*args, **kwargs)

        def counted_rng(seed=None):
            if isinstance(seed, np.random.SeedSequence):  # not the scene generator's
                generators.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(goalshot.experiment, "simulate_shot", counted_simulate)
        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        a, b = (FixedPolicy(KickDecision(Action.NO_KICK) if t is None
                            else KickDecision(Action.KICK, target=t)) for t in targets)
        stats_a, stats_b = run_experiment(a, b, 1, 1, CFG.keeper, CFG.gen, CFG.dynamics,
                                          CFG.field, seed=4)
        assert len(sims) == len(generators) == simulations
        assert stats_a.kicks == stats_b.kicks == int(targets[0] is not None)

    def test_swapping_the_sides_swaps_the_stats(self, policies):
        args = 20, 10, CFG.keeper, CFG.gen, CFG.dynamics, CFG.field, 23
        stats_ab = run_experiment(policies["mlp"], policies["lda"], *args)
        stats_ba = run_experiment(policies["lda"], policies["mlp"], *args)
        assert stats_ba == stats_ab[::-1]
        assert stats_ab[0] != stats_ab[1]


ZERO_KICK_STATS = MatchStats(kicks=0, kicks_mean_per_game=0.0, kicks_std=0.0,
                             goals=0, goals_mean_per_game=0.0, goals_std=0.0,
                             effectiveness=None, wins=0, losses=2, draws=0)
SOME_STATS = MatchStats(kicks=7, kicks_mean_per_game=3.5, kicks_std=0.5,
                        goals=3, goals_mean_per_game=1.5, goals_std=0.5,
                        effectiveness=3 / 7, wins=2, losses=0, draws=0)


class TestReport:
    def test_text_renders_na_for_zero_kicks(self):
        text = report((ZERO_KICK_STATS, SOME_STATS), "text", names=("a", "b"))
        assert "n/a" in text
        assert "Effectiveness" in text
        assert len(text.splitlines()) == 11  # header + ten metric rows

    def test_json_round_trip(self):
        text = report((SOME_STATS, ZERO_KICK_STATS), "json", names=("x", "y"))
        assert stats_pair_from_json(text) == (SOME_STATS, ZERO_KICK_STATS)

    def test_csv_and_json_agree(self):
        csv_text = report((SOME_STATS, ZERO_KICK_STATS), "csv", names=("x", "y"))
        parsed = stats_pair_from_json(
            report((SOME_STATS, ZERO_KICK_STATS), "json", names=("x", "y")))
        rows = dict(line.split(",", 1) for line in csv_text.splitlines()[1:])
        assert float(rows["effectiveness"].split(",")[0]) == parsed[0].effectiveness
        assert rows["kicks"] == "7,0"
        assert rows["wins"] == "2,0"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report((SOME_STATS, SOME_STATS), "yaml")
