import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, row_scene
import goalshot.experiment
import goalshot.mlp
import goalshot.policies
from goalshot.aim import within_horizon
from goalshot.config import RunConfig
from goalshot.dynamics import DynamicsConfig
from goalshot.experiment import (HEAD_STEPS, EpisodeOutcome, MatchStats, ShotResult,
                                 report, run_experiment, stats_pair_from_json)
from goalshot.geometry import Vec2
from goalshot.keeper import KeeperModel, simulate_shot
from goalshot.mlp import TrainConfig, train
from goalshot.policies import (Action, KickDecision, LdaPolicy, MlpPolicy,
                               NaiveCenterPolicy, PolicyConfig, lda_train, stage_one_survivors)
from goalshot.scenes import (SCALAR_COLUMNS, KickScene, balance_by_replication, ball_of,
                             draw_scenes, feature_matrix, generate_synthetic_scenes,
                             scene_row, split_dataset)
from oracles import EpisodeStream, aggregate, run_episode

CFG = RunConfig()
NOISELESS = DynamicsConfig(noise_coefficient=0.0)
IDLE_KEEPER = KeeperModel(max_speed=0.0, reaction_delay=0, catch_radius=0.0,
                          positioning_noise=0.0)


class FixedPolicy:
    """Stub policy returning one canned decision."""

    name = "fixed"

    def __init__(self, decision):
        self.decision = decision

    def decide_all(self, scenes):
        return [self.decision] * len(scenes)


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

    def test_keeper_noise_without_rng_rejected(self, field):
        # The ball has no noise, so only the keeper's positioning noise needs draws.
        shot = (Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 2.0), 100.0, Vec2(51.5, -5.0), ())
        with pytest.raises(ValueError, match="^rng is required when positioning_noise > 0$"):
            simulate_shot(*shot, KeeperModel(), NOISELESS, field, None)
        quiet = KeeperModel(positioning_noise=0.0)
        assert (simulate_shot(*shot, quiet, NOISELESS, field, None)
                == simulate_shot(*shot, quiet, NOISELESS, field, np.random.default_rng(0)))


    # At rest on the line the ball never moves; behind it, kicked back toward
    # the goal, its first step would count as a crossing.
    @pytest.mark.parametrize("ball_x, power", ((52.5, 0.0), (53.0, 50.0)))
    def test_ball_on_or_past_the_goal_line_rejected(self, field, ball_x, power):
        with pytest.raises(ValueError, match="^ball must start before the goal line$"):
            simulate_shot(Vec2(ball_x, 0.0), Vec2(0.0, 0.0), Vec2(52.5, 3.0), power,
                          Vec2(51.0, 5.0), (), KeeperModel(), DynamicsConfig(), field,
                          np.random.default_rng(0))


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
    table = generate_synthetic_scenes(800, CFG.gen, CFG.dynamics, field, seed=21)
    split = split_dataset(table, seed=21)
    balanced = balance_by_replication(split.train, seed=21)
    model, _ = train(feature_matrix(balanced, field), balanced.goal,
                     feature_matrix(split.validation, field), split.validation.goal,
                     TrainConfig(max_epochs=10), seed=21)
    return {"mlp": MlpPolicy(model, field, CFG.aim, CFG.policy),
            "lda": LdaPolicy(lda_train(table.scenes(), field), field, CFG.aim, CFG.policy),
            "center": NaiveCenterPolicy(field, CFG.aim, CFG.policy)}


def game_noise(seed, game, shots):
    """A game's blocks of head uniforms and normals, as the stream contract
    states them."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, game, goalshot.experiment._GAME_NOISE_STREAM]))
    return rng.random((shots, 2 * HEAD_STEPS)), rng.standard_normal((shots, 2 * HEAD_STEPS))


def episode_stream(blocks, seed, game, shot):
    """A fresh reader of the shot's noise: its rows of the game's blocks, then
    its tail."""
    uniforms, normals = blocks
    return EpisodeStream(uniforms[shot], normals[shot], np.random.SeedSequence(
        [seed, game, shot, goalshot.experiment._EPISODE_STREAM]))


def reference_experiment(policy_a, policy_b, games, shots, seed, episode_log):
    """The loop run_experiment replaces: each side decides and resolves on
    its own, with a fresh reader of the shot's noise."""
    per_side = ([], []), ([], [])  # (kicks, goals) per game, per side
    for game in range(games):
        scene_seed = int(np.random.SeedSequence(
            [seed, game, goalshot.experiment._SCENE_STREAM]).generate_state(1)[0])
        rows = draw_scenes(shots, CFG.gen, CFG.dynamics, CFG.field, scene_seed)
        blocks = game_noise(seed, game, shots)
        counts = [[0, 0], [0, 0]]
        for shot, row in enumerate(rows):
            for side, policy in enumerate((policy_a, policy_b)):
                rng = episode_stream(blocks, seed, game, shot)
                outcome = run_episode(policy, row_scene(row), CFG.keeper, CFG.dynamics,
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

    @staticmethod
    def _count(monkeypatch):
        """Record each simulated kick's steps, and the entropy of each
        generator built on a SeedSequence (the scene generator's is an int)."""
        steps, generators = [], []
        simulate = goalshot.experiment.simulate_shot
        default_rng = np.random.default_rng

        def counted_simulate(*args, **kwargs):
            result = simulate(*args, **kwargs)
            steps.append(result[1])
            return result

        def counted_rng(seed=None):
            if isinstance(seed, np.random.SeedSequence):
                generators.append(tuple(seed.entropy))
            return default_rng(seed)

        monkeypatch.setattr(goalshot.experiment, "simulate_shot", counted_simulate)
        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        return steps, generators

    @pytest.mark.parametrize("targets, simulations", [
        ((Vec2(52.5, 1.0), Vec2(52.5, 1.0)), 1),
        ((Vec2(52.5, 1.0), Vec2(52.5, -2.0)), 2),
        ((None, None), 0),
    ])
    def test_one_simulation_and_generator_per_distinct_kick(self, monkeypatch, targets,
                                                            simulations):
        """One simulation per distinct kick; the game's noise comes from one
        generator, and a flight within its head builds no other."""
        steps, generators = self._count(monkeypatch)
        a, b = (FixedPolicy(KickDecision(Action.NO_KICK) if t is None
                            else KickDecision(Action.KICK, target=t)) for t in targets)
        stats_a, stats_b = run_experiment(a, b, 1, 1, CFG.keeper, CFG.gen, CFG.dynamics,
                                          CFG.field, seed=4)
        assert len(steps) == simulations
        assert all(n <= HEAD_STEPS for n in steps)
        assert generators == [(4, 0, goalshot.experiment._GAME_NOISE_STREAM)]
        assert stats_a.kicks == stats_b.kicks == int(targets[0] is not None)

    def test_one_tail_generator_for_a_flight_past_its_head(self, monkeypatch):
        """Slow kicks roll for more than HEAD_STEPS steps: the one flight of
        the shot both sides take builds the shot's tail generator once, and
        the shot nobody kicks builds nothing."""
        steps, generators = self._count(monkeypatch)
        slow = replace(CFG.gen, kick_power_min=10.0, kick_power_max=15.0)

        class KickFirst:
            name = "kick_first"

            def decide_all(self, scenes):
                return [KickDecision(Action.KICK, target=Vec2(52.5, 1.0))] + [
                    KickDecision(Action.NO_KICK)] * (len(scenes) - 1)

        run_experiment(KickFirst(), KickFirst(), 1, 2, CFG.keeper, slow, CFG.dynamics,
                       CFG.field, seed=4)
        [n] = steps
        assert n > HEAD_STEPS
        assert generators == [(4, 0, goalshot.experiment._GAME_NOISE_STREAM),
                              (4, 0, 0, goalshot.experiment._EPISODE_STREAM)]

    @pytest.mark.parametrize("gen, keeper", [
        (CFG.gen, CFG.keeper),
        (replace(CFG.gen, kick_power_min=10.0, kick_power_max=15.0), CFG.keeper),
        (replace(CFG.gen, kick_power_min=10.0, kick_power_max=15.0),
         replace(CFG.keeper, reaction_delay=40)),
    ], ids=["defaults", "slow-kicks", "slow-kicks-late-keeper"])
    def test_both_sides_read_the_same_values_at_different_targets(self, monkeypatch, gen,
                                                                  keeper):
        """Each kind of value a flight reads, uniforms and normals, is the
        same sequence on both sides, whatever their targets and however long
        they fly, and it is the shot's stream as the contract states it. A
        late keeper reads its first normal after the ball's uniforms have
        entered their second tail block."""
        simulate = goalshot.experiment.simulate_shot
        reads = []

        class Recorded:
            def __init__(self, rng):
                self.values = ([], [])
                self.random = lambda: self._keep(0, rng.random())
                self.standard_normal = lambda: self._keep(1, rng.standard_normal())

            def _keep(self, kind, value):
                self.values[kind].append(value)
                return value

        def recorded_simulate(*args):
            reads.append(Recorded(args[9]))
            return simulate(*args[:9], reads[-1], *args[10:])

        monkeypatch.setattr(goalshot.experiment, "simulate_shot", recorded_simulate)
        a, b = (FixedPolicy(KickDecision(Action.KICK, target=Vec2(52.5, y)))
                for y in (2.5, -3.0))
        run_experiment(a, b, 1, 4, keeper, gen, CFG.dynamics, CFG.field, seed=6)
        assert len(reads) == 8
        blocks = game_noise(6, 0, 4)
        longest = 0
        for shot in range(4):
            side_a, side_b = reads[2 * shot].values, reads[2 * shot + 1].values
            stream = episode_stream(blocks, 6, 0, shot)
            for kind, draw in enumerate((stream.random, stream.standard_normal)):
                n = max(len(side_a[kind]), len(side_b[kind]))
                expected = [draw() for _ in range(n)]
                assert side_a[kind] == expected[:len(side_a[kind])]
                assert side_b[kind] == expected[:len(side_b[kind])]
                longest = max(longest, min(len(side_a[kind]), len(side_b[kind])))
        # Both sides read into the tail of some shot at the slow kicks.
        assert (longest > 2 * HEAD_STEPS) == (gen.kick_power_max == 15.0)
        if keeper.reaction_delay > 2 * HEAD_STEPS:
            # a flight whose uniforms enter their second tail block before its first normal
            assert max(len(r.values[0]) for r in reads if r.values[1]) > 4 * HEAD_STEPS

    def test_changing_one_shot_leaves_the_others_unchanged(self, policies):
        """Each shot reads only its own noise: replacing one shot's decision
        on one side moves no other episode's log line."""
        base = policies["mlp"]

        class OneShotChanged:
            name = base.name

            def decide_all(self, scenes):
                decisions = base.decide_all(scenes)
                kick = decisions[3].action is Action.KICK
                decisions[3] = (KickDecision(Action.NO_KICK) if kick else
                                KickDecision(Action.KICK, target=Vec2(52.5, 0.0)))
                return decisions

        logs = []
        for side_a in (base, OneShotChanged()):
            log = io.StringIO()
            run_experiment(side_a, policies["lda"], 8, 10, CFG.keeper, CFG.gen,
                           CFG.dynamics, CFG.field, 19, CFG.gen.defender_catch_radius,
                           episode_log=log)
            logs.append(log.getvalue().splitlines())
        changed = [i for i, (old, new) in enumerate(zip(*logs)) if old != new]
        # side a's line of shot 3 of each game, and nothing else
        assert changed == [game * 20 + 2 * 3 for game in range(8)]

    def test_swapping_the_sides_swaps_the_stats(self, policies):
        args = 20, 10, CFG.keeper, CFG.gen, CFG.dynamics, CFG.field, 23
        stats_ab = run_experiment(policies["mlp"], policies["lda"], *args)
        stats_ba = run_experiment(policies["lda"], policies["mlp"], *args)
        assert stats_ba == stats_ab[::-1]
        assert stats_ab[0] != stats_ab[1]


class Recording:
    """A policy that records each batch of scenes it decides, then defers."""

    def __init__(self, policy):
        self.name, self.policy, self.batches = policy.name, policy, []

    def decide_all(self, scenes):
        self.batches.append(scenes)
        return self.policy.decide_all(scenes)


class TestSceneStream:
    def test_games_run_no_labelling_flight(self, policies, monkeypatch):
        """With the labelling shot made to raise, a 3-game mlp-vs-lda
        experiment completes, and each game's scenes are draw_scenes' rows
        from the game's scene seed: no label noise, and no label."""
        def no_label(*args, **kwargs):
            raise AssertionError("a game scene was labelled")
        monkeypatch.setattr(goalshot.scenes, "simulate_shot", no_label)
        side_a, side_b = Recording(policies["mlp"]), Recording(policies["lda"])
        stats = run_experiment(side_a, side_b, 3, 10, CFG.keeper, CFG.gen, CFG.dynamics,
                               CFG.field, 31)
        assert stats[0].kicks + stats[1].kicks > 0
        expected = [draw_scenes(10, CFG.gen, CFG.dynamics, CFG.field, int(
            np.random.SeedSequence([31, game, goalshot.experiment._SCENE_STREAM])
            .generate_state(1)[0])) for game in range(3)]
        assert side_a.batches == side_b.batches == expected
        assert all(len(values) == len(SCALAR_COLUMNS) for rows in expected for values, _ in rows)

    def test_a_game_builds_no_kick_scene_and_no_vec2(self, policies, monkeypatch):
        """From draw to kick a game runs on the rows' floats: once the aim
        points and the posts are built, an mlp-vs-lda game with kicks and
        an episode log constructs no KickScene and no Vec2."""
        args = (1, 10, CFG.keeper, CFG.gen, CFG.dynamics, CFG.field)
        run_experiment(policies["mlp"], policies["lda"], *args, 3)  # warm-up
        built = []
        for cls in (KickScene, Vec2):
            post_init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, post_init=post_init:
                                built.append(self) or post_init(self))
        assert Vec2(1.0, 2.0) and built  # the count sees a construction
        built.clear()
        stats = run_experiment(policies["mlp"], policies["lda"], *args, 4,
                               episode_log=io.StringIO())
        assert built == []
        assert stats[0].kicks > 0 and stats[1].kicks > 0


class TestDecisionCallSites:
    """A paired game reaches stage one and the scorer through the names
    perfbench's tracer wraps: stage one once per ball, shared by both
    policies, and the scorer once for every survivor row of the game."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("x_min,seed", [(CFG.gen.x_min, 3), (5.0, 5)])
    def test_one_game_scores_once_and_runs_stage_one_once_per_ball(self, policies, x_min,
                                                                   seed, monkeypatch):
        gen, shots = replace(CFG.gen, x_min=x_min), 10
        scene_seed = int(np.random.SeedSequence([seed, 0, goalshot.experiment._SCENE_STREAM])
                         .generate_state(1)[0])
        balls = [ball_of(values) for values, _ in draw_scenes(shots, gen, CFG.dynamics,
                                                              CFG.field, scene_seed)]
        in_range = [b for b in balls if within_horizon(b, CFG.field, CFG.aim)]
        survivors = sum(len(stage_one_survivors(b, CFG.field, CFG.aim, CFG.policy))
                        for b in in_range)
        assert survivors > 0 and (x_min == CFG.gen.x_min or len(in_range) < shots)
        goalshot.policies._stage_one_memo.clear()
        scored = self._count(monkeypatch, goalshot.mlp, "score_batch")
        stage_one = self._count(monkeypatch, goalshot.policies, "stage_one_survivors")
        run_experiment(policies["mlp"], policies["lda"], 1, shots, CFG.keeper, gen,
                       CFG.dynamics, CFG.field, seed)
        assert [len(rows) for _, rows in scored] == [survivors]
        assert [ball for ball, *_ in stage_one] == balls

    def test_policies_decide_through_the_module_functions(self, policies, monkeypatch):
        scenes = generate_synthetic_scenes(4, CFG.gen, CFG.dynamics, CFG.field, 7).scenes()
        batched = {name: self._count(monkeypatch, type(policies[name]), "decide_all")
                   for name in ("mlp", "lda")}
        single = {name: self._count(monkeypatch, goalshot.policies, f"{name}_policy_decide")
                  for name in ("mlp", "lda")}
        for name in ("mlp", "lda"):
            policies[name].decide_all([scene_row(scene) for scene in scenes])
            policies[name].decide(scenes[0])
            # decide is the batch of its one scene
            assert [len(rows) for _, rows in batched[name]] == [4, 1]
            assert [args[0] for args in single[name]] == [scenes[0]]


@st.composite
def per_game_counts(draw):
    """Both sides' per-game kicks and goals (goals <= kicks <= shots) over
    1-300 games; a side kicks in no game now and then."""
    games, shots = draw(st.integers(1, 300)), draw(st.integers(1, 20))
    kicks = tuple([0] * games if draw(st.integers(0, 4)) == 0 else
                  draw(st.lists(st.integers(0, shots), min_size=games, max_size=games))
                  for _ in range(2))
    goals = tuple([draw(st.integers(0, k)) for k in side] for side in kicks)
    return kicks, goals


class TestAggregate:
    @settings(max_examples=300, deadline=None)
    @given(counts=per_game_counts())
    def test_equals_the_per_list_reference(self, counts):
        kicks, goals = counts
        stats = goalshot.experiment._aggregate(kicks, goals)
        expected = (aggregate(kicks[0], goals[0], goals[1]),
                    aggregate(kicks[1], goals[1], goals[0]))
        for got, want in zip(stats, expected):
            for field_ in fields(MatchStats):
                value, reference = getattr(got, field_.name), getattr(want, field_.name)
                assert type(value) is type(reference), field_.name
                if isinstance(reference, float):
                    assert float.hex(value) == float.hex(reference), field_.name
                else:
                    assert value == reference, field_.name
            assert (got.effectiveness is None) == (got.kicks == 0)


class Renamed:
    """A policy under another name, or under none (name None)."""

    def __init__(self, policy, name):
        self.policy = policy
        if name is not None:
            self.name = name

    def decide_all(self, scenes):
        return self.policy.decide_all(scenes)


@pytest.mark.parametrize("names", [('say "hi"', "back\\slash"), ("tab\there", "caf\u00e9"),
                                   (None, "lda"), ("mlp", None)])
def test_episode_log_lines_are_json_dumps_of_the_record(field, names):
    games, shots = 3, 6
    policies = (Renamed(NaiveCenterPolicy(field, CFG.aim, PolicyConfig()), names[0]),
                Renamed(FixedPolicy(KickDecision(Action.NO_KICK)), names[1]))
    log = io.StringIO()
    run_experiment(*policies, games, shots, CFG.keeper, CFG.gen, CFG.dynamics, field,
                   seed=11, episode_log=log)
    lines = log.getvalue().splitlines(keepends=True)
    assert len(lines) == 2 * games * shots
    results = set()
    for i, line in enumerate(lines):
        side = i % 2
        entry = json.loads(line)
        record = {"game": i // (2 * shots), "shot": i // 2 % shots,
                  "policy": f"policy_{side}" if names[side] is None else names[side],
                  "kicked": entry["kicked"], "result": entry["result"],
                  "steps": entry["steps"]}
        assert line == json.dumps(record) + "\n"
        results.add(record["result"])
    assert {"GOAL", "NO_KICK"} <= results


ZERO_KICK_STATS = MatchStats(kicks=0, kicks_mean_per_game=0.0, kicks_std=0.0,
                             goals=0, goals_mean_per_game=0.0, goals_std=0.0,
                             effectiveness=None, wins=0, losses=2, draws=0)
SOME_STATS = MatchStats(kicks=7, kicks_mean_per_game=3.5, kicks_std=0.5,
                        goals=3, goals_mean_per_game=1.5, goals_std=0.5,
                        effectiveness=3 / 7, wins=2, losses=0, draws=0)

NON_FINITE_STATS = MatchStats(kicks=3, kicks_mean_per_game=math.inf, kicks_std=math.nan,
                              goals=1, goals_mean_per_game=-math.inf, goals_std=0.1 + 0.2,
                              effectiveness=1 / 3, wins=True, losses=0, draws=10**30)


class TestReport:
    def test_text_renders_na_for_zero_kicks(self):
        text = report((ZERO_KICK_STATS, SOME_STATS), "text", names=("a", "b"))
        assert "n/a" in text
        assert "Effectiveness" in text
        assert len(text.splitlines()) == 11  # header + ten metric rows

    @pytest.mark.parametrize("names", [("mlp", "lda"), ('say "hi"', "back\\slash"),
                                       ("tab\there", "caf\u00e9 \u2028 \x00")])
    @pytest.mark.parametrize("pair", [(SOME_STATS, ZERO_KICK_STATS), (ZERO_KICK_STATS, SOME_STATS),
                                      (NON_FINITE_STATS, SOME_STATS)])
    def test_json_is_json_dumps_of_the_document(self, pair, names):
        doc = {"policies": [{"name": name, "stats": {f.name: getattr(stats, f.name)
                                                      for f in fields(MatchStats)}}
                            for name, stats in zip(names, pair)]}
        assert report(pair, "json", names=names) == json.dumps(doc, indent=1)

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
