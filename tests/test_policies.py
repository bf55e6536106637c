import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, row_scene
import goalshot.mlp
import goalshot.policies
from goalshot.aim import ShotQuery, discretize_targets, p_goal, within_horizon
from goalshot.config import RunConfig
from goalshot.geometry import FieldConfig, Vec2
from goalshot.mlp import MlpParams, TrainConfig, forward, score, train
from goalshot.policies import (Action, KickDecision, LdaModel, LdaPolicy,
                               MlpPolicy, NaiveCenterPolicy, PolicyConfig,
                               lda_policy_decide, lda_train, mlp_policy_decide,
                               naive_center_policy, stage_one_survivors)
from goalshot.scenes import (FEATURE_NAMES, Label, balance_by_replication, draw_scenes,
                             extract_features, feature_matrix, generate_synthetic_scenes,
                             scene_row, split_dataset)
from oracles import angle_at, mirror_scene

CFG = RunConfig()
POLICY = PolicyConfig()


@pytest.fixture(scope="module")
def trained_model():
    table = generate_synthetic_scenes(1200, CFG.gen, CFG.dynamics, CFG.field, seed=2)
    split = split_dataset(table, seed=2)
    balanced = balance_by_replication(split.train, seed=2)
    params, _ = train(feature_matrix(balanced, CFG.field), balanced.goal,
                      feature_matrix(split.validation, CFG.field), split.validation.goal,
                      TrainConfig(max_epochs=40, patience=8), seed=2)
    return params


def brute_force_mlp_decision(scene, model, field, aim_config, policy_config):
    """Independent re-evaluation of every target with the two-stage rule."""
    candidates = []
    for target in discretize_targets(field, aim_config):
        pg = p_goal(ShotQuery(scene.ball, target), field, aim_config).p_goal
        if pg < policy_config.p_goal_threshold:
            continue
        features = extract_features(replace(scene, target=target), field)
        s = score(*forward(model, features))
        if s > policy_config.score_threshold:
            candidates.append((target, s, pg))
    if not candidates:
        return KickDecision(Action.NO_KICK)
    best = candidates[0]
    for cand in candidates[1:]:
        if (cand[1], -abs(cand[0].y), -cand[0].y) > (best[1], -abs(best[0].y),
                                                     -best[0].y):
            best = cand
    return KickDecision(Action.KICK, target=best[0], neural_score=best[1],
                        p_goal=best[2])


def brute_force_lda_decision(scene, model, field, aim_config, policy_config):
    """Independent re-evaluation of every target with the LDA two-stage rule."""
    keeper_distance = scene.keeper.distance_to(scene.ball)
    best = None
    for target in discretize_targets(field, aim_config):
        pg = p_goal(ShotQuery(scene.ball, target), field, aim_config).p_goal
        if pg < policy_config.p_goal_threshold:
            continue
        value = model.discriminant(keeper_distance,
                                   angle_at(scene.ball, scene.keeper, target))
        if value <= 0.0:
            continue
        if best is None or ((value, -abs(target.y), -target.y)
                            > (best[1], -abs(best[0].y), -best[0].y)):
            best = (target, value, pg)
    if best is None:
        return KickDecision(Action.NO_KICK)
    return KickDecision(Action.KICK, target=best[0], p_goal=best[2])


@pytest.fixture(scope="module")
def lda_model():
    return lda_train(generate_synthetic_scenes(600, CFG.gen, CFG.dynamics, CFG.field,
                                               seed=4).scenes(), CFG.field)


class TestMlpPolicy:
    def test_no_kick_when_every_target_fails_stage_one(self, field, trained_model):
        scene = make_scene(ball=Vec2(13.0, 14.0), attacker=Vec2(12.5, 14.0))
        assert stage_one_survivors(scene.ball, field, CFG.aim, POLICY) == []
        decision = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
        assert decision.action is Action.NO_KICK
        assert not decision.out_of_range

    def test_out_of_horizon_is_flagged(self, field, trained_model):
        scene = make_scene(ball=Vec2(0.0, 0.0), attacker=Vec2(-0.7, 0.0))
        decision = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
        assert decision.action is Action.NO_KICK
        assert decision.out_of_range

    def test_matches_brute_force_on_random_scenes(self, field, trained_model):
        scenes = generate_synthetic_scenes(300, CFG.gen, CFG.dynamics, field, seed=8).scenes()
        kicks = 0
        for scene in scenes:
            decision = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
            expected = brute_force_mlp_decision(scene, trained_model, field,
                                                CFG.aim, POLICY)
            assert decision.action is expected.action
            if decision.action is Action.KICK:
                kicks += 1
                assert decision.target == expected.target
                assert decision.neural_score == expected.neural_score
                assert decision.p_goal == expected.p_goal
        assert kicks > 0  # the comparison exercised real kicks

    def test_kick_honors_thresholds(self, field, trained_model):
        scenes = generate_synthetic_scenes(200, CFG.gen, CFG.dynamics, field, seed=9).scenes()
        for scene in scenes:
            decision = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
            if decision.action is Action.KICK:
                assert decision.p_goal >= POLICY.p_goal_threshold
                assert decision.neural_score > POLICY.score_threshold

    def test_raising_score_threshold_never_creates_kicks(self, field, trained_model):
        scenes = generate_synthetic_scenes(200, CFG.gen, CFG.dynamics, field, seed=10).scenes()
        strict = PolicyConfig(score_threshold=0.75)
        for scene in scenes:
            loose_action = mlp_policy_decide(scene, trained_model, field, CFG.aim,
                                             POLICY).action
            strict_action = mlp_policy_decide(scene, trained_model, field, CFG.aim,
                                              strict).action
            if loose_action is Action.NO_KICK:
                assert strict_action is Action.NO_KICK

    def test_decide_is_pure(self, field, trained_model):
        scene = make_scene()
        first = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
        second = mlp_policy_decide(scene, trained_model, field, CFG.aim, POLICY)
        assert first == second


class TestLdaTrain:
    def _scene_with(self, distance, angle, label):
        # Keeper placed so the (distance, keeper angle) pair is exact.
        ball = Vec2(30.0, 0.0)
        target = Vec2(52.5, 0.0)
        keeper = ball + Vec2.from_angle(angle, distance)
        return make_scene(ball=ball, target=target, keeper=keeper, label=label)

    def test_exact_three_point_solution(self, field):
        scenes = [self._scene_with(2.0, 0.0, Label.NO_GOAL),
                  self._scene_with(3.0, 0.0, Label.GOAL),
                  self._scene_with(2.0, 1.0, Label.GOAL)]
        model = lda_train(scenes, field)
        # Hand-solved: 2 w_d + b = -1, 3 w_d + b = 1, 2 w_d + w_a + b = 1.
        assert math.isclose(model.weight_distance, 2.0, abs_tol=1e-9)
        assert math.isclose(model.weight_angle, 2.0, abs_tol=1e-9)
        assert math.isclose(model.bias, -5.0, abs_tol=1e-9)

    def test_distance_separable_classes(self, field):
        rng = np.random.default_rng(3)
        scenes = []
        for _ in range(40):
            scenes.append(self._scene_with(rng.uniform(10, 14), rng.uniform(0, 0.5),
                                           Label.GOAL))
            scenes.append(self._scene_with(rng.uniform(2, 5), rng.uniform(0, 0.5),
                                           Label.NO_GOAL))
        model = lda_train(scenes, field)
        assert model.weight_distance > 0

    def test_identical_distributions_give_zero_weights(self, field):
        base = [self._scene_with(d, a, Label.GOAL)
                for d, a in ((2.0, 0.1), (4.0, 0.6), (7.0, 0.3), (5.0, 0.9))]
        mirrored = [replace(s, label=Label.NO_GOAL) for s in base]
        model = lda_train(base + mirrored, field)
        assert abs(model.weight_distance) < 1e-9
        assert abs(model.weight_angle) < 1e-9
        assert abs(model.bias) < 1e-9

    def test_single_class_rejected(self, field):
        with pytest.raises(ValueError):
            lda_train([self._scene_with(3.0, 0.2, Label.GOAL)], field)

    def test_fit_equals_the_angle_at_reference(self, field):
        """The fit's inputs are the keeper's distance to the ball and the
        oracle angle_at of the scene's own target, bit for bit, also where a
        target or keeper is on the ball or 1e-13 from it, where the target
        offset overflows and where only its length does."""
        ball, keeper, far = Vec2(30.0, 0.0), Vec2(30.0, 3.0), Vec2(-1e308, 0.0)
        edges = [make_scene(ball=ball, target=ball),
                 make_scene(ball=ball, target=Vec2(30.0 + 1e-13, 0.0), keeper=keeper),
                 make_scene(ball=ball, keeper=ball),
                 make_scene(ball=ball, keeper=Vec2(30.0, 1e-13)),
                 make_scene(ball=far, target=Vec2(1e308, 0.0), keeper=Vec2(-1e308, 3.0)),
                 make_scene(ball=ball, target=Vec2(1.7e308, 1.7e308), keeper=keeper)]
        scenes = generate_synthetic_scenes(200, CFG.gen, CFG.dynamics, field, seed=6).scenes()
        scenes += [replace(scene, label=label) for scene in edges
                   for label in (Label.GOAL, Label.NO_GOAL)]
        x = np.array([[s.keeper.distance_to(s.ball), angle_at(s.ball, s.keeper, s.target), 1.0]
                      for s in scenes])
        y = np.array([1.0 if s.label is Label.GOAL else -1.0 for s in scenes])
        w = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.isfinite(x).all() and x[-1, 1] == math.pi / 4
        assert lda_train(scenes, field) == LdaModel(*w.tolist())

    def test_degenerate_features_rejected(self, field):
        scenes = [self._scene_with(3.0, 0.0, Label.GOAL),
                  self._scene_with(3.0, 0.0, Label.NO_GOAL)] * 3
        with pytest.raises(ValueError):
            lda_train(scenes, field)


class TestLdaPolicy:
    def test_never_kicks_with_negative_discriminant(self, field):
        model = LdaModel(weight_distance=0.0, weight_angle=0.0, bias=-1.0)
        scene = make_scene()
        decision = lda_policy_decide(scene, model, field, CFG.aim, POLICY)
        assert decision.action is Action.NO_KICK

    def test_zero_discriminant_does_not_clear_the_bar(self, field):
        model = LdaModel(weight_distance=0.0, weight_angle=0.0, bias=0.0)
        decision = lda_policy_decide(make_scene(), model, field, CFG.aim, POLICY)
        assert decision == KickDecision(Action.NO_KICK)

    def test_tie_breaking_prefers_goal_center(self, field):
        # Constant positive discriminant ties every surviving target.
        model = LdaModel(weight_distance=0.0, weight_angle=0.0, bias=1.0)
        scene = make_scene(ball=Vec2(45.0, 0.0))
        decision = lda_policy_decide(scene, model, field, CFG.aim, POLICY)
        assert decision.action is Action.KICK
        assert decision.target.y == 0.0
        assert decision.neural_score is None

    def test_kicks_at_largest_discriminant(self, field):
        model = LdaModel(weight_distance=0.0, weight_angle=1.0, bias=0.0)
        scene = make_scene(ball=Vec2(45.0, 0.0), keeper=Vec2(50.0, 3.0))
        decision = lda_policy_decide(scene, model, field, CFG.aim, POLICY)
        assert decision.action is Action.KICK
        survivors = stage_one_survivors(scene.ball, field, CFG.aim, POLICY)
        best = max(survivors,
                   key=lambda tp: angle_at(scene.ball, scene.keeper, tp[0]))
        assert decision.target == best[0]

    def test_mirror_tie_goes_to_smaller_lateral(self, field):
        # Two targets at exactly +/-y tie on value and on distance to center.
        aim = replace(CFG.aim, target_count=2)
        model = LdaModel(weight_distance=0.0, weight_angle=0.0, bias=1.0)
        scene = make_scene(ball=Vec2(45.0, 0.0))
        policy = PolicyConfig(p_goal_threshold=0.05)
        ys = [t.y for t, _, _ in stage_one_survivors(scene.ball, field, aim, policy)]
        assert ys == [-ys[1], ys[1]]
        decision = lda_policy_decide(scene, model, field, aim, policy)
        assert decision.target.y == min(ys)

    def test_nan_discriminant_never_clears_the_bar(self, field):
        # An infinite angle weight gives NaN (inf * 0.0) for the first
        # survivor, whose target the keeper stands in line with, and +inf
        # for every other survivor: the kick goes to the one of those
        # nearest the goal center. A NaN distance weight makes every value NaN.
        ball = Vec2(40.0, 0.0)
        first = stage_one_survivors(ball, field, CFG.aim, POLICY)[0][0]
        keeper = Vec2(ball.x + (first.x - ball.x) / 2, ball.y + (first.y - ball.y) / 2)
        scene = make_scene(ball=ball, attacker=Vec2(39.3, 0.0), keeper=keeper)
        assert angle_at(ball, keeper, first) == 0.0
        survivors = stage_one_survivors(ball, field, CFG.aim, POLICY)[1:]
        target, pg, _ = min(survivors, key=lambda s: (abs(s[0].y), s[0].y))
        decision = lda_policy_decide(scene, LdaModel(0.0, math.inf, 0.0), field, CFG.aim,
                                     POLICY)
        assert decision == KickDecision(Action.KICK, target=target, p_goal=pg)
        assert decision.target != first
        assert lda_policy_decide(scene, LdaModel(math.nan, 1.0, 0.0), field, CFG.aim,
                                 POLICY) == KickDecision(Action.NO_KICK)

    def test_stage_one_shared_with_mlp_policy(self, field, trained_model):
        scenes = generate_synthetic_scenes(50, CFG.gen, CFG.dynamics, field, seed=12).scenes()
        lda = LdaModel(0.1, 1.0, -0.5)
        for scene in scenes:
            survivors = {(t.x, t.y) for t, _, _ in
                         stage_one_survivors(scene.ball, field, CFG.aim, POLICY)}
            mlp_decision = mlp_policy_decide(scene, trained_model, field, CFG.aim,
                                             POLICY)
            lda_decision = lda_policy_decide(scene, lda, field, CFG.aim, POLICY)
            for decision in (mlp_decision, lda_decision):
                if decision.action is Action.KICK:
                    assert (decision.target.x, decision.target.y) in survivors

    def test_matches_brute_force_on_random_scenes(self, field, lda_model):
        scenes = generate_synthetic_scenes(300, CFG.gen, CFG.dynamics, field, seed=14).scenes()
        actions = set()
        for scene in scenes:
            decision = lda_policy_decide(scene, lda_model, field, CFG.aim, POLICY)
            expected = brute_force_lda_decision(scene, lda_model, field, CFG.aim,
                                                POLICY)
            actions.add(decision.action)
            assert decision.action is expected.action
            assert decision.target == expected.target
            assert decision.p_goal == expected.p_goal
            assert decision.neural_score is None
        assert actions == {Action.KICK, Action.NO_KICK}  # both branches exercised

    def test_decisions_mirror(self, field, lda_model):
        # MLP decisions are not mirror-symmetric and are not tested: the
        # network sees the signed lateral features.
        scenes = generate_synthetic_scenes(300, replace(CFG.gen, x_min=5.0), CFG.dynamics,
                                           field, seed=16).scenes()
        kicks = 0
        for scene in scenes:
            decision = lda_policy_decide(scene, lda_model, field, CFG.aim, POLICY)
            mirrored = lda_policy_decide(mirror_scene(scene), lda_model, field, CFG.aim,
                                         POLICY)
            assert mirrored.action is decision.action
            assert mirrored.out_of_range == decision.out_of_range
            if decision.action is Action.KICK:
                kicks += 1
                # The aim grid -half + i * step is symmetric only up to rounding.
                assert mirrored.target.x == decision.target.x
                assert math.isclose(mirrored.target.y, -decision.target.y, abs_tol=1e-9)
                assert math.isclose(mirrored.p_goal, decision.p_goal, abs_tol=1e-9)
        assert kicks > 0


class TestThresholdMonotonicity:
    @pytest.mark.parametrize("kind", ["mlp", "lda"])
    def test_raising_p_goal_threshold_never_creates_kicks(self, field, kind,
                                                          trained_model, lda_model):
        decide, model = {"mlp": (mlp_policy_decide, trained_model),
                         "lda": (lda_policy_decide, lda_model)}[kind]
        scenes = generate_synthetic_scenes(200, CFG.gen, CFG.dynamics, field, seed=15).scenes()
        strict = PolicyConfig(p_goal_threshold=0.9)
        dropped = 0
        for scene in scenes:
            loose_action = decide(scene, model, field, CFG.aim, POLICY).action
            strict_action = decide(scene, model, field, CFG.aim, strict).action
            if loose_action is Action.NO_KICK:
                assert strict_action is Action.NO_KICK
            dropped += strict_action is not loose_action
        assert dropped > 0  # the stricter filter bit on some scenes


class TestNaiveCenterPolicy:
    def test_kicks_center_in_range(self, field):
        decision = naive_center_policy(make_scene(), field, CFG.aim, POLICY)
        assert decision.action is Action.KICK
        assert decision.target == field.goal_center

    def test_no_kick_out_of_horizon(self, field):
        scene = make_scene(ball=Vec2(0.0, 0.0), attacker=Vec2(-0.7, 0.0))
        decision = naive_center_policy(scene, field, CFG.aim, POLICY)
        assert decision.action is Action.NO_KICK
        assert decision.out_of_range

    def test_ignores_keeper(self, field):
        near = naive_center_policy(make_scene(keeper=Vec2(50.0, 0.0)), field,
                                   CFG.aim, POLICY)
        far = naive_center_policy(make_scene(keeper=Vec2(46.0, -6.0)), field,
                                  CFG.aim, POLICY)
        assert near == far


def test_decisions_build_no_vec2(trained_model, lda_model, monkeypatch):
    field = FieldConfig()
    gen = replace(CFG.gen, x_min=5.0)  # from near the goal to beyond the horizon
    scenes = generate_synthetic_scenes(240, gen, CFG.dynamics, field, seed=13).scenes()
    policies = (MlpPolicy(trained_model, field, CFG.aim, POLICY),
                LdaPolicy(lda_model, field, CFG.aim, POLICY))
    for policy in policies:  # warm-up: aim points and posts are built once
        policy.decide(scenes[0])
    built = []
    post_init = Vec2.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Vec2, "__post_init__", counted)
    for policy in policies:
        decisions = [policy.decide(scene) for scene in scenes]
        assert built == [], policy.name
        assert {d.action for d in decisions} == {Action.KICK, Action.NO_KICK}
        assert any(d.out_of_range for d in decisions)


def _policies(field, mlp_model, lda_model):
    return {"mlp": MlpPolicy(mlp_model, field, CFG.aim, POLICY),
            "lda": LdaPolicy(lda_model, field, CFG.aim, POLICY),
            "center": NaiveCenterPolicy(field, CFG.aim, POLICY)}


def _assert_decide_all_is_decide_of_each_view(policy, rows):
    """decide_all of the rows, from a cold stage-one memo, is decide of
    each row's KickScene view, bit for bit, and takes a tuple as well."""
    goalshot.policies._stage_one_memo.clear()
    decisions = policy.decide_all(rows)
    assert repr(decisions) == repr([policy.decide(row_scene(row)) for row in rows])
    assert repr(decisions) == repr(policy.decide_all(tuple(rows)))


class TestDecideAll:
    """decide_all of a batch of rows is decide of each row's KickScene
    view, bit for bit. The scenes run from near the goal to beyond the
    sigma horizon, so a batch holds out-of-range scenes, in-range scenes
    without a stage-one survivor and scenes with survivors."""

    @pytest.fixture(scope="class")
    def batches(self, trained_model, lda_model):
        field = FieldConfig()
        gen = replace(CFG.gen, x_min=5.0)
        scenes = generate_synthetic_scenes(240, gen, CFG.dynamics, field, seed=13).scenes()
        rows = [scene_row(s) for s in scenes]
        out = [r for r, s in zip(rows, scenes) if not within_horizon(s.ball, field, CFG.aim)]
        ranged = [(r, s) for r, s in zip(rows, scenes)
                  if within_horizon(s.ball, field, CFG.aim)]
        none = [r for r, s in ranged if not stage_one_survivors(s.ball, field, CFG.aim, POLICY)]
        some = [r for r, s in ranged if stage_one_survivors(s.ball, field, CFG.aim, POLICY)]
        assert min(len(out), len(none), len(some)) >= 3
        return _policies(field, trained_model, lda_model), {
            "all": rows,
            "one": some[:1],
            "one_out_of_range": out[:1],
            "no_survivor": [out[0], none[0], none[1], out[1], none[2]],
            "some_survivors": [none[0], some[0], out[0], some[1], some[2], none[1], out[1]],
        }

    @pytest.mark.parametrize("batch", ["all", "one", "one_out_of_range", "no_survivor",
                                       "some_survivors"])
    @pytest.mark.parametrize("name", ["mlp", "lda", "center"])
    def test_equals_decide_of_each_scene(self, batches, name, batch):
        _assert_decide_all_is_decide_of_each_view(batches[0][name], batches[1][batch])

    def test_no_survivor_batch_scores_nothing(self, batches, monkeypatch):
        policies, scenes = batches
        calls = []
        monkeypatch.setattr(goalshot.mlp, "score_batch",
                            lambda *args: calls.append(args) or pytest.fail("scored"))
        decisions = policies["mlp"].decide_all(scenes["no_survivor"])
        assert calls == []
        assert [d.out_of_range for d in decisions] == [True, False, False, True, False]
        assert {d.action for d in decisions} == {Action.NO_KICK}

    def test_empty_batch(self, batches):
        for policy in batches[0].values():
            assert policy.decide_all([]) == []


# A model whose score is the same above-bar value for every row, and an LDA
# without an angle term: every survivor of a scene ties, so the tie-break
# picks the target.
_FLAT_MLP = MlpParams((len(FEATURE_NAMES), 5, 2), [np.zeros((len(FEATURE_NAMES), 5)),
                                                   np.zeros((5, 2))],
                      [np.zeros(5), np.array([0.5, -0.5])], np.zeros(len(FEATURE_NAMES)),
                      np.ones(len(FEATURE_NAMES)))
_FLAT_LDA = LdaModel(weight_distance=0.01, weight_angle=0.0, bias=0.1)


@settings(max_examples=40, deadline=None)
@given(x_min=st.floats(min_value=5.0, max_value=45.0),
       width=st.floats(min_value=0.5, max_value=30.0),
       max_defenders=st.integers(min_value=0, max_value=10),
       seed=st.integers(min_value=0, max_value=2**32 - 1), flat=st.booleans())
def test_decide_all_of_drawn_rows_is_decide_of_each_view(trained_model, lda_model, x_min,
                                                         width, max_defenders, seed, flat):
    """Over generator configs from 5 m out, beyond the sigma horizon, to
    near the goal, with 0-10 defenders, draw_scenes' rows hold out-of-range
    scenes, scenes without a stage-one survivor and, under the flat models,
    ties between survivors."""
    field = FieldConfig()
    gen = replace(CFG.gen, x_min=x_min, x_max=min(x_min + width, 52.0),
                  max_defenders=max_defenders)
    rows = draw_scenes(12, gen, CFG.dynamics, field, seed)
    policies = _policies(field, *((_FLAT_MLP, _FLAT_LDA) if flat else
                                  (trained_model, lda_model)))
    for policy in policies.values():
        _assert_decide_all_is_decide_of_each_view(policy, rows)


class TestStageOneMemo:
    """_stage_one keeps the last batch's stage ones; a hit must give the
    bits a fresh computation gives."""

    def _decide(self, policies, scene):
        return [repr(policy.decide(scene)) for policy in policies]

    def _cold(self, policies, scene):
        goalshot.policies._stage_one_memo.clear()
        return self._decide(policies, scene)

    def test_revisited_ball_matches_a_cold_cache(self, trained_model, lda_model):
        field = FieldConfig()
        policies = (MlpPolicy(trained_model, field, CFG.aim, POLICY),
                    LdaPolicy(lda_model, field, CFG.aim, POLICY))
        scenes = generate_synthetic_scenes(40, CFG.gen, CFG.dynamics, field, seed=18).scenes()
        for a, b in zip(scenes, scenes[1:]):
            warm = [self._decide(policies, s) for s in (a, b, a)]
            assert warm == [self._cold(policies, s) for s in (a, b, a)]

    def test_signed_zero_ball_shares_an_entry(self, trained_model, lda_model):
        field = FieldConfig()
        policies = (MlpPolicy(trained_model, field, CFG.aim, POLICY),
                    LdaPolicy(lda_model, field, CFG.aim, POLICY))
        plus, minus = (make_scene(ball=Vec2(44.0, y), attacker=Vec2(43.3, y),
                                  keeper=Vec2(50.0, 2.0)) for y in (0.0, -0.0))
        for first, second in ((plus, minus), (minus, plus)):
            cold = self._cold(policies, second)
            self._cold(policies, first)
            assert self._decide(policies, second) == cold
        assert any(d.startswith("KickDecision(action=<Action.KICK")
                   for d in self._cold(policies, plus))

    def test_new_policy_config_is_not_served_a_stale_entry(self, trained_model):
        field = FieldConfig()
        scene = make_scene(ball=Vec2(44.0, 3.0), attacker=Vec2(43.3, 3.0))
        strict = PolicyConfig(p_goal_threshold=0.95)
        loose = MlpPolicy(trained_model, field, CFG.aim, POLICY)
        tight = MlpPolicy(trained_model, field, CFG.aim, strict)
        goalshot.policies._stage_one_memo.clear()
        loose.decide(scene)
        assert goalshot.policies._stage_one((scene.ball,), field, CFG.aim, strict) == \
            (tuple(stage_one_survivors(scene.ball, field, CFG.aim, strict)),)
        assert len(stage_one_survivors(scene.ball, field, CFG.aim, strict)) < \
            len(stage_one_survivors(scene.ball, field, CFG.aim, POLICY))
        loose.decide(scene)
        assert self._decide([tight], scene) == self._cold([tight], scene)


def test_kick_without_target_rejected():
    with pytest.raises(ValueError, match="KICK decision needs a target"):
        KickDecision(Action.KICK)
    assert KickDecision(Action.NO_KICK).target is None


class TestPolicyObjects:
    def test_wrappers_delegate(self, field, trained_model):
        scene = make_scene()
        mlp_policy = MlpPolicy(trained_model, field, CFG.aim, POLICY)
        assert mlp_policy.decide(scene) == mlp_policy_decide(
            scene, trained_model, field, CFG.aim, POLICY)
        lda = LdaModel(0.0, 1.0, 0.1)
        lda_policy = LdaPolicy(lda, field, CFG.aim, POLICY)
        assert lda_policy.decide(scene) == lda_policy_decide(
            scene, lda, field, CFG.aim, POLICY)
        center = NaiveCenterPolicy(field, CFG.aim, POLICY)
        assert center.decide(scene) == naive_center_policy(scene, field, CFG.aim,
                                                           POLICY)
        assert (mlp_policy.name, lda_policy.name, center.name) == \
            ("mlp", "lda", "center")

    def test_names_and_bars_come_from_the_class(self, field, trained_model):
        """No constructor takes a name. The two thresholded policies run one
        decide_all, with the MLP's bar read from its policy config and the
        LDA's fixed at 0."""
        lda = LdaModel(0.0, 1.0, 0.1)
        for cls, models in ((MlpPolicy, [trained_model]), (LdaPolicy, [lda]),
                            (NaiveCenterPolicy, [])):
            with pytest.raises(TypeError):
                cls(*models, field, CFG.aim, POLICY, name="other")
        assert MlpPolicy.decide_all is LdaPolicy.decide_all
        config = PolicyConfig(score_threshold=0.3)
        assert MlpPolicy(trained_model, field, CFG.aim, config).bar == 0.3
        assert LdaPolicy(lda, field, CFG.aim, config).bar == 0.0
        assert (MlpPolicy.keep_score, LdaPolicy.keep_score) == (True, False)

    def test_decide_resolves_module_functions_at_call_time(self, field, trained_model,
                                                           monkeypatch):
        # Tracing wraps these module attributes after the policies are built.
        mlp_policy = MlpPolicy(trained_model, field, CFG.aim, POLICY)
        lda = LdaModel(0.0, 1.0, 0.1)
        lda_policy = LdaPolicy(lda, field, CFG.aim, POLICY)
        calls = []

        def fake(name):
            def decide(scene, model, field_, aim_config, policy_config):
                calls.append((name, model))
                return KickDecision(Action.NO_KICK, out_of_range=True)
            return decide

        monkeypatch.setattr(goalshot.policies, "mlp_policy_decide", fake("mlp"))
        monkeypatch.setattr(goalshot.policies, "lda_policy_decide", fake("lda"))
        scene = make_scene()
        assert mlp_policy.decide(scene).out_of_range
        assert lda_policy.decide(scene).out_of_range
        assert calls == [("mlp", trained_model), ("lda", lda)]
