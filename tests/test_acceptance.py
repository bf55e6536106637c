"""Acceptance checklist for the whole package.

Each test covers one gate: exact math identities, oracle agreements
(quadrature, Monte Carlo, finite differences, rank statistics, brute
force), training-protocol behavior, and the headline paired policy
comparison. Every test prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import from_scenes, make_scene, random_scene
from goalshot.aim import AimConfig, ShotQuery, discretize_targets, p_goal, sigma
from goalshot.config import RunConfig
from goalshot.dynamics import BallState, DynamicsConfig, step, travel_range
from goalshot.experiment import run_experiment
from goalshot.geometry import Vec2
from goalshot.metrics import auc_rank, feature_relevance, ks2_curve, roc_curve
from goalshot.mlp import (EarlyStopping, MlpParams, StopReason, TrainConfig,
                          forward, gradient, load_model, save_model, score,
                          score_batch, train)
from goalshot.policies import (Action, LdaPolicy, MlpPolicy, PolicyConfig,
                               lda_train, mlp_policy_decide)
from goalshot.scenes import (Label, balance_by_replication, extract_features,
                             feature_matrix, generate_synthetic_scenes,
                             load_scenes, save_scenes, split_dataset)
from oracles import Ray, example_mse, signed_offset

CFG = RunConfig()
SEED = 0
TRAIN_CONFIG = TrainConfig(max_epochs=150, patience=12)

_timings: dict[str, float] = {}


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def dataset():
    start = time.perf_counter()
    scenes = generate_synthetic_scenes(5000, CFG.gen, CFG.dynamics, CFG.field, SEED)
    _timings["dataset"] = time.perf_counter() - start
    return scenes


@pytest.fixture(scope="module")
def trained(dataset):
    start = time.perf_counter()
    split = split_dataset(dataset, SEED)
    balanced = balance_by_replication(split.train, SEED)
    params, report = train(
        feature_matrix(balanced, CFG.field), balanced.goal,
        feature_matrix(split.validation, CFG.field), split.validation.goal,
        TRAIN_CONFIG, seed=SEED)
    _timings["train"] = time.perf_counter() - start
    return params, split, report


def test_01_output_transform():
    with criterion("1. two-node output transform: exact values and antisymmetry"):
        start = time.perf_counter()
        assert score(1.0, -1.0) == 1.0
        assert score(-1.0, 1.0) == 0.0
        rng = np.random.default_rng(SEED)
        for x in rng.uniform(-1.0, 1.0, 10):
            assert score(x, x) == 0.5
        for a, b in rng.uniform(-1.0, 1.0, (1000, 2)):
            assert math.isclose(score(a, b) + score(b, a), 1.0, abs_tol=1e-15)
        assert time.perf_counter() - start < 1.0


def test_02_aim_noise_growth():
    with criterion("2. aim-noise growth curve: values, monotonicity, domain"):
        start = time.perf_counter()
        aim = AimConfig()
        assert sigma(0.0, aim) == 0.0
        # Direct evaluation of the growth law at half horizon:
        # -1.88 * ln(1 - 22.5/45) = 1.88 * ln 2 = 1.3031167 (oracle-computed).
        assert math.isclose(sigma(22.5, aim), 1.3031167, abs_tol=1e-5)
        assert math.isclose(sigma(22.5, aim), 1.88 * math.log(2.0), abs_tol=1e-12)
        grid = np.linspace(0.0, 44.99, 1000)
        values = [sigma(d, aim) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        for bad in (45.0, 47.5, -1.0):
            with pytest.raises(ValueError):
                sigma(bad, aim)
        assert time.perf_counter() - start < 1.0


def _random_query(rng):
    ball = Vec2(rng.uniform(20.0, 50.0), rng.uniform(-15.0, 15.0))
    target = Vec2(CFG.field.goal_line_x, rng.uniform(-7.01, 7.01))
    return ShotQuery(ball, target)


def test_03_tail_probabilities():
    with criterion("3. miss tails: partition of unity, quadrature oracle, "
                   "post symmetry"):
        rng = np.random.default_rng(SEED)
        for _ in range(10000):
            result = p_goal(_random_query(rng), CFG.field, CFG.aim)
            assert abs(result.p_left + result.p_right + result.p_goal - 1.0) <= 1e-12
            for p in (result.p_left, result.p_right, result.p_goal):
                assert 0.0 <= p <= 1.0

        def tail(bound, sd):
            pdf = lambda y: math.exp(-y * y / (2 * sd * sd)) / (sd * math.sqrt(2 * math.pi))
            value, err = quad(pdf, bound, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-10
            return value

        for _ in range(200):
            query = _random_query(rng)
            line = Ray.toward(query.ball, query.target)
            sd_l = sigma(query.ball.distance_to(CFG.field.post_left), CFG.aim)
            sd_r = sigma(query.ball.distance_to(CFG.field.post_right), CFG.aim)
            result = p_goal(query, CFG.field, CFG.aim)
            assert math.isclose(result.p_left,
                                tail(signed_offset(line, CFG.field.post_left), sd_l),
                                abs_tol=1e-9)
            assert math.isclose(result.p_right,
                                tail(-signed_offset(line, CFG.field.post_right), sd_r),
                                abs_tol=1e-9)

        for ball_y in (-6.0, 0.0, 9.0):
            ball = Vec2(25.0, ball_y)
            left = p_goal(ShotQuery(ball, CFG.field.post_left), CFG.field, CFG.aim)
            right = p_goal(ShotQuery(ball, CFG.field.post_right), CFG.field, CFG.aim)
            assert math.isclose(left.p_left, 0.5, abs_tol=1e-6)
            assert math.isclose(right.p_right, 0.5, abs_tol=1e-6)


def test_04_analytic_vs_monte_carlo():
    with criterion("4. analytic goal probability vs 100000-draw Monte Carlo "
                   "on a 5x5x3 grid"):
        start = time.perf_counter()
        rng = np.random.default_rng(SEED)
        xs = np.linspace(CFG.field.goal_line_x - 26.0, CFG.field.goal_line_x - 8.0, 5)
        ys = np.linspace(-10.0, 10.0, 5)
        target_ys = (-4.5, 0.0, 4.5)
        worst = 0.0
        for x in xs:
            for y in ys:
                for ty in target_ys:
                    query = ShotQuery(Vec2(float(x), float(y)),
                                      Vec2(CFG.field.goal_line_x, ty))
                    line = Ray.toward(query.ball, query.target)
                    s_l = signed_offset(line, CFG.field.post_left)
                    s_r = signed_offset(line, CFG.field.post_right)
                    sd_l = sigma(query.ball.distance_to(CFG.field.post_left), CFG.aim)
                    sd_r = sigma(query.ball.distance_to(CFG.field.post_right), CFG.aim)
                    z = rng.standard_normal(100_000)
                    frequency = np.mean((z * sd_l <= s_l) & (z * sd_r >= s_r))
                    analytic = p_goal(query, CFG.field, CFG.aim).p_goal
                    worst = max(worst, abs(analytic - frequency))
        assert worst < 0.02
        assert time.perf_counter() - start < 30.0


def test_05_ball_dynamics():
    with criterion("5. ball dynamics: geometric closed form, noise bound over "
                   "1e6 steps, bit determinism"):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            speed = rng.uniform(0.1, 2.9)
            decay = rng.uniform(0.5, 0.97)
            config = DynamicsConfig(decay=decay, noise_coefficient=0.0)
            state = BallState(Vec2(0.0, 0.0), Vec2(speed, 0.0), Vec2(0.0, 0.0))
            while state.velocity.norm() >= 1e-12:
                state = step(state, config, None)
            assert math.isclose(state.position.x, travel_range(speed, decay),
                                abs_tol=1e-9)

        config = DynamicsConfig()
        checked = 0
        while checked < 1_000_000:
            speed = rng.uniform(0.3, 2.5)
            state = BallState(Vec2(0.0, 0.0),
                              Vec2.from_angle(rng.uniform(-math.pi, math.pi), speed),
                              Vec2(0.0, 0.0))
            for _ in range(400):
                base_x = state.velocity.x + state.acceleration.x
                base_y = state.velocity.y + state.acceleration.y
                r_max = config.noise_coefficient * math.hypot(base_x, base_y)
                prev = state.position
                state = step(state, config, rng)
                dx = state.position.x - prev.x
                dy = state.position.y - prev.y
                assert abs(dx - base_x) <= r_max + 1e-12
                assert abs(dy - base_y) <= r_max + 1e-12
                checked += 1
                if state.velocity.norm() < 1e-3:
                    break

        trajectories = []
        for _ in range(2):
            stream = np.random.default_rng(1234)
            state = BallState(Vec2(0.0, 0.0), Vec2(2.0, 0.3), Vec2(0.0, 0.0))
            points = []
            for _ in range(50):
                state = step(state, config, stream)
                points.append((state.position.x, state.position.y,
                               state.velocity.x, state.velocity.y))
            trajectories.append(points)
        assert trajectories[0] == trajectories[1]


def test_06_gradient_vs_finite_differences():
    with criterion("6. backprop gradient vs central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(SEED)
        step_size = 1e-5
        worst = 0.0
        triples = 0
        for sizes in ((3, 4, 2), (8, 5, 2), (22, 5, 2)):
            for _ in range(34):
                params = MlpParams(
                    layer_sizes=sizes,
                    weights=[rng.uniform(-0.8, 0.8, (sizes[i], sizes[i + 1]))
                             for i in range(len(sizes) - 1)],
                    biases=[rng.uniform(-0.8, 0.8, sizes[i + 1])
                            for i in range(len(sizes) - 1)],
                    norm_mean=np.zeros(sizes[0]),
                    norm_std=np.ones(sizes[0]),
                )
                x = rng.uniform(-2.0, 2.0, sizes[0])
                target = rng.uniform(-1.0, 1.0, 2)
                grads = gradient(params, x, target)
                triples += 1
                for arrays, grad_arrays in ((params.weights, grads.weights),
                                            (params.biases, grads.biases)):
                    for arr, grad in zip(arrays, grad_arrays):
                        flat, grad_flat = arr.ravel(), grad.ravel()
                        for idx in range(flat.size):
                            original = flat[idx]
                            flat[idx] = original + step_size
                            up = example_mse(params, x, target)
                            flat[idx] = original - step_size
                            down = example_mse(params, x, target)
                            flat[idx] = original
                            numeric = (up - down) / (2 * step_size)
                            # Denominator floored at the finite-difference
                            # resolution: components below it must still agree
                            # to 1e-9 absolute.
                            denom = max(abs(numeric), abs(grad_flat[idx]), 1e-5)
                            worst = max(worst, abs(numeric - grad_flat[idx]) / denom)
        assert triples >= 100
        assert worst < 1e-4
        assert time.perf_counter() - start < 10.0


def test_07_training_protocol():
    with criterion("7. training protocol: five-failure early stop, max-epoch "
                   "path, determinism"):
        stopper = EarlyStopping(patience=5)
        for mse in (0.50, 0.40, 0.41, 0.42, 0.43, 0.44):
            stopper.update(mse)
            assert not stopper.should_stop
        stopper.update(0.45)
        assert stopper.should_stop
        assert stopper.epoch == 7
        assert stopper.best_epoch == 2

        relentless = EarlyStopping(patience=5)
        for i in range(1000):
            relentless.update(1.0 / (1.0 + i))
            assert not relentless.should_stop

        rng = np.random.default_rng(SEED)
        x = rng.uniform(-1, 1, (60, 4))
        goal = np.array([row.sum() > 0 for row in x])
        vx = rng.uniform(-1, 1, (30, 4))
        vgoal = np.array([row.sum() > 0 for row in vx])
        config = TrainConfig(max_epochs=4, patience=10 ** 9)
        _, report = train(x, goal, vx, vgoal, config, seed=SEED)
        assert report.stop_reason is StopReason.MAX_EPOCHS
        assert report.epochs_run == 4
        assert len(report.train_mse_history) == 4
        assert len(report.validation_mse_history) == 4

        run_a = train(x, goal, vx, vgoal, TrainConfig(max_epochs=10), seed=3)
        run_b = train(x, goal, vx, vgoal, TrainConfig(max_epochs=10), seed=3)
        assert run_a[1].validation_mse_history == run_b[1].validation_mse_history
        for wa, wb in zip(run_a[0].weights, run_b[0].weights):
            np.testing.assert_array_equal(wa, wb)


def test_08_learning_capability(dataset, trained):
    with criterion("8. learned scorer reaches AUC >= 0.85 and KS2 >= 0.50 "
                   "on held-out scenes"):
        params, split, report = trained
        scores = score_batch(params, feature_matrix(split.test, CFG.field))
        auc = auc_rank(scores, split.test.goal)
        ks2 = ks2_curve(scores, split.test.goal).ks2
        print(f"      held-out AUC {auc:.3f}, KS2 {ks2:.3f}, "
              f"{report.epochs_run} epochs", end=" ")
        assert auc >= 0.85
        assert ks2 >= 0.50
        assert _timings["dataset"] + _timings["train"] < 300.0


def test_09_metric_oracles():
    with criterion("9. trapezoidal AUC = rank AUC and KS2 = brute-force CDF gap "
                   "on 100 tied score sets"):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            n = int(rng.integers(10, 80))
            scores = np.where(rng.random(n) < 0.5,
                              rng.integers(0, 8, n) / 7.0,
                              rng.random(n))
            labels = [Label.GOAL if rng.random() < 0.5 else Label.NO_GOAL
                      for _ in range(n)]
            if not any(l is Label.GOAL for l in labels):
                labels[0] = Label.GOAL
            if not any(l is Label.NO_GOAL for l in labels):
                labels[-1] = Label.NO_GOAL
            goal = np.array([l is Label.GOAL for l in labels])
            assert math.isclose(roc_curve(scores, goal).auc, auc_rank(scores, goal),
                                abs_tol=1e-9)
            pos = sorted(scores[goal].tolist())
            neg = sorted(scores[~goal].tolist())
            brute = max(
                abs(sum(1 for s in pos if s <= t) / len(pos)
                    - sum(1 for s in neg if s <= t) / len(neg))
                for t in set(scores.tolist()))
            assert math.isclose(ks2_curve(scores, goal).ks2, brute, abs_tol=1e-12)

        two_goals = np.array([True, True, False, False])
        separated = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_curve(separated, two_goals).auc == 1.0
        assert ks2_curve(separated, two_goals).ks2 == 1.0
        identical = np.array([0.3, 0.7, 0.3, 0.7])
        assert ks2_curve(identical, two_goals).ks2 == 0.0


def test_10_feature_relevance_pattern():
    with criterion("10. relevance screening: noise variable ~0.5, keeper angle "
                   ">= 0.70 folded AUC"):
        scenes = generate_synthetic_scenes(4000, CFG.gen, CFG.dynamics,
                                           CFG.field, SEED + 1)
        goals = np.flatnonzero(scenes.goal)[:1000]
        no_goals = np.flatnonzero(~scenes.goal)[:1000]
        assert len(goals) == 1000 and len(no_goals) == 1000
        table = scenes.take(np.concatenate([goals, no_goals]))

        rng = np.random.default_rng(SEED)
        noise_auc = auc_rank(rng.random(len(table)), table.goal)
        folded_noise = max(noise_auc, 1.0 - noise_auc)
        relevance = feature_relevance(feature_matrix(table, CFG.field), table.goal)
        print(f"      noise {folded_noise:.3f}, keeper angle "
              f"{relevance['angle_ball_keeper_destiny']:.3f}", end=" ")
        assert 0.50 <= folded_noise <= 0.55
        assert relevance["angle_ball_keeper_destiny"] >= 0.70


def test_11_decision_engine(trained):
    with criterion("11. decision engine matches brute-force target evaluation "
                   "on 1000 scenes"):
        params, _, _ = trained
        policy_config = PolicyConfig()
        scenes = generate_synthetic_scenes(1000, CFG.gen, CFG.dynamics,
                                           CFG.field, SEED + 2).scenes()
        kicks = 0
        for scene in scenes:
            decision = mlp_policy_decide(scene, params, CFG.field, CFG.aim,
                                         policy_config)
            candidates = []
            for target in discretize_targets(CFG.field, CFG.aim):
                pg = p_goal(ShotQuery(scene.ball, target), CFG.field, CFG.aim).p_goal
                if pg < policy_config.p_goal_threshold:
                    continue
                features = extract_features(replace(scene, target=target), CFG.field)
                s = score(*forward(params, features))
                if s > policy_config.score_threshold:
                    candidates.append((target, s, pg))
            if not candidates:
                assert decision.action is Action.NO_KICK
                continue
            kicks += 1
            expected = candidates[0]
            for cand in candidates[1:]:
                key = (cand[1], -abs(cand[0].y), -cand[0].y)
                best = (expected[1], -abs(expected[0].y), -expected[0].y)
                if key > best:
                    expected = cand
            assert decision.action is Action.KICK
            assert decision.target == expected[0]
            assert decision.neural_score == expected[1]
            assert decision.p_goal == expected[2]
            assert decision.p_goal >= policy_config.p_goal_threshold
            assert decision.neural_score > policy_config.score_threshold
        assert kicks > 100

        # All stage-one failures force NO_KICK.
        hopeless = make_scene(ball=Vec2(13.0, 14.0), attacker=Vec2(12.5, 14.0))
        decision = mlp_policy_decide(hopeless, params, CFG.field, CFG.aim,
                                     policy_config)
        assert decision.action is Action.NO_KICK

        # Raising the score threshold never converts NO_KICK into KICK.
        strict = PolicyConfig(score_threshold=0.8)
        for scene in scenes[:300]:
            loose = mlp_policy_decide(scene, params, CFG.field, CFG.aim,
                                      policy_config).action
            tight = mlp_policy_decide(scene, params, CFG.field, CFG.aim,
                                      strict).action
            if loose is Action.NO_KICK:
                assert tight is Action.NO_KICK


def test_12_policy_comparison(trained):
    with criterion("12. paired 100-game experiment: neural policy beats the "
                   "linear baseline; control all-draws"):
        start = time.perf_counter()
        params, split, _ = trained
        mlp_policy = MlpPolicy(params, CFG.field, CFG.aim, PolicyConfig())
        lda_policy = LdaPolicy(lda_train(split.train.scenes(), CFG.field),
                               CFG.field, CFG.aim, PolicyConfig())
        mlp_stats, lda_stats = run_experiment(
            mlp_policy, lda_policy, 100, 10, CFG.keeper, CFG.gen, CFG.dynamics,
            CFG.field, SEED, CFG.gen.defender_catch_radius)
        print(f"      goals {mlp_stats.goals} vs {lda_stats.goals}, "
              f"effectiveness {mlp_stats.effectiveness:.3f} vs "
              f"{lda_stats.effectiveness:.3f}, wins {mlp_stats.wins} vs "
              f"{lda_stats.wins}", end=" ")
        assert mlp_stats.goals > lda_stats.goals
        assert mlp_stats.effectiveness > lda_stats.effectiveness
        assert mlp_stats.wins > lda_stats.wins

        control_a, control_b = run_experiment(
            mlp_policy, mlp_policy, 100, 10, CFG.keeper, CFG.gen, CFG.dynamics,
            CFG.field, SEED, CFG.gen.defender_catch_radius)
        assert control_a == control_b
        assert control_a.draws == 100
        assert time.perf_counter() - start < 300.0


def test_13_file_round_trips(tmp_path):
    with criterion("13. lossless file round trips with located diagnostics"):
        rng = np.random.default_rng(SEED)
        scenes = [random_scene(rng, CFG.field,
                               label=Label.GOAL if rng.random() < 0.4
                               else Label.NO_GOAL)
                  for _ in range(50)]
        scene_path = tmp_path / "scenes.csv"
        save_scenes(from_scenes(scenes), scene_path)
        assert load_scenes(scene_path, CFG.field) == scenes

        broken = tmp_path / "broken.csv"
        lines = scene_path.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[1] = "not-a-number"
        lines[3] = ",".join(cells)
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4, column 'ball_x'"):
            load_scenes(broken, CFG.field)

        params = MlpParams(
            layer_sizes=(4, 3, 2),
            weights=[rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 2))],
            biases=[rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)],
            norm_mean=rng.uniform(-5, 5, 4),
            norm_std=rng.uniform(0.5, 2.0, 4),
        )
        model_path = tmp_path / "model.json"
        save_model(params, model_path)
        loaded = load_model(model_path)
        x = rng.uniform(-2, 2, 4)
        assert forward(loaded, x) == forward(params, x)

        clipped = tmp_path / "clipped.json"
        clipped.write_text(model_path.read_text(encoding="utf-8")[:60],
                           encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(clipped)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(model_path.read_text(encoding="utf-8")
                            .replace('"version": 1', '"version": 9'),
                            encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_model(tampered)
