import importlib.util
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goalshot.mlp
from conftest import write_model
from goalshot.metrics import auc_rank
from goalshot.mlp import (EarlyStopping, MlpParams, StopReason, TrainConfig, _Backprop,
                          _targets, forward, gradient, load_model, save_model,
                          score, score_batch, train)
from goalshot.scenes import Label
from oracles import example_mse


def test_loads_without_the_package(monkeypatch):
    """mlp imports no other goalshot module: its file runs as a module of
    its own, where a relative import would fail."""
    spec = importlib.util.spec_from_file_location("standalone_mlp", goalshot.mlp.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)


def zero_params(layer_sizes=(3, 4, 2)):
    sizes = tuple(layer_sizes)
    return MlpParams(
        layer_sizes=sizes,
        weights=[np.zeros((sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)],
        biases=[np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)],
        norm_mean=np.zeros(sizes[0]),
        norm_std=np.ones(sizes[0]),
    )


def random_params(rng, layer_sizes=(3, 4, 2), scale=0.8):
    params = zero_params(layer_sizes)
    for w in params.weights:
        w += rng.uniform(-scale, scale, w.shape)
    for b in params.biases:
        b += rng.uniform(-scale, scale, b.shape)
    return params


def oracle_gradient(params, x, target):
    """Textbook backprop of the per-example MSE at a normalized row, apart
    from goalshot.mlp: its own layer pass, np.outer per layer and fresh
    arrays throughout. The flat-buffer kernel must match it bit for bit."""
    activations = [x]
    for w, b in zip(params.weights, params.biases):
        activations.append(np.tanh(np.einsum("...j,jk->...k", activations[-1], w) + b))
    out = activations[-1]
    delta = (2.0 / out.size) * (out - target) * (1.0 - out * out)
    grads_w, grads_b = [], []
    for layer in reversed(range(len(params.weights))):
        grads_w.append(np.outer(activations[layer], delta))
        grads_b.append(delta)
        if layer > 0:
            a = activations[layer]
            delta = np.einsum("k,jk->j", delta, params.weights[layer]) * (1.0 - a * a)
    return grads_w[::-1], grads_b[::-1]


def oracle_step(params, x, target, learning_rate):
    grads_w, grads_b = oracle_gradient(params, x, target)
    for w, gw in zip(params.weights, grads_w):
        w -= learning_rate * gw
    for b, gb in zip(params.biases, grads_b):
        b -= learning_rate * gb


class TestForward:
    def test_zero_network_outputs_zero(self):
        assert forward(zero_params(), np.array([1.0, -2.0, 3.0])) == (0.0, 0.0)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            params = random_params(rng, scale=3.0)
            n1, n2 = forward(params, rng.uniform(-5, 5, 3))
            assert -1.0 < n1 < 1.0 and -1.0 < n2 < 1.0

    def test_hand_computed_tiny_network(self):
        params = MlpParams(
            layer_sizes=(1, 1, 2),
            weights=[np.array([[0.5]]), np.array([[0.3, -0.2]])],
            biases=[np.array([0.1]), np.array([0.05, -0.05])],
            norm_mean=np.zeros(1),
            norm_std=np.ones(1),
        )
        h = math.tanh(0.7 * 0.5 + 0.1)
        expected = (math.tanh(h * 0.3 + 0.05), math.tanh(h * -0.2 - 0.05))
        n1, n2 = forward(params, np.array([0.7]))
        assert math.isclose(n1, expected[0], abs_tol=1e-15)
        assert math.isclose(n2, expected[1], abs_tol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(zero_params(), np.array([1.0, 2.0]))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           n=st.integers(min_value=1, max_value=64),
           sizes=st.sampled_from([(22, 5, 2), (3, 4, 2), (22, 8, 5, 2)]),
           view=st.sampled_from(["copy", "slice", "every_other", "columns", "fortran"]))
    def test_batch_matches_single(self, seed, n, sizes, view):
        """Row i of score_batch is bit-equal to the one-row forward, for any
        batch size and memory layout: eval and decide score a row alike."""
        rng = np.random.default_rng(seed)
        params = random_params(rng, sizes)
        params.norm_mean[:] = rng.uniform(-30.0, 30.0, sizes[0])
        params.norm_std[:] = rng.uniform(0.5, 20.0, sizes[0])
        wide = rng.normal(0.0, 40.0, (n, 3 + sizes[0]))
        x = wide[:, 3:].copy()
        batch = {"copy": x, "slice": x[n // 3:], "every_other": x[::2],
                 "columns": wide[:, 3:], "fortran": np.asfortranarray(x)}[view]
        scores = score_batch(params, batch)
        assert scores.shape == (len(batch),)
        for row, batch_score in zip(batch, scores):
            assert batch_score == score(*forward(params, row))


class TestScore:
    def test_extremes_and_midpoint(self):
        assert score(1.0, -1.0) == 1.0
        assert score(-1.0, 1.0) == 0.0
        assert score(0.37, 0.37) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score(1.2, 0.0)
        with pytest.raises(ValueError):
            score(0.0, -1.0001)

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a, b = rng.uniform(-1, 1, 2)
            assert math.isclose(score(a, b) + score(b, a), 1.0, abs_tol=1e-15)

    def test_score_batch(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        batch = rng.uniform(-2, 2, (6, 3))
        np.testing.assert_array_equal(
            score_batch(params, batch),
            [score(*forward(params, row)) for row in batch])


class TestGradient:
    def test_zero_gradient_at_exact_fit(self):
        params = zero_params()
        grads = gradient(params, np.array([0.5, -0.5, 1.0]), (0.0, 0.0))
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        step_size = 1e-5
        for sizes in ((3, 4, 2), (5, 5, 2), (22, 5, 2)):
            for _ in range(5):
                params = random_params(rng, sizes)
                x = rng.uniform(-2, 2, sizes[0])
                target = rng.uniform(-1, 1, 2)
                grads = gradient(params, x, target)
                for arrays, grad_arrays in ((params.weights, grads.weights),
                                            (params.biases, grads.biases)):
                    for arr, grad in zip(arrays, grad_arrays):
                        flat = arr.ravel()
                        grad_flat = grad.ravel()
                        for idx in rng.choice(flat.size, size=min(10, flat.size),
                                              replace=False):
                            original = flat[idx]
                            flat[idx] = original + step_size
                            up = example_mse(params, x, target)
                            flat[idx] = original - step_size
                            down = example_mse(params, x, target)
                            flat[idx] = original
                            numeric = (up - down) / (2 * step_size)
                            denom = max(abs(numeric), abs(grad_flat[idx]), 1e-5)
                            assert abs(numeric - grad_flat[idx]) / denom < 1e-4

    def test_duplicated_example_doubles_summed_gradient(self):
        rng = np.random.default_rng(13)
        params = random_params(rng)
        x = rng.uniform(-1, 1, 3)
        target = (0.4, -0.2)
        single = gradient(params, x, target)
        doubled = [g + h for g, h in zip(single.weights,
                                         gradient(params, x, target).weights)]
        for twice, one in zip(doubled, single.weights):
            np.testing.assert_allclose(twice, 2.0 * one, atol=1e-15)

    def test_one_step_decreases_example_mse(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(-1, 1, 3)
            target = rng.uniform(-0.9, 0.9, 2)
            before = example_mse(params, x, target)
            if before < 1e-12:
                continue
            grads = gradient(params, x, target)
            lr = 1e-3
            for w, g in zip(params.weights, grads.weights):
                w -= lr * g
            for b, g in zip(params.biases, grads.biases):
                b -= lr * g
            assert example_mse(params, x, target) < before

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           sizes=st.sampled_from([(22, 5, 2), (3, 4, 2), (22, 8, 5, 2), (3, 1, 2), (1, 1, 2)]),
           goals=st.lists(st.booleans(), min_size=1, max_size=12),
           learning_rate=st.sampled_from([1e-3, 0.01, 0.3]))
    def test_kernel_steps_match_the_oracle(self, seed, sizes, goals, learning_rate):
        """K online steps through the flat-buffer kernel, on rows and columns
        of one normalized matrix as train takes them, leave every weight and
        bias bit-equal to the oracle's; gradient() gives the oracle's
        gradient bit for bit before each step."""
        rng = np.random.default_rng(seed)
        params = random_params(rng, sizes)
        params.norm_mean[:] = rng.uniform(-5.0, 5.0, sizes[0])
        params.norm_std[:] = rng.uniform(0.5, 3.0, sizes[0])
        raw = rng.normal(0.0, 4.0, (len(goals), sizes[0]))
        xn = (raw - params.norm_mean) / params.norm_std
        xn1 = np.hstack([xn, np.ones((len(goals), 1))])
        targets = _targets(np.array(goals), len(goals))
        kernel = _Backprop(params)
        for raw_row, row, row1, column, target in zip(raw, list(xn), list(xn1),
                                                      list(xn1[:, :, None]), targets):
            grads = gradient(params, raw_row, target)
            oracle_w, oracle_b = oracle_gradient(params, row, target)
            for got, want in zip(grads.weights + grads.biases, oracle_w + oracle_b):
                np.testing.assert_array_equal(got, want)
            kernel.step(row1, column, target, learning_rate)
            oracle_step(params, row, target, learning_rate)
            for got, want in zip(kernel.params.weights + kernel.params.biases,
                                 params.weights + params.biases):
                np.testing.assert_array_equal(got, want)

    def test_bad_target_rejected(self):
        params = zero_params()
        with pytest.raises(ValueError):
            gradient(params, np.zeros(3), (1.5, 0.0))
        with pytest.raises(ValueError):
            gradient(params, np.zeros(3), (0.0,))


class TestEarlyStopping:
    def test_scripted_sequence_stops_after_five_failures(self):
        stopper = EarlyStopping(patience=5)
        for mse in (0.50, 0.40, 0.41, 0.42, 0.43, 0.44):
            stopper.update(mse)
            assert not stopper.should_stop
        stopper.update(0.45)
        assert stopper.should_stop
        assert stopper.epoch == 7
        assert stopper.best_epoch == 2

    def test_strictly_decreasing_never_stops(self):
        stopper = EarlyStopping(patience=5)
        for i in range(200):
            stopper.update(1.0 / (i + 1))
            assert not stopper.should_stop
        assert stopper.best_epoch == 200

    def test_failures_reset_on_improvement(self):
        stopper = EarlyStopping(patience=3)
        for mse in (0.5, 0.6, 0.6, 0.4, 0.5, 0.5):
            stopper.update(mse)
        assert not stopper.should_stop


def _toy_separable(rng, n):
    """2D points labeled by the sign of x + y with a margin, and their GOAL
    mask."""
    xs, goal = [], []
    while len(xs) < n:
        p = rng.uniform(-2, 2, 2)
        margin = p[0] + p[1]
        if abs(margin) < 0.3:
            continue
        xs.append(p)
        goal.append(margin > 0)
    return np.array(xs), np.array(goal)


class TestTrain:
    def test_deterministic(self):
        rng = np.random.default_rng(19)
        x, goal = _toy_separable(rng, 80)
        vx, vgoal = _toy_separable(rng, 40)
        config = TrainConfig(max_epochs=12)
        params_a, report_a = train(x, goal, vx, vgoal, config, seed=4)
        params_b, report_b = train(x, goal, vx, vgoal, config, seed=4)
        assert report_a.validation_mse_history == report_b.validation_mse_history
        assert report_a.train_mse_history == report_b.train_mse_history
        for wa, wb in zip(params_a.weights, params_b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_max_epochs_path(self):
        rng = np.random.default_rng(23)
        x, goal = _toy_separable(rng, 60)
        vx, vgoal = _toy_separable(rng, 30)
        config = TrainConfig(max_epochs=3, patience=10 ** 9)
        _, report = train(x, goal, vx, vgoal, config, seed=1)
        assert report.stop_reason is StopReason.MAX_EPOCHS
        assert report.epochs_run == 3
        assert len(report.train_mse_history) == 3
        assert len(report.validation_mse_history) == 3
        assert 1 <= report.best_epoch <= 3

    def test_learns_separable_toy_data(self):
        rng = np.random.default_rng(29)
        x, goal = _toy_separable(rng, 400)
        vx, vgoal = _toy_separable(rng, 200)
        tx, tgoal = _toy_separable(rng, 200)
        config = TrainConfig(max_epochs=400, patience=20, learning_rate=0.01)
        params, report = train(x, goal, vx, vgoal, config, seed=2)
        assert params.layer_sizes == (2, 5, 2)
        auc = auc_rank(score_batch(params, tx), tgoal)
        assert auc >= 0.99

    def test_returns_the_best_epoch(self):
        """The returned weights are the best validation epoch's, not the live
        buffer that trained on past it."""
        rng = np.random.default_rng(37)
        x, _ = _toy_separable(rng, 60)
        vx, _ = _toy_separable(rng, 30)
        goal = rng.random(60) < 0.5
        vgoal = rng.random(30) < 0.5
        config = TrainConfig(max_epochs=50, patience=2, learning_rate=0.05)
        params, report = train(x, goal, vx, vgoal, config, seed=3)
        assert report.stop_reason is StopReason.EARLY_STOP
        assert report.best_epoch < report.epochs_run
        out = np.array([forward(params, row) for row in vx])
        val_mse = float(np.mean((out - _targets(vgoal, len(vx))) ** 2))
        assert val_mse == report.validation_mse_history[report.best_epoch - 1]

    def test_empty_sets_rejected(self):
        x = np.zeros((4, 2))
        goal, no_rows = np.array([True, False, True, False]), np.zeros(0, dtype=bool)
        with pytest.raises(ValueError):
            train(np.zeros((0, 2)), no_rows, x, goal, TrainConfig(max_epochs=1))
        with pytest.raises(ValueError):
            train(x, goal, np.zeros((0, 2)), no_rows, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("bad", [
        [Label.GOAL, Label.NO_GOAL, Label.GOAL, Label.NO_GOAL],
        [Label.GOAL, None, Label.GOAL, Label.NO_GOAL],
        np.array([[True], [False], [True], [False]]),
        np.array([True, False, True]),
        np.array([1, 0, 1, 0]),
    ], ids=["labels", "unlabeled", "2d", "short", "ints"])
    def test_labels_must_be_a_goal_mask(self, bad):
        x, goal = np.zeros((4, 2)), np.array([True, False, True, False])
        with pytest.raises(ValueError, match="bool GOAL mask"):
            train(x, bad, x, goal, TrainConfig(max_epochs=1))
        with pytest.raises(ValueError, match="bool GOAL mask"):
            train(x, goal, x, bad, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "init_half_range"])
    def test_non_finite_config_rejected(self, name, value):
        """A NaN learning rate used to train on NaN weights to max_epochs and
        return the initial weights; such a config now fails when built."""
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            TrainConfig(**{name: value})

    def test_target_encoding(self):
        targets = _targets(np.array([True, False]), 2)
        np.testing.assert_array_equal(targets, [[1.0, -1.0], [-1.0, 1.0]])


class TestPersistence:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        params = random_params(rng, (4, 3, 2))
        params.norm_mean += rng.uniform(-5, 5, 4)
        params.norm_std += rng.uniform(0.1, 2.0, 4)
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        x = rng.uniform(-3, 3, 4)
        assert forward(loaded, x) == forward(params, x)
        for a, b in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(params.norm_mean, loaded.norm_mean)

    @pytest.mark.parametrize("layer_sizes", [(22, 5, 2), (22, 1, 2), (3, 4, 2), (22, 8, 5, 2)])
    def test_file_is_json_dumps_of_the_document(self, tmp_path, layer_sizes):
        """The text written is json.dumps(doc, indent=1) of the model's
        document, with -0.0, a subnormal and large and small magnitudes."""
        rng = np.random.default_rng(len(layer_sizes) * 100 + layer_sizes[1])
        params = random_params(rng, layer_sizes)
        params.weights[0][0, 0], params.biases[-1][0] = -0.0, 5e-324
        params.norm_mean += rng.uniform(-5, 5, layer_sizes[0]) * 1e17
        params.norm_std += rng.uniform(0.1, 2.0, layer_sizes[0]) * 1e-7
        path = tmp_path / "model.json"
        save_model(params, path)
        doc = {"format": goalshot.mlp.MODEL_FORMAT, "version": goalshot.mlp.MODEL_VERSION,
               "layer_sizes": list(layer_sizes),
               "normalization": {"mean": params.norm_mean.tolist(),
                                 "std": params.norm_std.tolist()},
               "weights": [w.tolist() for w in params.weights],
               "biases": [b.tolist() for b in params.biases]}
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1)

    def test_wrong_version_rejected(self, tmp_path):
        params = zero_params()
        path = tmp_path / "model.json"
        save_model(params, path)
        path.write_text(path.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_missing_normalization_rejected(self, tmp_path):
        params = zero_params()
        path = tmp_path / "model.json"
        save_model(params, path)
        import json
        doc = json.loads(path.read_text())
        del doc["normalization"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="normalization"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = zero_params()
        path = tmp_path / "model.json"
        save_model(params, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match="model file"):
            load_model(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:40].encode(), "not a valid model file"),
        (lambda text: b"\xff" + text.encode(), "not a valid model file"),
        (lambda text: b"[" * 100_000 + b"]" * 100_000, "not a valid model file"),
        (lambda text: b"[1, 2]", "not a recognized model file"),
        (lambda text: text.replace('"goalshot', '"other').encode(),
         "not a recognized model file"),
        (lambda text: text.replace('"version": 1', '"version": 2').encode(),
         "unsupported model version 2"),
        (lambda text: text.replace('"normalization"', '"norm"').encode(),
         "missing its normalization block"),
        (lambda text: text.replace('"biases"', '"bias"').encode(), "missing field 'biases'")],
        ids=["truncated", "not-utf8", "nested", "not-an-object", "format", "version",
             "normalization", "field"])
    def test_every_rejection_names_the_file(self, tmp_path, damage, message):
        path = tmp_path / "model.json"
        save_model(zero_params(), path)
        path.write_bytes(damage(path.read_text(encoding="utf-8")))
        with pytest.raises(ValueError, match=message) as error:
            load_model(path)
        assert str(path) in str(error.value)

    @pytest.mark.parametrize("field, value", [("weights", "NaN"), ("biases", "Infinity"),
                                              ("mean", "-Infinity"), ("std", "NaN")])
    def test_non_finite_values_rejected(self, tmp_path, field, value):
        import json
        path = tmp_path / "model.json"
        save_model(zero_params(), path)
        doc = json.loads(path.read_text())
        cells = {"weights": doc["weights"][-1][0], "biases": doc["biases"][-1],
                 "mean": doc["normalization"]["mean"], "std": doc["normalization"]["std"]}
        cells[field][0] = value
        path.write_text(json.dumps(doc).replace(f'"{value}"', value))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("layer_sizes", 5), ("weights", None), ("biases", 3),
        # MlpParams would truncate or convert these; JSON integers only.
        ("layer_sizes", [3.9, 4, 2]), ("layer_sizes", [3.0, 4, 2]),
        ("layer_sizes", ["3", "4", "2"]), ("layer_sizes", [3, True, 2]),
        # numpy's own errors, which name no file: a non-numeric cell, a ragged row.
        ("weights", [[["a"]]]), ("weights", [[[0.0, 0.0], [0.0]]])])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        import json
        path = tmp_path / "model.json"
        save_model(zero_params(), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed model file .*model.json"):
            load_model(path)

    @pytest.mark.parametrize("layer_sizes", [(22, 5, 1), (22, 5, 3), (3, 4, 1)])
    def test_output_layer_of_other_than_two_nodes_rejected(self, tmp_path, layer_sizes):
        """score and score_batch fold exactly two output nodes: a file with
        one node would fail on an index, one with three would be scored
        from its first two. The error names the file."""
        path = write_model(tmp_path / "model.json", layer_sizes)
        with pytest.raises(ValueError, match=r"malformed model file .*model.json: invalid "
                                             r"layer sizes .*: score folds 2 output nodes"):
            load_model(path)
        with pytest.raises(ValueError, match="2 output nodes"):
            zero_params(layer_sizes)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MlpParams((3, 2), [np.zeros((3, 3))], [np.zeros(2)],
                      np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            MlpParams((3, 2), [np.zeros((3, 2))], [np.zeros(2)],
                      np.zeros(3), np.zeros(3))  # std must be positive
