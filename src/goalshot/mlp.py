"""Multilayer perceptron scorer, trained from scratch.

Architecture: fully connected, hyperbolic tangent at every layer, default
22-5-2. Inputs are z-scored with statistics taken from the training set
(raw pitch coordinates saturate tanh); the normalization constants travel
with the model. Training is plain online backpropagation at a constant
learning rate: per epoch the examples are visited in a seeded-shuffled
order and each one triggers an immediate gradient step on the per-example
MSE (mean over the two output nodes). Training stops after max_epochs or
`patience` consecutive validation failures, where a failure is an epoch
whose validation MSE does not improve on the best seen so far; the
returned weights are those of the best validation epoch.

The two outputs are folded into a single score in [0, 1] via

    score = (node1 - node2) / 4 + 0.5

so the ideal GOAL response (+1, -1) maps to 1.0 and the ideal NO_GOAL
response (-1, +1) maps to 0.0; these two responses are train's targets.

One layer pass serves one row (forward) and a batch (score_batch, the
policy, eval, the epoch MSE), and gives a row the same bits in each. It
costs its numpy calls, one einsum per layer and ufunc calls in place on
arrays it made, and returns only the last layer's output.
No product goes through BLAS, so the bits do not depend on the kernels
OpenBLAS picks for the CPU; numpy's tanh kernel still varies with the SIMD
extensions found, so trained models are reproducible on x86-64 CPUs with
AVX2 for one numpy build.

One backprop kernel serves train and gradient(). It keeps each layer as one
(fan_in + 1, fan_out) block [W; b] of a flat float64 buffer, of which the
trained MlpParams' weights and biases are views (block[:-1], block[-1]),
and writes the gradient into a second flat buffer of the same layout; an
update is one w - learning_rate * g over the whole buffer. Every layer
input ends with a fixed 1.0, so one einsum per layer gives x.W + b and one
product of the input column and the delta writes both gradients. The bits
are those of the layer pass and of textbook backprop: einsum sums a
layer's inputs in order, so its last term, 1.0 * b, is added where z += b
added it, and 1.0 * delta is delta. A layer of one unit adds b apart,
because einsum's single-output path sums in SIMD lanes. The layer outputs
and deltas live in buffers made once per training run, and the step is
bound once, as a closure over those buffers and the ufuncs it calls, so an
example step allocates no array, looks up no attribute and costs only its
numpy calls.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MODEL_FORMAT = "goalshot-mlp"
MODEL_VERSION = 1

GOAL_TARGET = (1.0, -1.0)
NO_GOAL_TARGET = (-1.0, 1.0)


@dataclass(eq=False)
class MlpParams:
    """Network weights plus the input normalization baked in at training."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]      # per layer, fan_in x fan_out
    biases: list[np.ndarray]       # per layer, (fan_out,)
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes) or sizes[-1] != 2:
            raise ValueError(f"invalid layer sizes {sizes}: score folds 2 output nodes")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} has shape {w.shape}/{b.shape}, "
                                 f"expected {(sizes[i], sizes[i + 1])}/{(sizes[i + 1],)}")
        if self.norm_mean.shape != (sizes[0],) or self.norm_std.shape != (sizes[0],):
            raise ValueError("normalization must cover every input feature")
        if np.any(self.norm_std <= 0):
            raise ValueError("normalization stds must be positive")
        arrays = (*self.weights, *self.biases, self.norm_mean, self.norm_std)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("weights, biases and normalization must be finite")


def init_params(layer_sizes: Sequence[int], norm_mean: np.ndarray,
                norm_std: np.ndarray, rng: np.random.Generator,
                half_range: float = 0.1) -> MlpParams:
    """Uniform weight/bias init in [-half_range, +half_range] to break symmetry."""
    sizes = tuple(int(s) for s in layer_sizes)
    weights = [rng.uniform(-half_range, half_range, (sizes[i], sizes[i + 1]))
               for i in range(len(sizes) - 1)]
    biases = [rng.uniform(-half_range, half_range, sizes[i + 1])
              for i in range(len(sizes) - 1)]
    return MlpParams(sizes, weights, biases, np.asarray(norm_mean, float),
                     np.asarray(norm_std, float))


def _normalize(params: MlpParams, features: np.ndarray, ndim: int) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != ndim or x.shape[-1:] != (params.layer_sizes[0],):
        raise ValueError(f"expected {params.layer_sizes[0]} features, got shape {x.shape}")
    # C order: einsum sums a one-unit layer's row in the same order only over contiguous rows
    x = np.subtract(x, params.norm_mean, order="C")
    return np.divide(x, params.norm_std, x)


def _layer_pass(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The last layer's output for a normalized row or batch x."""
    for w, b in zip(params.weights, params.biases):
        # einsum sums a row's products in one order for any batch and any CPU,
        # so a batch row is bit-equal to the 1-row call; the BLAS gemv and
        # gemm behind matmul are not, and their kernels differ per core.
        x = np.einsum("...j,jk->...k", x, w)
        np.tanh(np.add(x, b, x), x)
    return x


def forward(params: MlpParams, features: np.ndarray) -> tuple[float, float]:
    """Raw (node1, node2) outputs of one feature row, each in (-1, 1)."""
    out = _layer_pass(params, _normalize(params, features, 1))
    return float(out[0]), float(out[1])


def score(node1: float, node2: float) -> float:
    """Fold the two output nodes into a goal score in [0, 1]."""
    if not (-1.0 <= node1 <= 1.0 and -1.0 <= node2 <= 1.0):
        raise ValueError(f"node outputs must be in [-1, 1], got ({node1}, {node2})")
    return (node1 - node2) / 4.0 + 0.5


def score_batch(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """score(*forward(params, row)) for each row of a batch, bit for bit."""
    out = _layer_pass(params, _normalize(params, features, 2))
    scores = np.subtract(out[:, 0], out[:, 1])
    return np.add(np.divide(scores, 4.0, scores), 0.5, scores)


@dataclass(eq=False)
class MlpGradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


class _Backprop:
    """Online backprop on one flat parameter buffer.

    theta holds each layer as one (fan_in + 1, fan_out) block [W; b], layer
    after layer, and params.weights and params.biases are the views
    block[:-1] and block[-1]; grad has the same layout. Every layer input
    ends with a fixed 1.0: the caller appends it to the normalized row, and
    each hidden slot of the activations buffer ends with it. So one einsum
    against a block gives x.W + b, and one product of a layer's input column
    and its delta writes the weight and the bias gradients (1.0 * delta is
    delta). A layer of one unit is the exception: einsum sums a single
    output's terms in SIMD lanes, so it adds b apart, as x.W + b always did.

    The buffers and the per-layer tuples are made once, and backprop and
    step are closures bound once per kernel over them and the ufuncs they
    call. So a step allocates no array, builds no list and looks up no
    attribute: it costs its numpy calls. 1 - a^2 subtracts from a buffer of
    ones, where a Python 1.0 would be converted on every call.
    """

    def __init__(self, params: MlpParams) -> None:
        sizes = params.layer_sizes
        theta = np.concatenate([a.ravel() for layer in zip(params.weights, params.biases)
                                for a in layer])
        grad = np.empty_like(theta)
        self.theta, self.grad = theta, grad
        self.params = MlpParams(sizes, *_views(sizes, theta), params.norm_mean,
                                params.norm_std)
        blocks, grad_blocks = _blocks(sizes, theta), _blocks(sizes, grad)
        # Layer l writes outputs[l]; a hidden layer's slot goes on with a 1.0.
        activations = np.ones(sum(sizes[1:]) + len(sizes) - 2)
        slopes, ones = np.empty_like(activations), np.ones_like(activations)
        outputs, layer_slopes, inputs, start = [], [], [], 0
        for n in sizes[1:]:
            outputs.append(activations[start:start + n])
            layer_slopes.append(slopes[start:start + n])
            inputs.append(activations[start:start + n + 1])
            start += n + 1
        deltas = [np.empty(n) for n in sizes[1:]]
        top = len(blocks) - 1
        output, output_delta = outputs[top], deltas[top]
        # Per layer: its block [W; b], W, b if the layer has one unit (else
        # None), its output, and the next layer's input, that output and 1.0.
        layers = tuple((block, block[:-1], None if len(z) > 1 else block[-1], z, a)
                       for block, z, a in zip(blocks, outputs, inputs))
        down = tuple((deltas[layer], layer_slopes[layer], inputs[layer - 1][:, None],
                      grad_blocks[layer], blocks[layer][:-1], deltas[layer - 1])
                     for layer in range(top, 0, -1))
        bottom_delta, bottom_slope, bottom_grad = deltas[0], layer_slopes[0], grad_blocks[0]
        einsum, tanh, add = np.einsum, np.tanh, np.add
        multiply, subtract = np.multiply, np.subtract

        def backprop(x: np.ndarray, x_column: np.ndarray, target: np.ndarray) -> None:
            """The gradient of the per-example MSE at the normalized row x,
            which ends with 1.0 (x_column is x as an (n, 1) view), into grad."""
            a = x
            for block, weights, bias, z, next_input in layers:
                if bias is None:
                    # einsum sums j in order: its last term, 1.0 * b, gives z = x.W; z += b.
                    einsum("...j,jk->...k", a, block, out=z)
                else:
                    einsum("...j,jk->...k", a[:-1], weights, out=z)
                    add(z, bias, z)
                tanh(z, z)
                a = next_input
            multiply(activations, activations, slopes)
            subtract(ones, slopes, slopes)
            # d/d_out of mean((out - t)^2) over the two outputs, 2 / 2 * (out - t),
            # then back through tanh at each layer.
            subtract(output, target, output_delta)
            for delta, slope, column, grad_block, weights, below in down:
                multiply(delta, slope, delta)
                multiply(column, delta, grad_block)
                einsum("k,jk->j", delta, weights, out=below)
            multiply(bottom_delta, bottom_slope, bottom_delta)
            multiply(x_column, bottom_delta, bottom_grad)

        def step(x: np.ndarray, x_column: np.ndarray, target: np.ndarray,
                 learning_rate: float | np.ndarray) -> None:
            """One online gradient step, w - learning_rate * g for every parameter.
            A 0-d array learning rate, as train passes, skips the conversion
            a float costs on every call; the product has the same bits."""
            backprop(x, x_column, target)
            multiply(learning_rate, grad, grad)
            subtract(theta, grad, theta)

        self.backprop, self.step = backprop, step


def _blocks(sizes: tuple[int, ...], buffer: np.ndarray) -> list[np.ndarray]:
    """Each layer's (fan_in + 1, fan_out) block [W; b], a view into buffer."""
    blocks, start = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        end = start + (fan_in + 1) * fan_out
        blocks.append(buffer[start:end].reshape(fan_in + 1, fan_out))
        start = end
    return blocks


def _views(sizes: tuple[int, ...],
           buffer: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weight matrices and the bias vectors in buffer, block[:-1] and
    block[-1] of each layer's block."""
    blocks = _blocks(sizes, buffer)
    return [b[:-1] for b in blocks], [b[-1] for b in blocks]


def gradient(params: MlpParams, features: np.ndarray,
             target: Sequence[float]) -> MlpGradients:
    """Exact gradient of the per-example MSE w.r.t. every weight and bias."""
    t = np.asarray(target, dtype=float)
    if t.shape != (params.layer_sizes[-1],):
        raise ValueError(f"target must have {params.layer_sizes[-1]} components")
    if np.any(np.abs(t) > 1.0):
        raise ValueError("target components must be in [-1, 1]")
    x = np.append(_normalize(params, features, 1), 1.0)
    kernel = _Backprop(params)
    kernel.backprop(x, x[:, None], t)
    return MlpGradients(*_views(params.layer_sizes, kernel.grad))


class StopReason(enum.Enum):
    MAX_EPOCHS = "MAX_EPOCHS"
    EARLY_STOP = "EARLY_STOP"


@dataclass
class TrainReport:
    epochs_run: int
    best_epoch: int
    train_mse_history: list[float]
    validation_mse_history: list[float]
    stop_reason: StopReason


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 10_000
    patience: int = 5
    init_half_range: float = 0.1
    hidden_size: int = 5

    def __post_init__(self) -> None:
        for name in ("learning_rate", "init_half_range"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1 or self.patience < 1 or self.hidden_size < 1:
            raise ValueError("max_epochs, patience and hidden_size must be >= 1")
        if self.init_half_range <= 0:
            raise ValueError("init_half_range must be positive")


class EarlyStopping:
    """Consecutive-validation-failure tracker.

    A failure is an epoch whose validation MSE is >= the best seen so far.
    update() returns True when the epoch improved the best MSE.
    """

    def __init__(self, patience: int) -> None:
        self.patience = patience
        self.best_mse = math.inf
        self.best_epoch = 0
        self.epoch = 0
        self._failures = 0

    def update(self, val_mse: float) -> bool:
        self.epoch += 1
        self._failures = self._failures + 1 if val_mse >= self.best_mse else 0
        improved = val_mse < self.best_mse
        if improved:
            self.best_mse = val_mse
            self.best_epoch = self.epoch
        return improved

    @property
    def should_stop(self) -> bool:
        return self._failures >= self.patience


def _dataset_mse(params: MlpParams, x_normalized: np.ndarray,
                 targets: np.ndarray) -> float:
    out = _layer_pass(params, x_normalized)
    return float(np.mean((out - targets) ** 2))


def _targets(goal: np.ndarray, n: int) -> np.ndarray:
    """(n, 2) training targets of a bool GOAL mask of n rows."""
    goal = np.asarray(goal)
    if goal.dtype != bool or goal.shape != (n,):
        raise ValueError(f"labels must be a bool GOAL mask of one entry per feature row "
                         f"({n}), got {goal.dtype} of shape {goal.shape}")
    return np.where(goal[:, None], GOAL_TARGET, NO_GOAL_TARGET)


def train(train_features: np.ndarray, train_goal: np.ndarray,
          val_features: np.ndarray, val_goal: np.ndarray,
          config: TrainConfig = TrainConfig(), seed: int = 0) -> tuple[MlpParams, TrainReport]:
    """Train a tanh MLP with online backprop and early stopping.

    The labels are the rows' bool GOAL masks, such as SceneTable.goal.
    Deterministic for a given seed, which draws the initial weights and
    then each epoch's example order. The caller is expected to pass
    a class-balanced training set (see scenes.balance_by_replication).
    """
    x = np.asarray(train_features, dtype=float)
    xv = np.asarray(val_features, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training set must be a non-empty 2D array")
    if xv.ndim != 2 or xv.shape[0] == 0:
        raise ValueError("validation set must be a non-empty 2D array")
    if xv.shape[1] != x.shape[1]:
        raise ValueError("train and validation feature widths differ")
    targets = _targets(train_goal, len(x))
    val_targets = _targets(val_goal, len(xv))

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)  # constant features pass through
    rng = np.random.default_rng(seed)
    sizes = (x.shape[1], config.hidden_size, 2)
    kernel = _Backprop(init_params(sizes, mean, std, rng, config.init_half_range))
    params = kernel.params

    xn, xvn = _normalize(params, x, 2), _normalize(params, xv, 2)
    # The kernel's rows end with the 1.0 that its [W; b] blocks multiply b by.
    xn1 = np.hstack([xn, np.ones((len(xn), 1))])
    rows, columns, row_targets = list(xn1), list(xn1[:, :, None]), list(targets)
    stopper = EarlyStopping(config.patience)
    best_theta = kernel.theta.copy()
    train_history: list[float] = []
    val_history: list[float] = []
    stop_reason = StopReason.MAX_EPOCHS
    step, learning_rate = kernel.step, np.array(config.learning_rate)
    for _ in range(config.max_epochs):
        for i in rng.permutation(len(xn)).tolist():
            step(rows[i], columns[i], row_targets[i], learning_rate)
        train_history.append(_dataset_mse(params, xn, targets))
        val_mse = _dataset_mse(params, xvn, val_targets)
        val_history.append(val_mse)
        if stopper.update(val_mse):
            np.copyto(best_theta, kernel.theta)
        if stopper.should_stop:
            stop_reason = StopReason.EARLY_STOP
            break
    report = TrainReport(
        epochs_run=len(val_history),
        best_epoch=stopper.best_epoch,
        train_mse_history=train_history,
        validation_mse_history=val_history,
        stop_reason=stop_reason,
    )
    return MlpParams(sizes, *_views(sizes, best_theta), mean, std), report


def _json_array(values: list, depth: int) -> str:
    """json.dumps(values, indent=1) at nesting depth, for a non-empty nested
    list of ints and finite floats: each number is its repr, as json.dumps
    writes it."""
    pad = "\n" + " " * (depth + 1)
    items = ([_json_array(v, depth + 1) for v in values] if type(values[0]) is list
             else map(repr, values))
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def save_model(params: MlpParams, path: str | Path) -> None:
    """Versioned, self-describing JSON; floats round-trip exactly. The text
    is json.dumps(doc, indent=1) of {format, version, layer_sizes,
    normalization: {mean, std}, weights, biases}, written from reprs
    (MlpParams holds only finite values)."""
    text = (f'{{\n "format": {json.dumps(MODEL_FORMAT)},\n "version": {MODEL_VERSION},\n'
            f' "layer_sizes": {_json_array(list(params.layer_sizes), 1)},\n'
            f' "normalization": {{\n  "mean": {_json_array(params.norm_mean.tolist(), 2)},\n'
            f'  "std": {_json_array(params.norm_std.tolist(), 2)}\n }},\n'
            f' "weights": {_json_array([w.tolist() for w in params.weights], 1)},\n'
            f' "biases": {_json_array([b.tolist() for b in params.biases], 1)}\n}}')
    Path(path).write_text(text, encoding="utf-8")


def load_model(path: str | Path) -> MlpParams:
    """The MlpParams of a save_model file; every rejection names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"not a valid model file {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a recognized model file {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"model file {path}: unsupported model version {doc.get('version')!r}")
    norm = doc.get("normalization")
    if not isinstance(norm, dict) or "mean" not in norm or "std" not in norm:
        raise ValueError(f"model file {path} missing its normalization block")
    sizes = doc.get("layer_sizes", [])
    if not (isinstance(sizes, list) and all(type(n) is int for n in sizes)):
        raise ValueError(f"malformed model file {path}: layer_sizes must be a list of "
                         f"integers, got {sizes!r}")
    try:
        layer_sizes = tuple(doc["layer_sizes"])
        # numpy rejects a non-numeric cell or a ragged row, MlpParams a layout.
        arrays = ([np.asarray(w, dtype=float) for w in doc["weights"]],
                  [np.asarray(b, dtype=float) for b in doc["biases"]],
                  np.asarray(norm["mean"], dtype=float), np.asarray(norm["std"], dtype=float))
        return MlpParams(layer_sizes, *arrays)
    except KeyError as exc:
        raise ValueError(f"model file {path} missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None
