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
response (-1, +1) maps to 0.0.

One layer pass serves one row (forward, the policy), a batch (score_batch,
eval, the epoch MSE) and backprop, and gives a row the same bits in each.
No product goes through BLAS, so the bits do not depend on the kernels
OpenBLAS picks for the CPU; numpy's tanh kernel still varies with the SIMD
extensions found, so trained models are reproducible on x86-64 CPUs with
AVX2 for one numpy build.

One backprop kernel serves train and gradient(). It keeps all weights and
biases in one flat float64 buffer, of which the trained MlpParams' weights
and biases are reshaped views, and writes the gradient into a second flat
buffer of the same layout; an update is one w - learning_rate * g over the
whole buffer. Its layer outputs and deltas live in buffers made once per
training run, so an example step allocates no array.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .scenes import Label

MODEL_FORMAT = "goalshot-mlp"
MODEL_VERSION = 1

GOAL_TARGET = (1.0, -1.0)
NO_GOAL_TARGET = (-1.0, 1.0)


def targets_from_labels(labels: Sequence[Label]) -> np.ndarray:
    """(n, 2) training targets for a label sequence."""
    targets = np.empty((len(labels), 2))
    for i, label in enumerate(labels):
        if label is Label.GOAL:
            targets[i] = GOAL_TARGET
        elif label is Label.NO_GOAL:
            targets[i] = NO_GOAL_TARGET
        else:
            raise ValueError(f"unlabeled example at index {i}")
    return targets


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
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
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

    def copy(self) -> MlpParams:
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            norm_mean=self.norm_mean.copy(),
            norm_std=self.norm_std.copy(),
        )


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


def _normalize(params: MlpParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    expected = (params.layer_sizes[0],) if x.ndim == 1 else (x.shape[0], params.layer_sizes[0])
    if x.shape != expected:
        raise ValueError(f"expected {params.layer_sizes[0]} features, got shape {x.shape}")
    return (x - params.norm_mean) / params.norm_std


def _activations(params: MlpParams, x: np.ndarray,
                 out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """The normalized input and every layer's output, for a row or a batch.

    With out, one preallocated buffer per layer, the outputs are written
    there and nothing is allocated but the returned list."""
    activations = [x]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        # einsum sums a row's products in one order for any batch and any CPU,
        # so a batch row is bit-equal to the 1-row call; the BLAS gemv and
        # gemm behind matmul are not, and their kernels differ per core.
        z = np.einsum("...j,jk->...k", activations[-1], w,
                      out=None if out is None else out[layer])
        z += b
        activations.append(np.tanh(z, out=z))
    return activations


def forward(params: MlpParams, features: np.ndarray) -> tuple[float, float]:
    """Raw (node1, node2) outputs, each in (-1, 1)."""
    out = _activations(params, _normalize(params, features))[-1]
    return float(out[0]), float(out[1])


def score(node1: float, node2: float) -> float:
    """Fold the two output nodes into a goal score in [0, 1]."""
    if not (-1.0 <= node1 <= 1.0 and -1.0 <= node2 <= 1.0):
        raise ValueError(f"node outputs must be in [-1, 1], got ({node1}, {node2})")
    return (node1 - node2) / 4.0 + 0.5


def score_batch(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """score(*forward(params, row)) for each row of a batch, bit for bit."""
    out = _activations(params, _normalize(params, features))[-1]
    return (out[:, 0] - out[:, 1]) / 4.0 + 0.5


@dataclass(eq=False)
class MlpGradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


class _Backprop:
    """Online backprop on one flat parameter buffer.

    theta holds each layer's weight matrix and then its bias vector, layer
    after layer, and params.weights and params.biases are reshaped views into
    it; grad has the same layout. The layer outputs and the tanh slopes go
    into buffers made once, so a step allocates no array. Every product and
    sum is the float operation that np.outer and w - lr * g per array make,
    so the buffers do not change the bits.
    """

    def __init__(self, params: MlpParams) -> None:
        sizes = params.layer_sizes
        self.theta = np.concatenate([a.ravel() for layer in zip(params.weights, params.biases)
                                     for a in layer])
        self.grad = np.empty_like(self.theta)
        self.params = MlpParams(sizes, *self._views(sizes, self.theta),
                                params.norm_mean, params.norm_std)
        self.grad_weights, self.grad_biases = self._views(sizes, self.grad)
        self.outputs = [np.empty(n) for n in sizes[1:]]
        self.output_columns = [a[:, None] for a in self.outputs]
        self.slopes = [np.empty(n) for n in sizes[1:]]

    @staticmethod
    def _views(sizes: tuple[int, ...],
               buffer: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            weights.append(buffer[start:start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(buffer[start:start + fan_out])
            start += fan_out
        return weights, biases

    def backprop(self, x: np.ndarray, x_column: np.ndarray, target: np.ndarray) -> None:
        """The gradient of the per-example MSE at the normalized row x (x_column
        is x as an (n, 1) view) into grad."""
        _activations(self.params, x, self.outputs)
        out = self.outputs[-1]
        # d/d_out of mean((out - t)^2), then back through tanh at each layer;
        # each layer's delta is its bias gradient.
        delta = self.grad_biases[-1]
        np.subtract(out, target, out=delta)
        np.multiply(2.0 / out.size, delta, out=delta)
        for layer in reversed(range(len(self.outputs))):
            a, slope, delta = self.outputs[layer], self.slopes[layer], self.grad_biases[layer]
            np.multiply(a, a, out=slope)
            np.subtract(1.0, slope, out=slope)
            np.multiply(delta, slope, out=delta)
            column = self.output_columns[layer - 1] if layer else x_column
            np.multiply(column, delta, out=self.grad_weights[layer])
            if layer:
                np.einsum("k,jk->j", delta, self.params.weights[layer],
                          out=self.grad_biases[layer - 1])

    def step(self, x: np.ndarray, x_column: np.ndarray, target: np.ndarray,
             learning_rate: float) -> None:
        """One online gradient step, w - learning_rate * g for every parameter."""
        self.backprop(x, x_column, target)
        np.multiply(learning_rate, self.grad, out=self.grad)
        np.subtract(self.theta, self.grad, out=self.theta)


def gradient(params: MlpParams, features: np.ndarray,
             target: Sequence[float]) -> MlpGradients:
    """Exact gradient of the per-example MSE w.r.t. every weight and bias."""
    t = np.asarray(target, dtype=float)
    if t.shape != (params.layer_sizes[-1],):
        raise ValueError(f"target must have {params.layer_sizes[-1]} components")
    if np.any(np.abs(t) > 1.0):
        raise ValueError("target components must be in [-1, 1]")
    x = _normalize(params, features)
    kernel = _Backprop(params)
    kernel.backprop(x, x[:, None], t)
    return MlpGradients(kernel.grad_weights, kernel.grad_biases)


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
    seed: int = 0
    hidden_size: int = 5

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1 or self.patience < 1 or self.hidden_size < 1:
            raise ValueError("max_epochs, patience and hidden_size must be >= 1")
        if self.init_half_range <= 0:
            raise ValueError("init_half_range must be positive")
        if self.seed < 0:
            raise ValueError(f"train seed must be >= 0, got {self.seed}")


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
    out = _activations(params, x_normalized)[-1]
    return float(np.mean((out - targets) ** 2))


def train(train_features: np.ndarray, train_labels: Sequence[Label],
          val_features: np.ndarray, val_labels: Sequence[Label],
          config: TrainConfig = TrainConfig()) -> tuple[MlpParams, TrainReport]:
    """Train a tanh MLP with online backprop and early stopping.

    Deterministic for a given config.seed. The caller is expected to pass
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
    targets = targets_from_labels(train_labels)
    val_targets = targets_from_labels(val_labels)
    if len(targets) != len(x) or len(val_targets) != len(xv):
        raise ValueError("labels and features must have matching lengths")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)  # constant features pass through
    rng = np.random.default_rng(config.seed)
    kernel = _Backprop(init_params((x.shape[1], config.hidden_size, 2), mean, std, rng,
                                   config.init_half_range))
    params = kernel.params

    xn = (x - mean) / std
    xvn = (xv - mean) / std
    rows, columns, row_targets = list(xn), list(xn[:, :, None]), list(targets)
    stopper = EarlyStopping(config.patience)
    best_params = params.copy()
    train_history: list[float] = []
    val_history: list[float] = []
    stop_reason = StopReason.MAX_EPOCHS
    for _ in range(config.max_epochs):
        for i in rng.permutation(len(xn)).tolist():
            kernel.step(rows[i], columns[i], row_targets[i], config.learning_rate)
        train_history.append(_dataset_mse(params, xn, targets))
        val_mse = _dataset_mse(params, xvn, val_targets)
        val_history.append(val_mse)
        if stopper.update(val_mse):
            best_params = params.copy()
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
    return best_params, report


def save_model(params: MlpParams, path: str | Path) -> None:
    """Versioned, self-describing JSON; floats round-trip exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "normalization": {
            "mean": params.norm_mean.tolist(),
            "std": params.norm_std.tolist(),
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def load_model(path: str | Path) -> MlpParams:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a recognized model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    norm = doc.get("normalization")
    if not isinstance(norm, dict) or "mean" not in norm or "std" not in norm:
        raise ValueError("model file missing its normalization block")
    sizes = doc.get("layer_sizes", [])
    if not (isinstance(sizes, list) and all(type(n) is int for n in sizes)):
        raise ValueError(f"malformed model file {path}: layer_sizes must be a list of "
                         f"integers, got {sizes!r}")
    try:
        return MlpParams(
            layer_sizes=tuple(doc["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
            norm_mean=np.asarray(norm["mean"], dtype=float),
            norm_std=np.asarray(norm["std"], dtype=float),
        )
    except KeyError as exc:
        raise ValueError(f"model file missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None
