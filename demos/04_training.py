"""Training the scorer: split, balance, online backprop, early stopping.

The generator's scene table is split 50/25/25 and the training part
balanced by replication. The 22-5-2 tanh network trains one example at a
time at a constant learning rate. After every epoch the validation MSE is
checked against the best seen so far; a run of non-improving epochs stops
training and the best epoch's weights win. The trained model (with its input normalization)
round-trips through a JSON file.
"""

import tempfile
from pathlib import Path

from goalshot import (TrainConfig, balance_by_replication, feature_matrix,
                      forward, generate_synthetic_scenes, load_model, save_model,
                      score, split_dataset, train)
from goalshot.config import RunConfig

cfg = RunConfig()
table = generate_synthetic_scenes(3000, cfg.gen, cfg.dynamics, cfg.field, seed=3)
split = split_dataset(table, seed=3)
balanced = balance_by_replication(split.train, seed=3)
goals = int(balanced.goal.sum())
print(f"train {len(split.train)} -> balanced {len(balanced)} "
      f"({goals} goal / {len(balanced) - goals} no-goal), "
      f"validation {len(split.validation)}, test {len(split.test)}")

params, report = train(
    feature_matrix(balanced, cfg.field), balanced.goal,
    feature_matrix(split.validation, cfg.field), split.validation.goal,
    TrainConfig(max_epochs=80, patience=10), seed=3)

print()
print(f"stopped after {report.epochs_run} epochs ({report.stop_reason.value}), "
      f"best epoch {report.best_epoch}")
print()
print("validation MSE by epoch (* marks the best):")
for epoch, mse in enumerate(report.validation_mse_history, start=1):
    marker = " *" if epoch == report.best_epoch else ""
    if epoch <= 10 or epoch % 10 == 0 or marker:
        print(f"  epoch {epoch:3d}: {mse:.5f}{marker}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    example = feature_matrix(split.test, cfg.field)[0]
    original = score(*forward(params, example))
    reloaded = score(*forward(loaded, example))
    print()
    print(f"model file round trip: score {original:.6f} -> {reloaded:.6f} "
          f"(identical: {original == reloaded})")
