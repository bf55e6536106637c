"""Evaluating the trained scorer with ROC/AUC and the two-sample KS gap.

The scorer trains on the generator's scene table. Scores from the table's
held-out test rows are swept over every threshold to build the ROC curve;
the KS2 statistic is the largest vertical gap between the two classes'
score CDFs. Both are threshold-free views of separability.
"""

from goalshot import (TrainConfig, auc_rank, balance_by_replication,
                      feature_matrix, generate_synthetic_scenes, ks2_curve,
                      roc_curve, score_batch, split_dataset, train)
from goalshot.config import RunConfig

cfg = RunConfig()
table = generate_synthetic_scenes(3000, cfg.gen, cfg.dynamics, cfg.field, seed=4)
split = split_dataset(table, seed=4)
balanced = balance_by_replication(split.train, seed=4)
params, _ = train(
    feature_matrix(balanced, cfg.field), balanced.goal,
    feature_matrix(split.validation, cfg.field), split.validation.goal,
    TrainConfig(max_epochs=80, patience=10), seed=4)

scores = score_batch(params, feature_matrix(split.test, cfg.field))
roc = roc_curve(scores, split.test.goal)
ks = ks2_curve(scores, split.test.goal)

print(f"held-out test set: {len(scores)} scenes")
print(f"AUC  = {roc.auc:.3f}   (trapezoid; rank statistic "
      f"{auc_rank(scores, split.test.goal):.3f})")
print(f"KS2  = {ks.ks2:.3f}   at score threshold {ks.ks2_threshold:.3f}")

print()
print("ROC curve, downsampled:")
print(f"{'fpr':>6} {'tpr':>6}")
step = max(1, len(roc.points) // 12)
for fpr, tpr in roc.points[::step] + [roc.points[-1]]:
    print(f"{fpr:6.3f} {tpr:6.3f}  {'#' * int(40 * tpr)}")

print()
print("class score CDFs, downsampled (gap peaks at the KS2 threshold):")
print(f"{'score':>7} {'cdf_goal':>9} {'cdf_miss':>9} {'gap':>6}")
step = max(1, len(ks.thresholds) // 12)
for i in range(0, len(ks.thresholds), step):
    gap = abs(ks.cdf_positive[i] - ks.cdf_negative[i])
    print(f"{ks.thresholds[i]:7.3f} {ks.cdf_positive[i]:9.3f} "
          f"{ks.cdf_negative[i]:9.3f} {gap:6.3f}")
