"""Synthetic labeled scenes and single-variable screening.

The generator returns one scene table: each row is a shot situation whose
GOAL/NO_GOAL label comes from actually simulating the kick against the
keeper and defenders. The screening step treats every feature as a one-variable classifier and
reports its folded AUC: geometry around the keeper should rank near the
top, while a genuinely uninformative variable sits near 0.5.
"""

import numpy as np

from goalshot import (auc_rank, feature_matrix, feature_relevance,
                      generate_synthetic_scenes, univariate_stats)
from goalshot.config import RunConfig

cfg = RunConfig()
table = generate_synthetic_scenes(3000, cfg.gen, cfg.dynamics, cfg.field, seed=5)
print(f"generated {len(table)} scenes, goal fraction {table.goal.mean():.3f}")

print()
print("=== Univariate statistics (a few features) ===")
matrix = feature_matrix(table, cfg.field)
report = univariate_stats(matrix)
print(f"{'feature':<34} {'mean':>9} {'std':>8} {'median':>9} {'p1':>8} {'p99':>9}")
for name in ("ball_x", "keeper_distance_to_ball", "angle_ball_keeper_destiny",
             "kick_power", "def1_distance_to_ball"):
    s = report.per_feature[name]
    print(f"{name:<34} {s.mean:9.3f} {s.std:8.3f} {s.median:9.3f} "
          f"{s.percentile_1:8.3f} {s.percentile_99:9.3f}")

print()
print("=== Folded single-variable AUC, best to worst ===")
relevance = feature_relevance(matrix, table.goal)
for name, auc in sorted(relevance.items(), key=lambda kv: -kv[1]):
    print(f"{name:<34} {auc:.3f}")

rng = np.random.default_rng(5)
noise_auc = auc_rank(rng.random(len(table)), table.goal)
print()
print(f"a pure-noise variable, for contrast:  {max(noise_auc, 1 - noise_auc):.3f}")
