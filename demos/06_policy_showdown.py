"""Paired policy-vs-policy experiment.

Three shot policies face the identical stream of scenes and noise: the
two-stage neural policy (analytic filter, then best network score), the
two-variable linear baseline, and a naive always-shoot-center reference.
Only the decisions differ, so the score gaps are attributable to the
policies alone. Both learned policies fit on the training rows of one
generated scene table; the linear fit takes them as KickScene views.
"""

from goalshot import (LdaPolicy, MlpPolicy, NaiveCenterPolicy, PolicyConfig,
                      TrainConfig, balance_by_replication, feature_matrix,
                      generate_synthetic_scenes, lda_train, report,
                      run_experiment, split_dataset, train)
from goalshot.config import RunConfig

cfg = RunConfig()
table = generate_synthetic_scenes(3000, cfg.gen, cfg.dynamics, cfg.field, seed=6)
split = split_dataset(table, seed=6)
balanced = balance_by_replication(split.train, seed=6)
params, _ = train(
    feature_matrix(balanced, cfg.field), balanced.goal,
    feature_matrix(split.validation, cfg.field), split.validation.goal,
    TrainConfig(max_epochs=80, patience=10, seed=6))
lda_model = lda_train(split.train.scenes(), cfg.field)
print(f"linear baseline: {lda_model.weight_distance:+.4f} * keeper_distance "
      f"{lda_model.weight_angle:+.4f} * keeper_angle {lda_model.bias:+.4f}")

policy_config = PolicyConfig()
neural = MlpPolicy(params, cfg.field, cfg.aim, policy_config)
linear = LdaPolicy(lda_model, cfg.field, cfg.aim, policy_config)
center = NaiveCenterPolicy(cfg.field, cfg.aim, policy_config)

print()
print("=== neural vs linear, 60 games x 10 shots, paired ===")
stats = run_experiment(neural, linear, 60, 10, cfg.keeper, cfg.gen,
                       cfg.dynamics, cfg.field, seed=6,
                       defender_catch_radius=cfg.gen.defender_catch_radius)
print(report(stats, "text", names=(neural.name, linear.name)))

print("=== neural vs always-center, 60 games x 10 shots, paired ===")
stats = run_experiment(neural, center, 60, 10, cfg.keeper, cfg.gen,
                       cfg.dynamics, cfg.field, seed=6,
                       defender_catch_radius=cfg.gen.defender_catch_radius)
print(report(stats, "text", names=(neural.name, center.name)))
