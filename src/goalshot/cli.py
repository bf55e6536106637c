"""Command-line entry point wiring the full pipeline.

Subcommands: gen-data, stats, train, eval, compare, aim-table. Every
command is deterministic given (config, seed), with a default seed of 0
and never the wall clock, and exits nonzero with a one-line diagnostic on
any error.

The parser is built once per process and reused by every `main` call.
`main` looks the command function up by name (`cmd_` + the subcommand) when
it runs, so a function replaced on this module after the first call is the
one that runs. aim-table's Monte-Carlo column draws its uniforms in blocks
(`dynamics.BlockUniforms`): the same values as one `rng.random()` per draw,
so the column is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import mlp
from .aim import ShotQuery, discretize_targets, p_goal, within_horizon
from .config import RunConfig, load_run_config, scalar_fields
from .dynamics import BallState, BlockUniforms, KeeperNoiseError, kick, rollout_to_goal_line
from .experiment import (check_experiment_size, check_report_format, lda_training_scenes,
                         report, run_experiment)
from .geometry import FieldConfig, Vec2, _located
from .metrics import feature_relevance, ks2_curve, roc_curve
from .policies import LdaPolicy, MlpPolicy, NaiveCenterPolicy, PolicyConfig, lda_train
from .scenes import (FEATURE_NAMES, Label, SceneTable, balance_by_replication,
                     check_generator, feature_matrix, generate_synthetic_scenes, load_scenes,
                     save_scenes, split_dataset, univariate_stats)


def _with_flags(config, args: argparse.Namespace):
    """config with the given flags named like its scalar fields applied, one
    at a time. Like INI values they must be finite, and as an INI error names
    its section, a value the class rejects names its flag."""
    for key in scalar_fields(type(config)):
        value = getattr(args, key, None)
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag}: non-finite value {value!r}")
        config = _located(flag, replace, config, **{key: value})
    return config


def _load_config(args: argparse.Namespace, draws: bool = False) -> RunConfig:
    """The config file, or the defaults, with the given flags applied: --seed
    to the run seed, a run's only seed, the others to [train] and [policy].
    For a command that draws scenes, the generator's checks run here too."""
    config = _with_flags(load_run_config(args.config) if args.config else RunConfig(), args)
    if draws and args.config:
        _located(f"config file {args.config}", check_generator, config.gen, config.dynamics,
                 config.field)
    return replace(config, train=_with_flags(config.train, args),
                   policy=_with_flags(config.policy, args))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_model(path: str | None) -> mlp.MlpParams:
    """mlp.load_model, checked to take a scene row's features, before any other input."""
    if not path:
        raise ValueError("--model is required for the mlp policy")
    params = mlp.load_model(path)
    if params.layer_sizes[0] != len(FEATURE_NAMES):
        raise ValueError(f"model file {path}: input layer takes {params.layer_sizes[0]} "
                         f"features, a scene gives {len(FEATURE_NAMES)}")
    return params


def _features(loaded: SceneTable, path: str, field: FieldConfig, *tables: SceneTable):
    """feature_matrix of each table, rows of `loaded`, the scene file at path.
    If the kernel rejects a row of them or gives it a non-finite feature, a
    scan of the file by row names the first such line in the error."""
    try:
        matrices = [feature_matrix(table, field) for table in tables]
        if all(np.isfinite(matrix).all() for matrix in matrices):
            return matrices
    except ValueError:
        pass
    for i in range(len(loaded)):
        source = f"scene file {path}: line {i + 2}"
        row = _located(source, feature_matrix, loaded.take([i]), field)[0]
        for name, value in zip(FEATURE_NAMES, row.tolist()):
            if not math.isfinite(value):
                raise ValueError(f"{source}: feature '{name}' is not finite")
    raise AssertionError("a row of the tables is a row of the file")


def _config_located(args: argparse.Namespace, function, *function_args, keeper="keeper"):
    """function(*function_args), which draws, labels or plays from the run
    config. After the commands' up-front checks only the config file's values
    can fail there, so with --config a ValueError names the file, and a
    KeeperNoiseError also the section of the keeper that function uses."""
    try:
        return function(*function_args)
    except ValueError as exc:
        if not args.config:
            raise
        section = f"[{keeper}] " if isinstance(exc, KeeperNoiseError) else ""
        raise ValueError(f"config file {args.config}: {section}{exc}") from None


def _require_both_classes(goal, source: str) -> None:
    """Fail, naming the scenes' source and their class counts, unless the
    GOAL flags hold both classes."""
    goals = int(np.count_nonzero(goal))
    if goals in (0, len(goal)):
        raise ValueError(f"{source}: both classes must be present, "
                         f"got {goals} GOAL and {len(goal) - goals} NO_GOAL")


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    config = _load_config(args, draws=True)
    table = _config_located(args, generate_synthetic_scenes, args.n, config.gen,
                            config.dynamics, config.field, config.seed)
    save_scenes(table, args.out)
    print(f"wrote {len(table)} scenes to {args.out} "
          f"(goal fraction {int(table.goal.sum()) / len(table):.3f}, seed {config.seed})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config(args)
    table = SceneTable.load(args.data, config.field, config.dynamics)
    (matrix,) = _features(table, args.data, config.field, table)
    source = f"scene file {args.data}"
    stats = _located(source, univariate_stats, matrix)
    if len(table) > 1:  # one scene is one class; feature_relevance says it needs two
        _require_both_classes(table.goal, source)
    relevance = _located(source, feature_relevance, matrix, table.goal)
    header = (f"{'feature':<34} {'mean':>10} {'std':>10} {'median':>10} "
              f"{'p1':>10} {'p99':>10} {'missing':>8} {'auc':>7}")
    lines = [f"{len(table)} scenes", header, "-" * len(header)]
    for name, s in stats.per_feature.items():
        lines.append(f"{name:<34} {s.mean:>10.4f} {s.std:>10.4f} {s.median:>10.4f} "
                     f"{s.percentile_1:>10.4f} {s.percentile_99:>10.4f} "
                     f"{s.missing_fraction:>8.3f} {relevance[name]:>7.3f}")
    print("\n".join(lines))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    source = f"scene file {args.data}"
    table = SceneTable.load(args.data, config.field, config.dynamics)
    split = _located(source, split_dataset, table, config.seed)
    _require_both_classes(split.train.goal, f"training split of {source}")
    balanced = balance_by_replication(split.train, config.seed)
    x, x_validation = _features(table, args.data, config.field, balanced, split.validation)
    params, train_report = mlp.train(x, balanced.goal, x_validation, split.validation.goal,
                                     config.train, seed=config.seed)
    mlp.save_model(params, args.model_out)
    doc = {
        "epochs_run": train_report.epochs_run,
        "best_epoch": train_report.best_epoch,
        "stop_reason": train_report.stop_reason.value,
        "best_validation_mse": min(train_report.validation_mse_history),
        "train_mse_history": train_report.train_mse_history,
        "validation_mse_history": train_report.validation_mse_history,
    }
    if args.report_out:
        Path(args.report_out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"trained on {len(balanced)} scenes (balanced from {len(split.train)}): "
          f"{train_report.epochs_run} epochs, best epoch {train_report.best_epoch}, "
          f"stop {train_report.stop_reason.value}, "
          f"val MSE {min(train_report.validation_mse_history):.5f}; "
          f"model -> {args.model_out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = _load_model(args.model)
    table = scenes = SceneTable.load(args.data, config.field, config.dynamics)
    source = f"scene file {args.data}"
    if args.use_test_split:
        scenes = _located(source, split_dataset, table, config.seed).test
        source = f"test split of {source}"
    _require_both_classes(scenes.goal, source)
    scores = mlp.score_batch(params, *_features(table, args.data, config.field, scenes))
    roc = roc_curve(scores, scenes.goal)
    ks = ks2_curve(scores, scenes.goal)
    print(f"n={len(scores)} auc={roc.auc:.6f} ks2={ks.ks2:.6f} "
          f"ks2_threshold={ks.ks2_threshold:.6f}")
    if args.roc_out:
        lines = ["fpr,tpr"] + [f"{x!r},{y!r}" for x, y in roc.points]
        Path(args.roc_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.ks2_out:
        lines = ["threshold,cdf_positive,cdf_negative,gap"]
        for t, cp, cn in zip(ks.thresholds.tolist(), ks.cdf_positive.tolist(),
                             ks.cdf_negative.tolist()):
            lines.append(f"{t!r},{cp!r},{cn!r},{abs(cp - cn)!r}")
        Path(args.ks2_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _make_policy(kind: str, args: argparse.Namespace, config: RunConfig,
                 model: mlp.MlpParams | None):
    if kind == "mlp":
        return MlpPolicy(model, config.field, config.aim, config.policy)
    if kind == "lda":
        if args.data:
            scenes = load_scenes(args.data, config.field, config.dynamics)
            source = f"scene file {args.data}"
        else:
            scenes = _config_located(args, lda_training_scenes, args.lda_train_scenes,
                                     config.gen, config.dynamics, config.field,
                                     config.seed).scenes()
            source = f"--lda-train-scenes {args.lda_train_scenes}"
        _require_both_classes([scene.label is Label.GOAL for scene in scenes], source)
        return LdaPolicy(_located(source, lda_train, scenes, config.field), config.field,
                         config.aim, config.policy)
    return NaiveCenterPolicy(config.field, config.aim, config.policy)


def cmd_compare(args: argparse.Namespace) -> int:
    check_report_format(args.format)
    for flag, kind in (("--policy-a", args.policy_a), ("--policy-b", args.policy_b)):
        if kind not in ("mlp", "lda", "center"):
            raise ValueError(f"{flag}: unknown policy {kind!r}; use mlp, lda or center")
    _located("--games" if args.games < 1 else "--shots", check_experiment_size, args.games,
             args.shots)
    if "lda" in (args.policy_a, args.policy_b) and not args.data and args.lda_train_scenes < 1:
        raise ValueError(f"--lda-train-scenes must be >= 1, got {args.lda_train_scenes}")
    config = _load_config(args, draws=True)
    # The model is checked before the lda reads or labels any scene.
    model = _load_model(args.model) if "mlp" in (args.policy_a, args.policy_b) else None
    policy_a = _make_policy(args.policy_a, args, config, model)
    policy_b = _make_policy(args.policy_b, args, config, model)
    eval_keeper = config.eval_keeper or config.keeper
    # The games write a file beside the log, which replaces it once all are played.
    log = args.episode_log
    if log and os.path.isdir(log):
        raise IsADirectoryError(f"--episode-log {log} is a directory")
    temp = log and Path(f"{log}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") if temp else nullcontext() as log_handle:
            stats = _config_located(args, run_experiment, policy_a, policy_b, args.games,
                                    args.shots, eval_keeper, config.gen, config.dynamics,
                                    config.field, config.seed,
                                    config.gen.defender_catch_radius, log_handle,
                                    keeper="eval_keeper" if config.eval_keeper else "keeper")
        if temp:
            os.replace(temp, log)
    finally:
        if temp:
            temp.unlink(missing_ok=True)
    text = report(stats, args.format, names=(policy_a.name, policy_b.name))
    _write_or_print(text, args.out)
    return 0


def cmd_aim_table(args: argparse.Namespace) -> int:
    config = _load_config(args)
    for flag, count in (("--distance-count", args.distance_count), ("--y-count", args.y_count)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1, got {count}")
    if args.mc_rollouts < 0:
        raise ValueError("--mc-rollouts must be >= 0")
    max_power = config.dynamics.max_power
    if args.mc_rollouts and not 0.0 <= args.mc_power <= max_power:
        raise ValueError(f"--mc-power must be in [0, {max_power!r}] ([dynamics] max_power), "
                         f"got {args.mc_power!r}")
    field, aim_config = config.field, config.aim
    for flag, value in (("--min-distance", args.min_distance),
                        ("--max-distance", args.max_distance), ("--y-half", args.y_half)):
        if not math.isfinite(value):
            raise ValueError(f"{flag}: non-finite value {value!r}")
    # The grid is a rectangle: all of it is on the pitch, in front of the goal
    # line and within the sigma horizon when its corners are.
    for flag, distance in (("--min-distance", args.min_distance),
                           ("--max-distance", args.max_distance)):
        corner = Vec2(field.goal_line_x - distance, args.y_half)
        if not field.contains(corner):
            raise ValueError(f"grid ball off the pitch at distance {distance!r} "
                             f"with --y-half {args.y_half!r}")
        if not corner.x < field.goal_line_x:
            raise ValueError(f"{flag} must be > 0 (the ball in front of the goal line), "
                             f"got {distance!r}")
        if not within_horizon(corner, field, aim_config):
            raise ValueError(f"{flag} {distance!r} with --y-half {args.y_half!r} puts a grid "
                             f"ball at or beyond the sigma horizon {aim_config.sigma_horizon!r} "
                             "([aim] sigma_horizon)")
    distances = np.linspace(args.min_distance, args.max_distance, args.distance_count)
    laterals = np.linspace(-args.y_half, args.y_half, args.y_count)
    targets = discretize_targets(field, aim_config)
    header = "ball_x,ball_y,target_y,p_left,p_right,p_goal"
    if args.mc_rollouts:
        header += ",mc_p_goal"
        # Safe to draw ahead: nothing else draws from this generator.
        uniforms = BlockUniforms(np.random.default_rng(config.seed))
    lines = [header]
    half_goal = field.goal_width / 2
    for distance in distances:
        for lateral in laterals:
            ball = Vec2(field.goal_line_x - float(distance), float(lateral))
            for target in targets:
                result = p_goal(ShotQuery(ball, target), field, aim_config)
                line = (f"{ball.x!r},{ball.y!r},{target.y!r},{result.p_left!r},"
                        f"{result.p_right!r},{result.p_goal!r}")
                if args.mc_rollouts:
                    goals = 0
                    state = kick(BallState.at_rest(ball), args.mc_power, math.atan2(
                        target.y - ball.y, target.x - ball.x), config.dynamics)
                    for _ in range(args.mc_rollouts):
                        crossed, lateral_at_line, _ = rollout_to_goal_line(
                            state, config.dynamics, field, uniforms)
                        if crossed and abs(lateral_at_line) <= half_goal:
                            goals += 1
                    line += f",{goals / args.mc_rollouts!r}"
                lines.append(line)
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, one per process. Each subcommand's name is
    its `args.command`; `main` finds the function that runs it by that name."""
    parser = argparse.ArgumentParser(
        prog="goalshot",
        description="Shot-decision engine and experiment harness for simulated 2D soccer.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an INI config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the run seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate a synthetic labeled scene CSV")
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("stats", parents=[common],
                       help="univariate statistics and per-feature AUC relevance")
    p.add_argument("--data", required=True, help="scene CSV path")

    p = sub.add_parser("train", parents=[common],
                       help="split, balance, and train the neural scorer")
    p.add_argument("--data", required=True, help="scene CSV path")
    p.add_argument("--model-out", required=True, help="output model path")
    p.add_argument("--report-out", help="write the training report JSON here")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--hidden-size", type=int, default=None)

    p = sub.add_parser("eval", parents=[common],
                       help="score a scene file and report ROC/KS2")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--data", required=True, help="scene CSV path")
    p.add_argument("--use-test-split", action="store_true",
                   help="evaluate only the seeded test partition of the file")
    p.add_argument("--roc-out", help="write the ROC curve CSV here")
    p.add_argument("--ks2-out", help="write the KS2 curve CSV here")

    p = sub.add_parser("compare", parents=[common],
                       help="paired policy-vs-policy experiment")
    p.add_argument("--model", help="model file for the mlp policy")
    p.add_argument("--data", help="scene CSV used to train the lda policy")
    p.add_argument("--policy-a", default="mlp", help="mlp, lda or center")
    p.add_argument("--policy-b", default="lda", help="mlp, lda or center")
    p.add_argument("--games", type=int, default=100)
    p.add_argument("--shots", type=int, default=10, help="shot episodes per game")
    p.add_argument("--lda-train-scenes", type=int, default=2000,
                   help="synthetic scenes for lda training when --data is absent")
    p.add_argument("--p-goal-threshold", type=float, default=None,
                   help="stage-one goal-probability filter (default 0.70)")
    p.add_argument("--score-threshold", type=float, default=None,
                   help="stage-two score bar for kicking (default 0.5)")
    p.add_argument("--format", default="text", help="text, csv or json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--episode-log", help="write per-episode JSON lines here")

    p = sub.add_parser("aim-table", parents=[common],
                       help="CSV grid of goal-entry probabilities")
    p.add_argument("--min-distance", type=float, default=8.0,
                   help="smallest ball distance from the goal line")
    p.add_argument("--max-distance", type=float, default=28.0)
    p.add_argument("--distance-count", type=int, default=5)
    p.add_argument("--y-half", type=float, default=12.0,
                   help="lateral ball range is [-y-half, +y-half]")
    p.add_argument("--y-count", type=int, default=5)
    p.add_argument("--mc-rollouts", type=int, default=0,
                   help="add a Monte-Carlo column using full ball-dynamics rollouts")
    p.add_argument("--mc-power", type=float, default=100.0,
                   help="kick power for the Monte-Carlo rollouts")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
