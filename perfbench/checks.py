"""Output checks: each turns a wrong output into a list of error strings.

Every check takes the program's outputs (files, stdout text, decisions)
and returns the problems it found, empty when the output is correct, plus
the input-mix figures it read on the way. The benchmark counts an
operation as failed when its check returns any error.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from goalshot.aim import within_horizon
from goalshot.experiment import stats_pair_from_json
from goalshot.mlp import load_model
from goalshot.policies import Action
from goalshot.scenes import Label, load_scenes

# Per-cell false-alarm rate of the Monte-Carlo check. A cell fails when
# its goal count lies outside the central (1 - MC_ALPHA) binomial interval
# around the analytic p_goal; with 15 cells in each of 16 tables a correct
# run fails with probability about 2.4e-4.
MC_ALPHA = 1e-6

_EVAL_LINE = re.compile(r"^n=(\d+) auc=(\S+) ks2=(\S+) ks2_threshold=(\S+)$")


def check_scene_csv(path: Path, expected_rows: int) -> tuple[list[str], dict]:
    """The CSV reloads through load_scenes with the requested row count
    and both labels present."""
    try:
        scenes = load_scenes(path)
    except (ValueError, OSError) as exc:
        return [f"{path.name}: load_scenes failed: {exc}"], {}
    errors = []
    if len(scenes) != expected_rows:
        errors.append(f"{path.name}: {len(scenes)} rows, expected {expected_rows}")
    goals = sum(1 for s in scenes if s.label is Label.GOAL)
    if goals == 0 or goals == len(scenes):
        errors.append(f"{path.name}: only one label present ({goals} goals "
                      f"in {len(scenes)} rows)")
    return errors, {"rows": len(scenes),
                    "goal_frac": goals / len(scenes) if scenes else None}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Central (1 - alpha) interval of Binomial(n, p), as
    scipy.stats.binom.interval gives it: the smallest counts whose CDF
    reaches alpha / 2 and 1 - alpha / 2. Computed here so that the
    benchmark process does not import scipy.stats for its own sake."""
    cdf = list(itertools.accumulate(math.comb(n, k) * p**k * (1.0 - p)**(n - k)
                                    for k in range(n + 1)))
    low = next(k for k, c in enumerate(cdf) if c >= alpha / 2)
    high = next((k for k, c in enumerate(cdf) if c >= 1.0 - alpha / 2), n)
    return low, high


def check_aim_table(path: Path, reference: Path, rollouts: int) -> tuple[list[str], dict]:
    """The Monte-Carlo table repeats the analytic columns of the reference
    table exactly, and every mc_p_goal cell agrees with its analytic p_goal
    within the binomial interval set by MC_ALPHA."""
    try:
        rows, ref_rows = _read_csv(path), _read_csv(reference)
    except OSError as exc:
        return [f"aim table unreadable: {exc}"], {}
    if len(rows) != len(ref_rows):
        return [f"{path.name}: {len(rows)} rows, expected {len(ref_rows)}"], {}
    errors = []
    analytic = ("ball_x", "ball_y", "target_y", "p_left", "p_right", "p_goal")
    for line, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        if any(row.get(k) != ref[k] for k in analytic):
            errors.append(f"{path.name} line {line}: analytic columns differ "
                          "from the reference table")
            continue
        try:
            mc = float(row["mc_p_goal"])
        except (KeyError, TypeError, ValueError):
            errors.append(f"{path.name} line {line}: missing or bad mc_p_goal")
            continue
        p = min(max(float(ref["p_goal"]), 0.0), 1.0)
        k = round(mc * rollouts)
        low, high = binomial_interval(rollouts, p, MC_ALPHA)
        if not low <= k <= high:
            errors.append(f"{path.name} line {line}: {k}/{rollouts} goals, "
                          f"analytic p_goal {p:.4f} allows [{low}, {high}]")
    return errors, {"cells": len(rows), "rollouts": len(rows) * rollouts}


def check_model(path: Path) -> tuple[list[str], dict]:
    """The model file loads and every parameter is finite."""
    try:
        params = load_model(path)
    except (ValueError, OSError) as exc:
        return [f"model does not load: {exc}"], {}
    arrays = [*params.weights, *params.biases, params.norm_mean, params.norm_std]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return ["model has non-finite parameters"], {}
    return [], {"layer_sizes": list(params.layer_sizes)}


def check_eval_output(stdout: str) -> tuple[list[str], dict]:
    """eval prints one line with finite auc and ks2 in [0, 1]."""
    lines = stdout.strip().splitlines()
    match = _EVAL_LINE.match(lines[-1]) if lines else None
    if not match:
        return [f"eval output not recognised: {stdout.strip()[:200]!r}"], {}
    n, auc, ks2 = int(match[1]), float(match[2]), float(match[3])
    errors = [f"eval {name}={value} is not a finite value in [0, 1]"
              for name, value in (("auc", auc), ("ks2", ks2))
              if not (math.isfinite(value) and 0.0 <= value <= 1.0)]
    return errors, {"heldout_n": n, "heldout_auc": auc, "heldout_ks2": ks2}


def check_decision(decision, scene, targets, field, aim_config, policy_config,
                   neural: bool) -> list[str]:
    """A KICK aims at one of the discretized targets with p_goal at or above
    the stage-one threshold (and, for the neural policy, a score above the
    stage-two bar); out_of_range is set exactly when the ball is beyond the
    sigma horizon."""
    errors = []
    in_range = within_horizon(scene.ball, field, aim_config)
    if decision.out_of_range == in_range:
        errors.append(f"out_of_range={decision.out_of_range} but within_horizon={in_range}")
    if decision.action is Action.KICK:
        if decision.target not in targets:
            errors.append(f"KICK target {decision.target} is not a discretized target")
        if decision.p_goal is None or not decision.p_goal >= policy_config.p_goal_threshold:
            errors.append(f"KICK with p_goal {decision.p_goal} below the threshold")
        if neural and (decision.neural_score is None
                       or not decision.neural_score > policy_config.score_threshold):
            errors.append(f"KICK with neural score {decision.neural_score} "
                          "not above the stage-two bar")
    elif decision.action is not Action.NO_KICK:
        errors.append(f"unknown action {decision.action!r}")
    return errors


def check_match(report_text: str, episode_log: str, games: int,
                shots: int) -> tuple[list[str], dict]:
    """The JSON report parses, every side's wins + losses + draws equals the
    game count, the pairing holds, kicks never exceed episodes, and the
    episode log agrees with the report."""
    try:
        pair = stats_pair_from_json(report_text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc}"], {}
    a, b = pair
    errors = []
    for side, stats in zip("ab", pair):
        if stats.wins + stats.losses + stats.draws != games:
            errors.append(f"policy {side}: wins + losses + draws = "
                          f"{stats.wins + stats.losses + stats.draws}, expected {games}")
        if not 0 <= stats.goals <= stats.kicks <= games * shots:
            errors.append(f"policy {side}: goals {stats.goals}, kicks {stats.kicks} "
                          f"for {games * shots} episodes")
    if (a.wins, a.losses, a.draws) != (b.losses, b.wins, b.draws):
        errors.append("pairing broken: wins/losses/draws of the two policies disagree")
    try:
        episodes = [json.loads(line) for line in episode_log.splitlines() if line]
    except json.JSONDecodeError as exc:
        return errors + [f"episode log does not parse: {exc}"], {}
    if len(episodes) != 2 * games * shots:
        return errors + [f"episode log has {len(episodes)} lines, "
                         f"expected {2 * games * shots}"], {}
    names = [episodes[0]["policy"], episodes[1]["policy"]]
    mix = {}
    for name, stats in zip(names, pair):
        results = Counter(e["result"] for e in episodes if e["policy"] == name)
        kicks = sum(n for r, n in results.items() if r != "NO_KICK")
        if kicks != stats.kicks or results["GOAL"] != stats.goals:
            errors.append(f"episode log of {name} disagrees with the report")
        mix[name] = {"kick_frac": kicks / (games * shots),
                     **{r.lower(): results[r] for r in ("GOAL", "CAUGHT", "WIDE")}}
    return errors, mix
