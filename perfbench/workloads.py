"""The benchmark's workloads and the rounds that execute them.

Why each workload exists (see also BENCHMARK.json):

- label: gen-data (scenes labeled by keeper.simulate_shot) and aim-table
  --mc-rollouts (bare dynamics.rollout_to_goal_line). The simulation core
  does almost all the work, in both of its uses (with and without keeper
  and defenders), so a change that speeds one and slows the other shows.
- fit: train, then eval --use-test-split, on scene CSVs built in set-up.
  Online backprop in mlp dominates: per-example gradients plus a batched
  score_batch, against the one-row forward calls of decide.
- decide: MlpPolicy.decide and LdaPolicy.decide back to back over scenes
  whose ball distance runs from near the goal to beyond the sigma horizon,
  so the stage-one survivor count varies and the out-of-range path runs.
  aim + scenes.extract_features + mlp.forward + policies, no simulation,
  in-process as an embedding agent calls it (one closed-loop caller).
- match: the paper's mlp-vs-lda experiment, where decisions feed the shot
  simulator and experiment.py runs its per-episode seeding, aggregation
  and report, one game at a time.

Every workload runs in this process. label and fit run CLI commands
through goalshot.cli.main, as the goalshot console script does; set-up
runs in fresh child processes, one at a time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from goalshot import cli, experiment
from goalshot.aim import discretize_targets, within_horizon
from goalshot.config import RunConfig
from goalshot.mlp import load_model
from goalshot.policies import Action, LdaPolicy, MlpPolicy, lda_train, stage_one_survivors
from goalshot.scenes import load_scenes

from checks import (check_aim_table, check_decision, check_eval_output,
                    check_match, check_model, check_scene_csv)

HERE = Path(__file__).resolve().parent

# Input sizes. "full" is what the benchmark measures; "tiny" only proves the
# plumbing in the benchmark's own tests. train_scenes and the default
# training (train_args empty) are the README's `gen-data --n 5000` and
# `train`: a smaller or shorter-trained model kicks less often and scores
# fewer goals, which changes the mix decide and match measure.
SIZES = {
    "full": dict(setup_repeats=3, min_rounds=3, label_sets=16, label_set_scenes=15,
                 mc_rollouts=8, fit_sets=16, fit_set_scenes=100,
                 fit_epochs=5, train_scenes=5000, train_args=[], decide_scenes=800,
                 games=40, shots=10),
    "tiny": dict(setup_repeats=1, min_rounds=1, label_sets=2, label_set_scenes=30,
                 mc_rollouts=5, fit_sets=2, fit_set_scenes=60, fit_epochs=2,
                 train_scenes=80, train_args=["--max-epochs", "2"], decide_scenes=40,
                 games=3, shots=4),
}

# Ball x from 5 m (47.5 m from the goal line, beyond the 45 m sigma horizon)
# to the default 45.5 m: about 10-15 % of scenes are out of range and the
# stage-one survivor count spreads over 0..15.
DECIDE_GENERATOR_INI = "[gen]\nx_min = 5.0\n"


@dataclass
class Context:
    seed: int
    size: dict
    work: Path
    child_env: dict
    deadline: float  # time.monotonic() by which set-up must have ended


@dataclass
class Round:
    """One repetition of a workload's unit of work."""

    seconds: float
    latencies_ns: list[int]  # one per operation, in order
    attempted: int
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    step_ns: dict[str, list[int]] = field(default_factory=dict)  # per command name
    ref_ns: list[int] = field(default_factory=list)  # Gauge samples taken in the round


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __sub__(self, other: "_Point") -> "_Point":
        return _Point(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


_REFERENCE_WEIGHTS = np.random.default_rng(12345).normal(size=(22, 5))


def reference_work() -> float:
    """A fixed computation in goalshot's style: small frozen-dataclass
    vector arithmetic, float math, a 22-feature list and a one-row numpy
    matrix product with tanh. It runs no goalshot code, so a change to the
    program cannot move it; it takes about half a millisecond on a 2.1 GHz
    Xeon."""
    goal, total = _Point(52.5, 0.0), 0.0
    for i in range(60):
        d = goal - _Point(i * 0.5, (i % 7) - 3.0)
        total += math.atan2(d.y, d.x) * math.exp(-d.norm() / 45.0)
        features = [d.x, d.y, d.norm(), *(float(i % k) for k in range(1, 20))]
        total += float(np.tanh(np.asarray(features) @ _REFERENCE_WEIGHTS)[0])
    return total


class Gauge:
    """Times reference_work() between operations, at most once per 10 ms
    of round time, so that every round holds samples of the machine's speed
    while it ran (about 5 % of the round).

    A shared machine changes speed by up to 1.8x for stretches of seconds
    to minutes, longer than a run, so wall times of one operation differ
    between runs by more than any regression bound. op_ref_ratio divides
    each operation's time by these samples, which cancels the speed of the
    moment.
    """

    INTERVAL_NS = 10_000_000

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._next = 0

    def tick(self) -> None:
        start = time.perf_counter_ns()
        if start >= self._next:
            reference_work()
            end = time.perf_counter_ns()
            self.samples.append(end - start)
            self._next = end + self.INTERVAL_NS


def run_setup(ctx: Context, workload) -> tuple[Path, list[float], list[float], list[str]]:
    """Build the workload's inputs setup_repeats times, each in a fresh child.

    Returns the directory of the last build, the wall time and the
    goalshot.cli import time of each build, and any errors. Every build
    must give byte-identical files.
    """
    seconds, imports, digests = [], [], []
    logs = ctx.work / "logs"
    for i in range(ctx.size["setup_repeats"]):
        target = ctx.work / f"setup{i}"
        target.mkdir()
        times = logs / f"setup{i}.times"
        argv = [sys.executable, str(HERE / "child.py"), str(times),
                json.dumps(workload.setup_commands(ctx, target))]
        with open(logs / f"setup{i}.out", "wb") as out, \
                open(logs / f"setup{i}.err", "wb") as err:
            start = time.perf_counter()
            code = subprocess.run(argv, env=ctx.child_env, stdout=out, stderr=err,
                                  timeout=max(ctx.deadline - time.monotonic(), 1.0)).returncode
            seconds.append(time.perf_counter() - start)
        if code:
            text = (logs / f"setup{i}.err").read_text(encoding="utf-8")
            raise RuntimeError(f"set-up exited with {code}: {text.strip()[-500:]}")
        imports.append(json.loads(times.read_text(encoding="utf-8"))["import_s"])
        digests.append({p.name: _digest(p) for p in sorted(target.iterdir())})
    errors = [] if all(d == digests[0] for d in digests) else [
        "set-up is not deterministic: repeated builds gave different files"]
    return target, seconds, imports, errors


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_command(argv: list[str]) -> tuple[int, int, str]:
    """One goalshot CLI command through cli.main in this process, so that
    traced spans nest under it; returns (nanoseconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter_ns() - start, code, out.getvalue()


def _seed(seed: int) -> list[str]:
    return ["--seed", str(seed)]


class Workload:
    """A workload whose round is a pass over many short operations, each
    repeated once per round, in this process."""

    warmup_rounds = 1  # the first pass fills caches and is checked in full

    def op_best_s(self, rounds: list[Round]) -> float:
        """Median over operations of each operation's fastest repetition."""
        return statistics.median(map(min, zip(*(r.latencies_ns for r in rounds)))) * 1e-9

    def op_ref_ratio(self, rounds: list[Round]) -> float:
        """Median over operations of each operation's median time over its
        repetitions, where each repetition's time is divided by the median
        reference_work() time of its round."""
        scaled = [[ns / statistics.median(r.ref_ns) for ns in r.latencies_ns]
                  for r in rounds]
        return statistics.median(map(statistics.median, zip(*scaled)))


@dataclass(frozen=True)
class Step:
    """One CLI command of an operation, with the check of its output."""

    name: str
    argv: list[str]
    outputs: tuple[Path, ...]  # hashed with stdout to prove rounds repeat bit for bit
    check: Callable[[str], tuple[list[str], dict]]  # stdout -> (errors, input mix)


class CommandWorkload(Workload):
    """A workload whose operation is a short sequence of CLI commands.

    Every round runs the same operations on the same inputs, so each
    operation's outputs must repeat byte for byte; the first round is
    checked in full and its digests are the reference for the rest.
    """

    name = ""

    def ops(self, ctx: Context, setup: Path, out: Path) -> list[list[Step]]:
        raise NotImplementedError

    def prepare(self, ctx: Context, setup: Path) -> dict:
        return {"setup": setup, "first_pass": None, "info": []}

    def round(self, ctx: Context, state: dict) -> Round:
        out = ctx.work / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        ops = self.ops(ctx, state["setup"], out)
        clock = time.perf_counter_ns
        latencies, runs = [], []
        step_ns = defaultdict(list)
        gauge = Gauge()
        for op in ops:
            gauge.tick()
            t0 = clock()
            results = [run_command(step.argv) for step in op]
            latencies.append(clock() - t0)
            runs.append(results)
            for step, (ns, _, _) in zip(op, results):
                step_ns[step.name].append(ns)
        gauge.tick()
        result = Round(sum(latencies) * 1e-9, latencies, sum(map(len, ops)),
                       step_ns=dict(step_ns), ref_ns=gauge.samples)
        digests = []
        for i, (op, results) in enumerate(zip(ops, runs)):
            digest = hashlib.sha256()
            for step, (_, code, stdout) in zip(op, results):
                errors = [f"exit code {code}"] if code else []
                if not errors and state["first_pass"] is None:
                    found, info = step.check(stdout)
                    errors += found
                    state["info"].append(info)
                digest.update(stdout.encode())
                for path in step.outputs:
                    digest.update(path.read_bytes() if path.exists() else b"")
                result.failed += bool(errors)
                result.errors += [f"{self.name}/op {i} {step.name}: {e}" for e in errors]
            digests.append(digest.hexdigest())
        if state["first_pass"] is None:
            state["first_pass"] = digests
        else:
            for i, (now, ref) in enumerate(zip(digests, state["first_pass"])):
                if now != ref:
                    result.failed += 1
                    result.errors.append(f"{self.name}/op {i}: output differs from "
                                         "the first pass")
        return result

    def _best_step_s(self, rounds: list[Round], name: str) -> float:
        """Median over operations of the step's fastest repetition."""
        return statistics.median(
            map(min, zip(*(r.step_ns[name] for r in rounds)))) * 1e-9


class Label(CommandWorkload):
    """One operation per seed offset i: gen-data of label_set_scenes scenes,
    then the Monte-Carlo aim table of one ball position, both seeded with
    seed + i. Operations are short so that each repeats many times in a
    run. The ball positions are stratified over aim-table's default range
    (8-28 m from the goal line, lateral -12..12 m) with a seeded jitter, so
    that every seed has near and far shots."""

    name = "label"

    def _table(self, ctx: Context, i: int) -> list[str]:
        rng = np.random.default_rng([ctx.seed, i])
        n = ctx.size["label_sets"]
        distance = 8.0 + 20.0 * (i + rng.random()) / n
        lateral = -12.0 + 24.0 * ((i * 7 % n) + rng.random()) / n
        # With one point, aim-table's lateral grid is [-y_half].
        return ["aim-table", "--min-distance", f"{distance:.3f}", "--max-distance",
                f"{distance:.3f}", "--distance-count", "1", f"--y-half={-lateral:.3f}",
                "--y-count", "1", *_seed(ctx.seed + i)]

    def setup_commands(self, ctx, setup):
        # The analytic tables the Monte-Carlo tables must repeat and agree with.
        return [[*self._table(ctx, i), "--out", str(setup / f"aim_reference{i}.csv")]
                for i in range(ctx.size["label_sets"])]

    def ops(self, ctx, setup, out):
        n, rollouts = ctx.size["label_set_scenes"], ctx.size["mc_rollouts"]
        ops = []
        for i in range(ctx.size["label_sets"]):
            scenes, table = out / f"scenes{i}.csv", out / f"aim{i}.csv"
            reference = setup / f"aim_reference{i}.csv"
            ops.append([
                Step("gen-data", ["gen-data", "--n", str(n), "--out", str(scenes),
                                  *_seed(ctx.seed + i)],
                     (scenes,), lambda stdout, scenes=scenes: check_scene_csv(scenes, n)),
                Step("aim-table", [*self._table(ctx, i), "--mc-rollouts", str(rollouts),
                                   "--out", str(table)],
                     (table,), lambda stdout, table=table, reference=reference:
                     check_aim_table(table, reference, rollouts)),
            ])
        return ops

    def summarize(self, ctx, state, rounds):
        info = state["info"]
        cells = next((i["cells"] for i in info if "cells" in i), 0)
        goal_fracs = [i["goal_frac"] for i in info if i.get("goal_frac") is not None]
        return {
            "label_scenes_per_s": (ctx.size["label_set_scenes"]
                                   / self._best_step_s(rounds, "gen-data"), "scenes/s"),
            "mc_rollouts_per_s": (cells * ctx.size["mc_rollouts"]
                                  / self._best_step_s(rounds, "aim-table"), "rollouts/s"),
        }, {"sets": ctx.size["label_sets"], "scenes_per_set": ctx.size["label_set_scenes"],
            "goal_frac": statistics.fmean(goal_fracs) if goal_fracs else None,
            "mc_cells": cells, "mc_rollouts_per_cell": ctx.size["mc_rollouts"]}


class Fit(CommandWorkload):
    """train then eval --use-test-split, one operation per scene CSV built
    in set-up (fit_sets CSVs of fit_set_scenes scenes each)."""

    name = "fit"

    def setup_commands(self, ctx, setup):
        return [["gen-data", "--n", str(ctx.size["fit_set_scenes"]),
                 "--out", str(setup / f"scenes{i}.csv"), *_seed(ctx.seed + i)]
                for i in range(ctx.size["fit_sets"])]

    def ops(self, ctx, setup, out):
        # Early stopping would make the epoch count, and so the work, a
        # function of the seed (11 to 33 epochs over seeds 1..8 at 1000
        # scenes); patience = max_epochs runs the same code path for a
        # fixed number of epochs.
        epochs = str(ctx.size["fit_epochs"])
        ops = []
        for i in range(ctx.size["fit_sets"]):
            data, model = setup / f"scenes{i}.csv", out / f"model{i}.json"
            ops.append([
                Step("train", ["train", "--data", str(data), "--model-out", str(model),
                               "--max-epochs", epochs, "--patience", epochs,
                               *_seed(ctx.seed)],
                     (model,), lambda stdout, model=model: check_model(model)),
                Step("eval", ["eval", "--model", str(model), "--data", str(data),
                              "--use-test-split", *_seed(ctx.seed)],
                     (), check_eval_output),
            ])
        return ops

    def summarize(self, ctx, state, rounds):
        heldout = [i for i in state["info"] if "heldout_auc" in i] or [{}]
        return {
            "fit_s": (self.op_best_s(rounds), "s"),
            "heldout_auc": (statistics.fmean(h.get("heldout_auc", 0.0) for h in heldout), "1"),
            "heldout_ks2": (statistics.fmean(h.get("heldout_ks2", 0.0) for h in heldout), "1"),
        }, {"sets": ctx.size["fit_sets"], "scenes_per_set": ctx.size["fit_set_scenes"],
            "epochs": ctx.size["fit_epochs"]}


def _train_commands(ctx: Context, setup: Path) -> list[list[str]]:
    """The README's model: gen-data, then train with its default settings."""
    return [["gen-data", "--n", str(ctx.size["train_scenes"]),
             "--out", str(setup / "scenes.csv"), *_seed(ctx.seed)],
            ["train", "--data", str(setup / "scenes.csv"),
             "--model-out", str(setup / "model.json"), *ctx.size["train_args"],
             *_seed(ctx.seed)]]


def _policies(setup: Path, config: RunConfig) -> tuple[MlpPolicy, LdaPolicy]:
    """The mlp and lda policies compare would build from the set-up files."""
    field_, aim, policy = config.field, config.aim, config.policy
    return (MlpPolicy(load_model(setup / "model.json"), field_, aim, policy),
            LdaPolicy(lda_train(load_scenes(setup / "scenes.csv", field_), field_),
                      field_, aim, policy))


class Match(Workload):
    """The paired mlp-vs-lda experiment, one game at a time.

    Each operation is experiment.run_experiment for one game of `shots`
    episodes per policy (scene generation, per-episode SeedSequence
    seeding, shot simulation, aggregation) plus its JSON report, with the
    policies compare builds from the set-up model and scene CSV. A round is
    one pass over `games` games, each with its own seed.
    """

    name = "match"

    def setup_commands(self, ctx, setup):
        return _train_commands(ctx, setup)

    def prepare(self, ctx, setup):
        config = RunConfig()
        mlp, lda = _policies(setup, config)
        seeds = [int(np.random.SeedSequence([ctx.seed, game]).generate_state(1)[0])
                 for game in range(ctx.size["games"])]
        return {"config": config, "mlp": mlp, "lda": lda, "seeds": seeds,
                "first_pass": None}

    def round(self, ctx, state):
        config, shots = state["config"], ctx.size["shots"]
        clock = time.perf_counter_ns
        latencies, outputs = [], []
        gauge = Gauge()
        for seed in state["seeds"]:
            log = io.StringIO()
            gauge.tick()
            t0 = clock()
            stats = experiment.run_experiment(
                state["mlp"], state["lda"], 1, shots, config.eval_keeper or config.keeper,
                config.gen, config.dynamics, config.field, seed,
                config.gen.defender_catch_radius, episode_log=log)
            text = experiment.report(stats, "json", names=("mlp", "lda"))
            latencies.append(clock() - t0)
            outputs.append((text, log.getvalue()))
        gauge.tick()
        result = Round(sum(latencies) * 1e-9, latencies, len(outputs), ref_ns=gauge.samples)
        if state["first_pass"] is None:
            state["first_pass"] = outputs
            mixes = []
            for game, (text, log) in enumerate(outputs):
                errors, mix = check_match(text, log, 1, shots)
                result.errors += [f"match/game {game}: {e}" for e in errors]
                result.failed += bool(errors)
                mixes.append(mix)
            state["mix"] = {name: {key: sum(m[name][key] for m in mixes if m) for key in
                                   ("kick_frac", "goal", "caught", "wide")}
                            for name in ("mlp", "lda")}
            for totals in state["mix"].values():
                totals["kick_frac"] /= len(outputs)
        else:
            bad = [game for game, (out, ref) in enumerate(zip(outputs, state["first_pass"]))
                   if out != ref]
            result.failed = len(bad)
            result.errors = [f"match/game {g}: output differs from the first pass"
                             for g in bad]
        return result

    def summarize(self, ctx, state, rounds):
        episodes = 2 * ctx.size["games"] * ctx.size["shots"]
        return {
            "episodes_per_s": (episodes / statistics.median(r.seconds for r in rounds),
                               "episodes/s"),
        }, {"games": ctx.size["games"], "shots": ctx.size["shots"],
            "policies": state["mix"]}


class Decide(Workload):
    """Decisions; a round is one pass over every scene, and an operation
    is one mlp decision followed by one lda decision on the same scene."""

    name = "decide"

    def setup_commands(self, ctx, setup):
        config = ctx.work / "decide_generator.ini"
        config.write_text(DECIDE_GENERATOR_INI, encoding="utf-8")
        return [*_train_commands(ctx, setup),
                ["gen-data", "--config", str(config), "--n", str(ctx.size["decide_scenes"]),
                 "--out", str(setup / "decide_scenes.csv"), *_seed(ctx.seed + 1)]]

    def prepare(self, ctx, setup):
        config = RunConfig()
        field_, aim, policy = config.field, config.aim, config.policy
        scenes = load_scenes(setup / "decide_scenes.csv", field_)
        survivors = [len(stage_one_survivors(s.ball, field_, aim, policy))
                     for s in scenes if within_horizon(s.ball, field_, aim)]
        histogram = [survivors.count(k) for k in range(aim.target_count + 1)]
        mlp, lda = _policies(setup, config)
        return {
            "scenes": scenes,
            "mlp": mlp,
            "lda": lda,
            "targets": discretize_targets(field_, aim),
            "first_pass": None,
            "mix": {"scenes": len(scenes),
                    "out_of_range_frac": 1 - len(survivors) / len(scenes),
                    "survivor_histogram": histogram},
        }

    def round(self, ctx, state):
        mlp, lda = state["mlp"], state["lda"]
        clock = time.perf_counter_ns
        latencies, decisions = [], []
        gauge = Gauge()
        for scene in state["scenes"]:
            gauge.tick()
            t0 = clock()
            a = mlp.decide(scene)
            b = lda.decide(scene)
            latencies.append(clock() - t0)
            decisions.append((a, b))
        gauge.tick()
        result = Round(sum(latencies) * 1e-9, latencies, 2 * len(decisions),
                       ref_ns=gauge.samples)
        if state["first_pass"] is None:
            state["first_pass"] = decisions
            bad = self._check(state, decisions)
            kicks = [sum(d.action is Action.KICK for d in side) / len(decisions)
                     for side in zip(*decisions)]
            state["mix"]["kick_frac"] = dict(zip(("mlp", "lda"), kicks))
        else:
            bad = [f"scene {i} {policy}: decision differs from the first pass"
                   for i, (pair, ref) in enumerate(zip(decisions, state["first_pass"]))
                   for policy, d, r in zip(("mlp", "lda"), pair, ref) if d != r]
        result.failed = len(bad)  # one entry per failed decision
        result.errors = [f"decide/{e}" for e in bad]
        return result

    def _check(self, state, decisions) -> list[str]:
        bad = []
        mlp = state["mlp"]
        for i, (scene, pair) in enumerate(zip(state["scenes"], decisions)):
            for policy, decision in zip(("mlp", "lda"), pair):
                found = check_decision(decision, scene, state["targets"], mlp.field,
                                       mlp.aim_config, mlp.policy_config,
                                       neural=policy == "mlp")
                if found:
                    bad.append(f"scene {i} {policy}: {'; '.join(found)}")
        return bad

    def summarize(self, ctx, state, rounds):
        latencies = sorted(ns for r in rounds for ns in r.latencies_ns)
        calls = sum(r.attempted for r in rounds)
        return {
            "decide_p50_us": (percentile(latencies, 50) / 1e3, "us"),
            "decide_p99_us": (percentile(latencies, 99) / 1e3, "us"),
            "decide_samples": (len(latencies), "count"),
            "decisions_per_s": (calls / sum(r.seconds for r in rounds), "1/s"),
        }, state["mix"]


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


WORKLOADS = {w.name: w for w in (Label(), Fit(), Decide(), Match())}
