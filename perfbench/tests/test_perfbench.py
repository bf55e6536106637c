"""Tests of the benchmark itself: smoke runs, span nesting, output checks."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from goalshot import cli
from goalshot.aim import AimConfig, discretize_targets
from goalshot.experiment import MatchStats, report
from goalshot.geometry import FieldConfig, Vec2
from goalshot.policies import Action, KickDecision, PolicyConfig
from goalshot.scenes import KickScene

from checks import binomial_interval, check_decision, check_match, check_scene_csv
from tracing import Tracer, self_times_ns

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace, section):
    result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    original = cli.generate_synthetic_scenes
    tracer = Tracer()
    with tracer.installed():
        assert cli.main(["gen-data", "--n", "40", "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["train", "--data", str(tmp_path / "s.csv"), "--model-out",
                         str(tmp_path / "m.json"), "--max-epochs", "1"]) == 0
    assert cli.generate_synthetic_scenes is original
    spans = tracer.spans
    assert {"cli.gen-data", "scenes.generate_synthetic_scenes", "keeper.simulate_shot",
            "cli.train", "mlp.train"} <= {s[2] for s in spans}
    roots = [s for s in spans if s[1] < 0]
    assert len({s[0] for s in roots}) == len(roots)  # one trace per command
    for trace_id, parent, _, start, end in spans:
        assert start <= end
        if parent >= 0:
            p_trace, _, _, p_start, p_end = spans[parent]
            assert p_trace == trace_id and p_start <= start and end <= p_end
    assert all(t >= 0 for t in self_times_ns(spans))


def _scene(x: float) -> KickScene:
    return KickScene(time=0, ball=Vec2(x, 0.0), ball_velocity=Vec2(0.0, 0.0),
                     attacker=Vec2(x - 0.7, 0.0), attacker_body_angle=0.0,
                     keeper=Vec2(50.0, 0.5), defenders=(), kick_power=85.0,
                     target=Vec2(52.5, 0.0))


def test_decision_check_rejects_a_target_off_the_goal_line():
    field, aim, policy = FieldConfig(), AimConfig(), PolicyConfig()
    targets = discretize_targets(field, aim)
    good = KickDecision(Action.KICK, target=targets[7], neural_score=0.8, p_goal=0.9)
    args = (_scene(40.0), targets, field, aim, policy, True)
    assert check_decision(good, *args) == []
    off_line = replace(good, target=Vec2(50.0, targets[7].y))
    assert check_decision(off_line, *args)
    assert check_decision(replace(good, neural_score=0.4), *args)
    assert check_decision(KickDecision(Action.NO_KICK, out_of_range=True), *args)


def _stats(wins, losses, draws, kicks=10, goals=5):
    return MatchStats(kicks=kicks, kicks_mean_per_game=1.0, kicks_std=0.0, goals=goals,
                      goals_mean_per_game=0.5, goals_std=0.0, effectiveness=0.5,
                      wins=wins, losses=losses, draws=draws)


def _episode_log(games, shots, kicks, goals):
    lines = []
    for name in ("mlp", "lda"):
        for i in range(games * shots):
            result = "GOAL" if i < goals else "CAUGHT" if i < kicks else "NO_KICK"
            lines.append(json.dumps({"policy": name, "result": result}))
    return "\n".join(lines)


def test_match_check_rejects_a_game_count_mismatch():
    games, shots = 10, 2
    log = _episode_log(games, shots, kicks=10, goals=5)
    good = report((_stats(3, 2, 5), _stats(2, 3, 5)), "json", names=("mlp", "lda"))
    assert check_match(good, log, games, shots)[0] == []
    short = report((_stats(3, 2, 4), _stats(2, 3, 4)), "json", names=("mlp", "lda"))
    assert any("wins + losses + draws" in e for e in check_match(short, log, games, shots)[0])
    unpaired = report((_stats(3, 2, 5), _stats(3, 2, 5)), "json", names=("mlp", "lda"))
    assert any("pairing" in e for e in check_match(unpaired, log, games, shots)[0])


def test_scene_check_rejects_a_csv_with_a_missing_row(tmp_path):
    path = tmp_path / "scenes.csv"
    assert cli.main(["gen-data", "--n", "40", "--out", str(path), "--seed", "2"]) == 0
    assert check_scene_csv(path, 40)[0] == []
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert any("39 rows, expected 40" in e for e in check_scene_csv(path, 40)[0])


@pytest.mark.parametrize("n,p", [(25, 0.0), (25, 0.37), (25, 1.0), (40, 0.02), (5, 0.5)])
def test_binomial_interval_matches_scipy(n, p):
    from scipy.stats import binom

    low, high = binom.interval(1 - 1e-6, n, p)
    assert binomial_interval(n, p, 1e-6) == (int(low), int(high))
