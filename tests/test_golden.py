"""Golden-output pins for the CLI pipeline.

Each test runs commands through `goalshot.cli.main` in-process and pins
the sha256 of the bytes they write, to a file or, for eval and stats, to
stdout. The eval, stats and compare reports are also kept as text, which
is compared first, so that a failing pin shows which numbers moved. A
refactor that claims no behaviour change must leave every pin as it is
(text and hash); a deliberate behaviour change updates the pin in the same
change and says why. The pins hold for one numpy build on x86-64 CPUs with
AVX2. No product on the pinned paths goes through BLAS, so the kernels
OpenBLAS picks for the CPU do not matter, but numpy's tanh kernel is chosen
by the SIMD extensions found and rounds differently below AVX2 (other
architectures are untested).
"""

import hashlib
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goalshot.cli
from goalshot.cli import main
from goalshot.config import RunConfig
from goalshot.mlp import load_model
from goalshot.policies import LdaPolicy, MlpPolicy, NaiveCenterPolicy, lda_train
from goalshot.scenes import generate_synthetic_scenes, load_scenes

GEN_DATA_SHA256 = "b60aa2ef55b59e3952833ae0f47df82724de1929481ba1ecfa3db43ec6ec2007"
MODEL_SHA256 = "857d85948a4437b83077eb05d64ac041f86d5e6d1d4f70098016d4d2336b2178"
AIM_TABLE_SHA256 = "48cf079f68e6c2e270d8489a89544365018b9ceafecafc43d7ae2d65d1e79e8a"
COMPARE_SHA256 = "1a078b5b3f0949d2f029225f5926e7718f0145a1eb610b6d76e6c803274452d1"
COMPARE_GENERATED_SHA256 = "3286444862ab70bcde280080cc6e248932e08bc2d34f49f5d16ef1dd904e6122"
EPISODE_LOG_SHA256 = "ebfa1f8272a55fc26aca8d5e0be58cd7bab56020035afa44d903fa6c9df7edf6"
COMPARE_CENTER_SHA256 = "00e28c5a43582c0dd5644701285a389df7fa9b16cf194dbb4bdafe6778209ccb"
EPISODE_LOG_CENTER_SHA256 = "aa4b66e0ab4e82436164564fc259d10261d597c31578ce930422c8701a930cfa"
DECISIONS_SHA256 = "9b1b2ad76be73f0a06324c159e4c6ebfae8e341130e62e9c9aa5fd862abd2c95"
EVAL_SHA256 = "aeaad022de4de4177ba7fc74092c722ef9462f585039fed2af11fe07daafa07f"
STATS_SHA256 = "821ec09178eef386d3304fb33befe7badd2f3e0052e18447d392b88556a9efd1"
ROC_SHA256 = "a4d47726de13a8ed762b4c90ff5489f71a6f23574badef8188ca47cb659de172"
KS2_SHA256 = "1b1e8694f976a5acc6274d16eed03f2ded0ab84657debd885d387061e20b4e46"

# repr of the LdaModel that compare fits: on the gen-data --n 5000 --seed 1
# CSV given as --data, and on the 2000 scenes it generates at seed 0 without.
LDA_CSV_REPR = ("LdaModel(weight_distance=-0.00015573239672848522, "
                "weight_angle=2.4619687586831103, bias=-0.7697620674006245)")
LDA_GENERATED_REPR = ("LdaModel(weight_distance=0.0031299612837033222, "
                      "weight_angle=2.502683579238594, bias=-0.8377215857991392)")

# The text behind EVAL, STATS, COMPARE, COMPARE_CENTER and COMPARE_GENERATED,
# compared before the hash, so that a failing pin shows which numbers moved.
EVAL_TEXT = "n=125 auc=0.797619 ks2=0.501553 ks2_threshold=0.446690\n"
STATS_TEXT = """\
500 scenes
feature                                  mean        std     median         p1        p99  missing     auc
----------------------------------------------------------------------------------------------------------
ball_x                                38.1984     4.2934    38.3757    30.7052    45.2773    0.000   0.579
ball_y                                 0.2437     8.5045     0.3176   -14.3184    14.7036    0.000   0.527
keeper_x                              50.1352     0.9190    50.1327    48.5250    51.6606    0.000   0.515
keeper_y                              -0.0475     3.4001     0.0909    -7.0100     6.7622    0.000   0.520
keeper_distance_to_ball               14.1358     4.5079    14.0301     5.2787    22.7260    0.000   0.584
keeper_abs_offset_from_shot_line       2.7340     1.9694     2.3831     0.0310     8.0162    0.000   0.778
angle_ball_keeper_destiny              0.2157     0.1713     0.1894     0.0021     0.7343    0.000   0.808
angle_attacker_vision                  0.7305     0.2173     0.6780     0.4510     1.3426    0.000   0.594
attacker_body_to_shot_angle            0.1966     0.1137     0.1960     0.0108     0.3973    0.000   0.562
ball_distance_to_target               16.8868     4.5566    17.0841     7.8188    26.1329    0.000   0.634
ball_distance_to_near_post            14.9587     4.1312    14.8378     7.5291    22.1691    0.000   0.583
ball_distance_to_far_post             20.7453     4.2181    21.1310    11.7663    28.9446    0.000   0.599
kick_power                            84.5927     8.3688    84.1389    70.6285    99.5753    0.000   0.588
target_lateral                         0.1937     3.1765     0.2865    -5.4260     5.4266    0.000   0.520
filtered_defender_count                2.4360     1.6822     2.0000     0.0000     5.0000    0.000   0.606
def1_distance_to_ball                 22.5667    36.9146     6.3526     1.2402   105.0000    0.000   0.595
def1_abs_offset_from_shot_line         9.5845    13.9023     3.7576     0.0735    40.3200    0.000   0.670
def1_distance_to_goal_center          28.4688    34.4235    14.4207     2.8924   105.0000    0.000   0.531
def2_distance_to_ball                 41.5780    45.8249    10.8372     3.0451   105.0000    0.000   0.571
def2_abs_offset_from_shot_line        16.7751    17.1356     6.4190     0.3184    40.3200    0.000   0.617
def2_distance_to_goal_center          43.5830    44.4456    15.3567     3.2733   105.0000    0.000   0.573
def3_distance_to_ball                 59.6658    47.4514   105.0000     4.3938   105.0000    0.000   0.571
"""
COMPARE_TEXT = """\
{
 "policies": [
  {
   "name": "mlp",
   "stats": {
    "kicks": 79,
    "kicks_mean_per_game": 7.9,
    "kicks_std": 0.9433981132056604,
    "goals": 49,
    "goals_mean_per_game": 4.9,
    "goals_std": 1.3,
    "effectiveness": 0.620253164556962,
    "wins": 2,
    "losses": 4,
    "draws": 4
   }
  },
  {
   "name": "lda",
   "stats": {
    "kicks": 89,
    "kicks_mean_per_game": 8.9,
    "kicks_std": 1.0440306508910548,
    "goals": 52,
    "goals_mean_per_game": 5.2,
    "goals_std": 1.5362291495737217,
    "effectiveness": 0.5842696629213483,
    "wins": 4,
    "losses": 2,
    "draws": 4
   }
  }
 ]
}"""
COMPARE_CENTER_TEXT = """\
{
 "policies": [
  {
   "name": "center",
   "stats": {
    "kicks": 100,
    "kicks_mean_per_game": 10.0,
    "kicks_std": 0.0,
    "goals": 36,
    "goals_mean_per_game": 3.6,
    "goals_std": 1.2000000000000002,
    "effectiveness": 0.36,
    "wins": 1,
    "losses": 6,
    "draws": 3
   }
  },
  {
   "name": "mlp",
   "stats": {
    "kicks": 79,
    "kicks_mean_per_game": 7.9,
    "kicks_std": 0.9433981132056604,
    "goals": 49,
    "goals_mean_per_game": 4.9,
    "goals_std": 1.3,
    "effectiveness": 0.620253164556962,
    "wins": 6,
    "losses": 1,
    "draws": 3
   }
  }
 ]
}"""
COMPARE_GENERATED_TEXT = """\
{
 "policies": [
  {
   "name": "mlp",
   "stats": {
    "kicks": 40,
    "kicks_mean_per_game": 8.0,
    "kicks_std": 0.6324555320336759,
    "goals": 23,
    "goals_mean_per_game": 4.6,
    "goals_std": 1.624807680927192,
    "effectiveness": 0.575,
    "wins": 2,
    "losses": 1,
    "draws": 2
   }
  },
  {
   "name": "lda",
   "stats": {
    "kicks": 41,
    "kicks_mean_per_game": 8.2,
    "kicks_std": 1.32664991614216,
    "goals": 22,
    "goals_mean_per_game": 4.4,
    "goals_std": 1.4966629547095764,
    "effectiveness": 0.5365853658536586,
    "wins": 1,
    "losses": 2,
    "draws": 2
   }
  }
 ]
}"""


def _build() -> str:
    """The numpy build and the SIMD extensions it found at run time, named
    in each pin's failure message: a pin that fails on another build or
    below AVX2 may differ by rounding rather than by a behaviour change.
    NPY_DISABLE_CPU_FEATURES removes extensions from the list."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found")
    return f"this run: numpy {np.__version__}, SIMD extensions found {simd}"


BUILD = _build()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data --n 500 --seed 1, then train --max-epochs 5 on that CSV."""
    work = tmp_path_factory.mktemp("golden")
    data, model = work / "scenes.csv", work / "model.json"
    _run("gen-data", "--n", "500", "--seed", "1", "--out", str(data))
    _run("train", "--data", str(data), "--model-out", str(model), "--max-epochs", "5")
    return work, data, model


def test_gen_data_csv(pipeline):
    _, data, _ = pipeline
    assert _sha256(data) == GEN_DATA_SHA256, BUILD


def test_trained_model_json(pipeline):
    _, _, model = pipeline
    assert _sha256(model) == MODEL_SHA256, BUILD


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types forced here are x86-64 kernels")
def test_trained_model_on_any_openblas_core(tmp_path):
    """The pipeline's model, trained in a child process per forced OpenBLAS
    core type, hashes to the one pin."""
    src = Path(__file__).resolve().parent.parent / "src"
    for core in ("Haswell", "Prescott"):
        data, model = tmp_path / f"{core}.csv", tmp_path / f"{core}.json"
        script = ("import sys; from goalshot.cli import main; sys.exit("
                  f"main(['gen-data', '--n', '500', '--seed', '1', '--out', {str(data)!r}]) or "
                  f"main(['train', '--data', {str(data)!r}, '--model-out', {str(model)!r}, "
                  "'--max-epochs', '5']))")
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_CORETYPE": core}
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       capture_output=True, timeout=300)
        assert _sha256(model) == MODEL_SHA256, f"{BUILD}, OpenBLAS core {core}"


def _stdout(capsys, *argv: str) -> str:
    capsys.readouterr()
    _run(*argv)
    return capsys.readouterr().out


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_eval_test_split_stdout(pipeline, capsys):
    _, data, model = pipeline
    out = _stdout(capsys, "eval", "--model", str(model), "--data", str(data), "--use-test-split")
    assert out == EVAL_TEXT, BUILD
    assert _text_sha256(out) == EVAL_SHA256, BUILD


def test_eval_curve_files(pipeline):
    """Every point of the ROC and KS2 curves of the whole CSV, which the
    stdout pin reduces to auc, ks2 and the threshold."""
    work, data, model = pipeline
    roc, ks2 = work / "roc.csv", work / "ks2.csv"
    _run("eval", "--model", str(model), "--data", str(data),
         "--roc-out", str(roc), "--ks2-out", str(ks2))
    assert _sha256(roc) == ROC_SHA256, BUILD
    assert _sha256(ks2) == KS2_SHA256, BUILD


def test_eval_curve_files_hold_numbers(pipeline):
    """Every cell under the header of both curve files parses as a float."""
    work, data, model = pipeline
    roc, ks2 = work / "roc_cells.csv", work / "ks2_cells.csv"
    _run("eval", "--model", str(model), "--data", str(data),
         "--roc-out", str(roc), "--ks2-out", str(ks2))
    for path, header in ((roc, "fpr,tpr"), (ks2, "threshold,cdf_positive,cdf_negative,gap")):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        assert len(lines) > 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header.split(","))
            for cell in cells:
                float(cell)


def test_stats_stdout(pipeline, capsys):
    _, data, _ = pipeline
    out = _stdout(capsys, "stats", "--data", str(data))
    assert out == STATS_TEXT, BUILD
    assert _text_sha256(out) == STATS_SHA256, BUILD


def test_aim_table_monte_carlo(tmp_path):
    out = tmp_path / "aim.csv"
    _run("aim-table", "--distance-count", "3", "--y-count", "3",
         "--mc-rollouts", "50", "--seed", "4", "--out", str(out))
    assert _sha256(out) == AIM_TABLE_SHA256, BUILD


def test_compare_report_and_episode_log(pipeline):
    work, data, model = pipeline
    report, log = work / "compare.json", work / "episodes.jsonl"
    _run("compare", "--model", str(model), "--data", str(data), "--games", "10",
         "--format", "json", "--out", str(report), "--episode-log", str(log))
    assert report.read_text(encoding="utf-8") == COMPARE_TEXT, BUILD
    assert _sha256(report) == COMPARE_SHA256, BUILD
    assert _sha256(log) == EPISODE_LOG_SHA256, BUILD


def test_compare_center_against_mlp(pipeline):
    """The center reference as side a, against the mlp policy."""
    work, _, model = pipeline
    report, log = work / "compare_center.json", work / "episodes_center.jsonl"
    _run("compare", "--policy-a", "center", "--policy-b", "mlp", "--model", str(model),
         "--games", "10", "--format", "json", "--out", str(report), "--episode-log", str(log))
    assert report.read_text(encoding="utf-8") == COMPARE_CENTER_TEXT, BUILD
    assert _sha256(report) == COMPARE_CENTER_SHA256, BUILD
    assert _sha256(log) == EPISODE_LOG_CENTER_SHA256, BUILD


def test_compare_lda_fitted_on_generated_scenes(pipeline):
    """compare without --data fits its lda on 300 scenes generated from the
    run seed."""
    work, _, model = pipeline
    report = work / "compare_generated.json"
    _run("compare", "--model", str(model), "--games", "5", "--lda-train-scenes", "300",
         "--format", "json", "--out", str(report))
    assert report.read_text(encoding="utf-8") == COMPARE_GENERATED_TEXT, BUILD
    assert _sha256(report) == COMPARE_GENERATED_SHA256, BUILD


def _compare_lda_repr(monkeypatch, *argv: str) -> str:
    """repr of the lda model that a one-shot compare of center against lda fits."""
    fitted = []

    def spy_lda_train(scenes, field):
        fitted.append(lda_train(scenes, field))
        return fitted[-1]

    monkeypatch.setattr(goalshot.cli, "lda_train", spy_lda_train)
    _run("compare", "--policy-a", "center", "--policy-b", "lda", "--games", "1",
         "--shots", "1", *argv)
    (model,) = fitted
    return repr(model)


def test_compare_lda_models(tmp_path, monkeypatch):
    data = tmp_path / "scenes5000.csv"
    _run("gen-data", "--n", "5000", "--seed", "1", "--out", str(data))
    assert _compare_lda_repr(monkeypatch, "--data", str(data)) == LDA_CSV_REPR, BUILD
    assert _compare_lda_repr(monkeypatch, "--seed", "0") == LDA_GENERATED_REPR, BUILD


def test_policy_decisions(pipeline):
    """repr of the (mlp, lda, center) decisions on 400 scenes with the ball
    5 to 45.5 m along the field, so that some lie beyond the sigma horizon.
    The mlp policy uses the pipeline model, the lda policy is fitted on the
    pipeline CSV."""
    _, data, model = pipeline
    config = RunConfig()
    field, aim, policy = config.field, config.aim, config.policy
    scenes = generate_synthetic_scenes(400, replace(config.gen, x_min=5.0),
                                       config.dynamics, field, seed=11).scenes()
    policies = (MlpPolicy(load_model(model), field, aim, policy),
                LdaPolicy(lda_train(load_scenes(data, field), field), field, aim, policy),
                NaiveCenterPolicy(field, aim, policy))
    decisions = [tuple(p.decide(scene) for p in policies) for scene in scenes]
    mix = Counter((d.action.value, d.out_of_range) for row in decisions for d in row)
    assert min(mix.values()) > 50 and len(mix) == 3
    digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
    assert digest == DECISIONS_SHA256, BUILD


# The simulator draws its noise one scalar at a time. These pin that the
# scalar forms consume the generator exactly as numpy's two-element array
# draws do, value for value.
_SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
_SCALES = st.floats(min_value=1e-12, max_value=10.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, r=_SCALES)
def test_scalar_uniform_draws_match_array_draw(seed, r):
    array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = array_rng.uniform(-r, r, 2)
    got = [-r + (r - -r) * scalar_rng.random() for _ in range(2)]
    assert got == expected.tolist()
    assert scalar_rng.random() == array_rng.random()


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, s=_SCALES)
def test_scalar_normal_draws_match_array_draw(seed, s):
    array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = array_rng.normal(0.0, s, 2)
    got = [scalar_rng.normal(0.0, s) for _ in range(2)]
    assert got == expected.tolist()
    assert scalar_rng.random() == array_rng.random()


# The generator and the keeper draw by numpy's own formulas, which equal
# rng.uniform and rng.normal bit for bit over every range numpy accepts.
def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False), equal=st.booleans())
def test_uniform_formula_matches_uniform(seed, a, b, equal):
    lo, hi = min(a, b), a if equal else max(a, b)
    assume(math.isfinite(hi - lo))  # numpy raises OverflowError otherwise
    numpy_rng, formula_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _bits(lo + (hi - lo) * formula_rng.random()) == _bits(numpy_rng.uniform(lo, hi))
    assert formula_rng.random() == numpy_rng.random()


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, s=st.floats(min_value=0.0, allow_infinity=False))
def test_normal_formula_matches_normal(seed, s):
    numpy_rng, formula_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _bits(0.0 + s * formula_rng.standard_normal()) == _bits(numpy_rng.normal(0.0, s))
    assert formula_rng.random() == numpy_rng.random()
