"""Golden-output pins for the CLI pipeline.

Each test runs commands through `goalshot.cli.main` in-process and pins
the sha256 of the bytes they write, to a file or, for eval and stats, to
stdout. A refactor that claims no behaviour
change must leave every pin as it is; a deliberate behaviour change
updates the pin in the same change and says why. The pins hold for one
numpy build on x86-64 CPUs with AVX2. No product on the pinned paths goes
through BLAS, so the kernels OpenBLAS picks for the CPU do not matter, but
numpy's tanh kernel is chosen by the SIMD extensions found and rounds
differently below AVX2 (other architectures are untested).
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

from goalshot.cli import main
from goalshot.config import RunConfig
from goalshot.mlp import load_model
from goalshot.policies import LdaPolicy, MlpPolicy, NaiveCenterPolicy, lda_train
from goalshot.scenes import generate_synthetic_scenes, load_scenes

GEN_DATA_SHA256 = "b60aa2ef55b59e3952833ae0f47df82724de1929481ba1ecfa3db43ec6ec2007"
MODEL_SHA256 = "857d85948a4437b83077eb05d64ac041f86d5e6d1d4f70098016d4d2336b2178"
AIM_TABLE_SHA256 = "48cf079f68e6c2e270d8489a89544365018b9ceafecafc43d7ae2d65d1e79e8a"
COMPARE_SHA256 = "fa2e0b195ac1ce199509cad080137bbfa6ec153a147680ab7de54f82df08062b"
COMPARE_GENERATED_SHA256 = "811291d80261f5a9f9c75abdc31058e474a4d0d615003a570c1b9688bd2ffaaf"
EPISODE_LOG_SHA256 = "f63725edf3c8a7e356e7df5b1b43369f5e20832d1bf044aea03fef5eab698a50"
COMPARE_CENTER_SHA256 = "9ea212538ec894a392479b2a6d8e0dce47be9a59067e835480ed4bc61312c714"
EPISODE_LOG_CENTER_SHA256 = "b0573cbdef3d0fee1686a48a0e9cecb865b6c7f6faa7bb7cf31fff8b7967cac8"
DECISIONS_SHA256 = "9b1b2ad76be73f0a06324c159e4c6ebfae8e341130e62e9c9aa5fd862abd2c95"
EVAL_SHA256 = "aeaad022de4de4177ba7fc74092c722ef9462f585039fed2af11fe07daafa07f"
STATS_SHA256 = "821ec09178eef386d3304fb33befe7badd2f3e0052e18447d392b88556a9efd1"
ROC_SHA256 = "a4d47726de13a8ed762b4c90ff5489f71a6f23574badef8188ca47cb659de172"
KS2_SHA256 = "1b1e8694f976a5acc6274d16eed03f2ded0ab84657debd885d387061e20b4e46"


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


def _stdout_sha256(capsys, *argv: str) -> str:
    capsys.readouterr()
    _run(*argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_eval_test_split_stdout(pipeline, capsys):
    _, data, model = pipeline
    digest = _stdout_sha256(capsys, "eval", "--model", str(model), "--data", str(data),
                            "--use-test-split")
    assert digest == EVAL_SHA256, BUILD


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
    assert _stdout_sha256(capsys, "stats", "--data", str(data)) == STATS_SHA256, BUILD


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
    assert _sha256(report) == COMPARE_SHA256, BUILD
    assert _sha256(log) == EPISODE_LOG_SHA256, BUILD


def test_compare_center_against_mlp(pipeline):
    """The center reference as side a, against the mlp policy."""
    work, _, model = pipeline
    report, log = work / "compare_center.json", work / "episodes_center.jsonl"
    _run("compare", "--policy-a", "center", "--policy-b", "mlp", "--model", str(model),
         "--games", "10", "--format", "json", "--out", str(report), "--episode-log", str(log))
    assert _sha256(report) == COMPARE_CENTER_SHA256, BUILD
    assert _sha256(log) == EPISODE_LOG_CENTER_SHA256, BUILD


def test_compare_lda_fitted_on_generated_scenes(pipeline):
    """compare without --data fits its lda on 300 scenes generated from the
    run seed."""
    work, _, model = pipeline
    report = work / "compare_generated.json"
    _run("compare", "--model", str(model), "--games", "5", "--lda-train-scenes", "300",
         "--format", "json", "--out", str(report))
    assert _sha256(report) == COMPARE_GENERATED_SHA256, BUILD


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
