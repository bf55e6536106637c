import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import from_scenes, make_scene, random_scene
from goalshot.metrics import Ks2Curve, auc_rank, feature_relevance, ks2_curve, roc_curve
from goalshot.scenes import FEATURE_NAMES, Label, feature_matrix


def relevance_of(scenes, field):
    table = from_scenes(scenes)
    return feature_relevance(feature_matrix(table, field), table.goal)


def samples_from(pos_scores, neg_scores):
    """(scores, goal): the GOAL scores, then the NO_GOAL ones."""
    scores = np.array([*pos_scores, *neg_scores], dtype=float)
    return scores, np.arange(len(scores)) < len(pos_scores)


def random_tied_samples(rng, n=60):
    # Mix a coarse grid (forcing ties) with continuous draws.
    scores = np.where(rng.random(n) < 0.5,
                      rng.integers(0, 6, n) / 5.0,
                      rng.random(n))
    labels = [Label.GOAL if rng.random() < 0.5 else Label.NO_GOAL for _ in range(n)]
    if not any(l is Label.GOAL for l in labels):
        labels[0] = Label.GOAL
    if not any(l is Label.NO_GOAL for l in labels):
        labels[-1] = Label.NO_GOAL
    return scores, np.array([l is Label.GOAL for l in labels])


def brute_force_ks2(scores, goal):
    pos = sorted(scores[goal].tolist())
    neg = sorted(scores[~goal].tolist())
    best, best_t = -1.0, None
    for t in sorted(set(pos + neg)):
        cdf_p = sum(1 for s in pos if s <= t) / len(pos)
        cdf_n = sum(1 for s in neg if s <= t) / len(neg)
        gap = abs(cdf_p - cdf_n)
        if gap > best + 1e-15:
            best, best_t = gap, t
    return best, best_t


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve(*samples_from([0.8, 0.9, 0.7], [0.1, 0.2]))
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_all_scores_identical(self):
        curve = roc_curve(*samples_from([0.5, 0.5], [0.5, 0.5, 0.5]))
        assert math.isclose(curve.auc, 0.5, abs_tol=1e-15)
        assert curve.points == [(0.0, 0.0), (1.0, 1.0)]

    def test_curve_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            curve = roc_curve(*random_tied_samples(rng))
            xs = [p[0] for p in curve.points]
            ys = [p[1] for p in curve.points]
            assert xs[0] == ys[0] == 0.0 and xs[-1] == ys[-1] == 1.0
            assert all(b >= a for a, b in zip(xs, xs[1:]))
            assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            samples = random_tied_samples(rng)
            assert math.isclose(roc_curve(*samples).auc, auc_rank(*samples),
                                abs_tol=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(*samples_from([1.0], []))


class TestAucRank:
    def test_hand_examples(self):
        assert auc_rank(*samples_from([2, 3], [1])) == 1.0
        assert auc_rank(*samples_from([1], [1])) == 0.5
        assert auc_rank(*samples_from([1, 3], [2])) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores, goal = random_tied_samples(rng)
            transformed = np.array([math.exp(3.0 * s) for s in scores.tolist()])
            assert math.isclose(auc_rank(scores, goal), auc_rank(transformed, goal),
                                abs_tol=1e-12)

    def test_sign_flip_complements(self):
        rng = np.random.default_rng(9)
        scores, goal = random_tied_samples(rng)
        assert math.isclose(auc_rank(-scores, goal), 1.0 - auc_rank(scores, goal),
                            abs_tol=1e-12)

    def test_equals_rankdata_formula(self):
        from scipy.stats import rankdata

        def reference(pos, neg):
            ranks = rankdata(np.concatenate([pos, neg]))
            rank_sum = ranks[: len(pos)].sum()
            return float((rank_sum - len(pos) * (len(pos) + 1) / 2)
                         / (len(pos) * len(neg)))

        rng = np.random.default_rng(23)
        cases = [([0.5] * 7, [0.5] * 4), ([3.0], [3.0]), ([1.0], [0.0]),
                 ([2.0], rng.integers(0, 4, 50)), (rng.integers(0, 4, 50), [2.0])]
        draws = (lambda n: rng.integers(0, 5, n),  # heavy ties
                 lambda n: rng.random(n),
                 lambda n: np.round(rng.normal(0.0, 2.0, n), 1))
        for i in range(300):
            n_pos, n_neg = rng.integers(1, 120, 2)
            draw = draws[i % len(draws)]
            cases.append((draw(n_pos), draw(n_neg)))
        for pos, neg in cases:
            assert auc_rank(*samples_from(pos, neg)) == reference(
                np.asarray(pos, dtype=float), np.asarray(neg, dtype=float))


@pytest.mark.parametrize("metric", [roc_curve, ks2_curve, auc_rank])
@pytest.mark.parametrize("goal", [
    [Label.GOAL, Label.NO_GOAL, Label.GOAL],
    np.array([[True], [False], [True]]),
    np.array([True, False]),
    np.array([1, 0, 1]),
], ids=["labels", "2d", "short", "ints"])
def test_goal_must_be_a_bool_mask(metric, goal):
    with pytest.raises(ValueError, match="bool GOAL mask"):
        metric(np.array([0.9, 0.2, 0.4]), goal)


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import goalshot, goalshot.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


class TestKs2Curve:
    def test_identical_multisets_give_zero(self):
        curve = ks2_curve(*samples_from([0.1, 0.5, 0.9], [0.9, 0.1, 0.5]))
        assert curve.ks2 == 0.0

    def test_disjoint_supports_give_one(self):
        curve = ks2_curve(*samples_from([0.8, 0.9], [0.1, 0.2]))
        assert curve.ks2 == 1.0

    def test_hand_example(self):
        curve = ks2_curve(*samples_from([0.2, 0.8], [0.4]))
        assert math.isclose(curve.ks2, 0.5, abs_tol=1e-15)
        assert curve.ks2_threshold == 0.2  # smallest score attaining the max

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            samples = random_tied_samples(rng)
            curve = ks2_curve(*samples)
            expected, expected_t = brute_force_ks2(*samples)
            assert math.isclose(curve.ks2, expected, abs_tol=1e-12)
            assert math.isclose(curve.ks2_threshold, expected_t, abs_tol=1e-15)

    def test_cdfs_monotone(self):
        rng = np.random.default_rng(13)
        curve = ks2_curve(*random_tied_samples(rng))
        assert np.all(np.diff(curve.cdf_positive) >= 0)
        assert np.all(np.diff(curve.cdf_negative) >= 0)
        assert curve.cdf_positive[-1] == curve.cdf_negative[-1] == 1.0

    def test_invariance_and_sign_flip(self):
        rng = np.random.default_rng(15)
        scores, goal = random_tied_samples(rng)
        base = ks2_curve(scores, goal).ks2
        transformed = np.array([s ** 3 for s in scores.tolist()])
        assert math.isclose(ks2_curve(transformed, goal).ks2, base, abs_tol=1e-12)
        assert math.isclose(ks2_curve(-scores, goal).ks2, base, abs_tol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ks2_curve(*samples_from([], [0.4]))


class TestFeatureRelevance:
    def test_label_aligned_feature_is_perfect(self, field):
        scenes = ([make_scene(kick_power=90.0 + i, label=Label.GOAL) for i in range(8)]
                  + [make_scene(kick_power=10.0 + i, label=Label.NO_GOAL)
                     for i in range(8)])
        relevance = relevance_of(scenes, field)
        assert relevance["kick_power"] == 1.0

    def test_folding_keeps_both_orientations(self, field):
        # Same scenes with power anti-aligned to the label: folding should
        # still report full relevance.
        scenes = ([make_scene(kick_power=10.0 + i, label=Label.GOAL) for i in range(8)]
                  + [make_scene(kick_power=90.0 + i, label=Label.NO_GOAL)
                     for i in range(8)])
        assert relevance_of(scenes, field)["kick_power"] == 1.0

    def test_all_features_covered(self, field):
        scenes = [make_scene(kick_power=30.0, label=Label.GOAL),
                  make_scene(kick_power=60.0, label=Label.NO_GOAL)]
        relevance = relevance_of(scenes, field)
        assert len(relevance) == 22
        assert all(0.5 <= v <= 1.0 for v in relevance.values())

    def test_equals_auc_rank_per_column(self, field):
        """Every feature gets the folded bits of auc_rank over its column,
        ties and duplicated rows included."""
        rng = np.random.default_rng(17)
        scenes = [random_scene(rng, field, label=Label.GOAL if rng.random() < 0.4
                               else Label.NO_GOAL) for _ in range(150)]
        table = from_scenes(scenes + scenes[:40])
        matrix = feature_matrix(table, field)
        relevance = feature_relevance(matrix, table.goal)
        assert list(relevance) == list(FEATURE_NAMES)
        for name, column in zip(FEATURE_NAMES, matrix.T):
            auc = auc_rank(column, table.goal)
            assert relevance[name] == max(auc, 1.0 - auc)

    def test_single_class_rejected(self, field):
        with pytest.raises(ValueError, match="both classes"):
            relevance_of([make_scene(label=Label.GOAL) for _ in range(4)], field)
