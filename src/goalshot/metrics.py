"""Binary-classifier evaluation: ROC/AUC, two-sample KS, feature screening.

Every metric takes (scores, goal): a 1-D score array and the rows' bool
GOAL mask of the same shape, such as SceneTable.goal. Scores are oriented
so that higher means more goal-like. Tied scores are grouped into a single
threshold step, which makes the trapezoidal AUC equal the Mann-Whitney
rank statistic (ties counted 1/2) exactly; auc_rank computes that
statistic independently and serves as the oracle route. auc_rank ranks
each positive score by its mid-rank in the sorted pooled scores, found by
two binary searches; mid-ranks are half-integers, so the rank sum is
exact. The curves sort for their distinct scores: np.unique imports numpy.ma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenes import FEATURE_NAMES


@dataclass(eq=False)
class RocCurve:
    """Points run from (0, 0) to (1, 1) with both coordinates non-decreasing."""

    points: list[tuple[float, float]]
    auc: float


@dataclass(eq=False)
class Ks2Curve:
    """Empirical per-class score CDFs at every distinct score.

    ks2 is the maximum absolute CDF gap; ks2_threshold the smallest score
    where it is attained.
    """

    thresholds: np.ndarray
    cdf_positive: np.ndarray
    cdf_negative: np.ndarray
    ks2: float
    ks2_threshold: float


def _split_scores(scores: np.ndarray, goal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores of the GOAL rows and of the others."""
    scores = np.asarray(scores, dtype=float)
    goal = np.asarray(goal)
    if goal.dtype != bool or goal.shape != scores.shape or scores.ndim != 1:
        raise ValueError(f"goal must be a bool GOAL mask of the 1-D scores' shape "
                         f"{scores.shape}, got {goal.dtype} of shape {goal.shape}")
    pos, neg = scores[goal], scores[~goal]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return pos, neg


def _distinct_sorted(scores: np.ndarray) -> np.ndarray:
    """np.unique(scores) without np.unique's import of numpy.ma, bit for bit on
    finite scores without -0.0. Where 0.0 and -0.0 both occur, it keeps the
    one first in input order: the sort is stable, and each run keeps its first."""
    ordered = scores[np.argsort(scores, kind="stable")]
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def roc_curve(scores: np.ndarray, goal: np.ndarray) -> RocCurve:
    """ROC curve swept over all distinct score thresholds, AUC by trapezoid."""
    pos, neg = _split_scores(scores, goal)
    thresholds = _distinct_sorted(np.concatenate([pos, neg]))[::-1]
    # Counts of scores >= threshold, one step per distinct score.
    tpr = (len(pos) - np.searchsorted(np.sort(pos), thresholds, side="left")) / len(pos)
    fpr = (len(neg) - np.searchsorted(np.sort(neg), thresholds, side="left")) / len(neg)
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], tpr])
    auc = float(np.trapezoid(ys, xs))
    points = list(zip(xs.tolist(), ys.tolist()))
    return RocCurve(points=points, auc=auc)


def auc_rank(scores: np.ndarray, goal: np.ndarray) -> float:
    """Mann-Whitney AUC: fraction of (positive, negative) pairs ranked
    correctly, ties counted 1/2."""
    pos, neg = _split_scores(scores, goal)
    pooled = np.sort(np.concatenate([pos, neg]))
    lo = np.searchsorted(pooled, pos, "left")
    hi = np.searchsorted(pooled, pos, "right")
    rank_sum = ((lo + hi + 1) / 2).sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2) / (len(pos) * len(neg)))


def ks2_curve(scores: np.ndarray, goal: np.ndarray) -> Ks2Curve:
    """Two-sample Kolmogorov-Smirnov curve and statistic."""
    pos, neg = _split_scores(scores, goal)
    thresholds = _distinct_sorted(np.concatenate([pos, neg]))
    cdf_pos = np.searchsorted(np.sort(pos), thresholds, side="right") / len(pos)
    cdf_neg = np.searchsorted(np.sort(neg), thresholds, side="right") / len(neg)
    gaps = np.abs(cdf_pos - cdf_neg)
    best = int(np.argmax(gaps))  # first occurrence = smallest threshold
    return Ks2Curve(
        thresholds=thresholds,
        cdf_positive=cdf_pos,
        cdf_negative=cdf_neg,
        ks2=float(gaps[best]),
        ks2_threshold=float(thresholds[best]),
    )


def feature_relevance(matrix: np.ndarray, goal: np.ndarray) -> dict[str, float]:
    """Folded single-variable AUC per column of a feature_matrix, with goal
    the rows' GOAL mask: each feature plays classifier by itself, and
    max(auc, 1 - auc) makes both orientations count."""
    if len(matrix) < 2:
        raise ValueError("need at least two scenes")
    relevance: dict[str, float] = {}
    for name, column in zip(FEATURE_NAMES, matrix.T):
        auc = auc_rank(column, goal)
        relevance[name] = max(auc, 1.0 - auc)
    return relevance
