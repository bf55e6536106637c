"""Binary-classifier evaluation: ROC/AUC, two-sample KS, feature screening.

Scores are oriented so that higher means more goal-like. Tied scores are
grouped into a single threshold step, which makes the trapezoidal AUC equal
the Mann-Whitney rank statistic (ties counted 1/2) exactly; auc_rank
computes that statistic independently and serves as the oracle route.
auc_rank ranks each positive score by its mid-rank in the sorted pooled
scores, found by two binary searches; mid-ranks are half-integers, so the
rank sum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenes import FEATURE_NAMES, Label


@dataclass(frozen=True)
class ScoredSample:
    score: float
    label: Label


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


def _split_scores(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    pos = np.array([s.score for s in samples if s.label is Label.GOAL], dtype=float)
    neg = np.array([s.score for s in samples if s.label is Label.NO_GOAL], dtype=float)
    if len(pos) + len(neg) != len(samples):
        raise ValueError("every sample must be labeled GOAL or NO_GOAL")
    return _checked(pos, neg)


def _checked(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise ValueError("scores must be finite")
    return pos, neg


def roc_curve(samples: Sequence[ScoredSample]) -> RocCurve:
    """ROC curve swept over all distinct score thresholds, AUC by trapezoid."""
    pos, neg = _split_scores(samples)
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    # Counts of scores >= threshold, one step per distinct score.
    tpr = (len(pos) - np.searchsorted(pos_sorted, thresholds, side="left")) / len(pos)
    fpr = (len(neg) - np.searchsorted(neg_sorted, thresholds, side="left")) / len(neg)
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], tpr])
    auc = float(np.trapezoid(ys, xs))
    points = list(zip(xs.tolist(), ys.tolist()))
    return RocCurve(points=points, auc=auc)


def auc_rank(samples: Sequence[ScoredSample]) -> float:
    """Mann-Whitney AUC: fraction of (positive, negative) pairs ranked
    correctly, ties counted 1/2."""
    return _mann_whitney_auc(*_split_scores(samples))


def _mann_whitney_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    pooled = np.sort(np.concatenate([pos, neg]))
    lo = np.searchsorted(pooled, pos, "left")
    hi = np.searchsorted(pooled, pos, "right")
    rank_sum = ((lo + hi + 1) / 2).sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2) / (len(pos) * len(neg)))


def ks2_curve(samples: Sequence[ScoredSample]) -> Ks2Curve:
    """Two-sample Kolmogorov-Smirnov curve and statistic."""
    pos, neg = _split_scores(samples)
    thresholds = np.unique(np.concatenate([pos, neg]))
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


def scored_samples(scores: Sequence[float], labels: Sequence[Label]) -> list[ScoredSample]:
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have matching lengths")
    return [ScoredSample(float(s), l) for s, l in zip(scores, labels)]


def feature_relevance(matrix: np.ndarray, goal: np.ndarray) -> dict[str, float]:
    """Folded single-variable AUC per column of a feature_matrix, with goal
    the rows' GOAL mask: each feature plays classifier by itself, and
    max(auc, 1 - auc) makes both orientations count."""
    if len(matrix) < 2:
        raise ValueError("need at least two scenes")
    relevance: dict[str, float] = {}
    for name, column in zip(FEATURE_NAMES, matrix.T):
        auc = _mann_whitney_auc(*_checked(column[goal], column[~goal]))
        relevance[name] = max(auc, 1.0 - auc)
    return relevance
