"""ROC curves, AUC, and threshold metrics.

AUC is computed two ways on every call (trapezoidal area under the ROC
curve and rank-based pairwise concordance with ties worth 0.5) and the two
are required to agree to 1e-12 before the trapezoidal value is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textio import write_csv

AUC_CROSS_CHECK_TOL = 1e-12


def _check_two_classes(labels: np.ndarray):
    if labels.min() == labels.max():
        raise ValueError("scores for a single class only; ROC/AUC undefined")


def roc_curve(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points, one per distinct score descending,
    with tied scores stepping jointly; starts at (0, 0, inf) and ends at
    (1, 1, min score)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    _check_two_classes(labels)
    pos = labels == 1
    # Distinct scores descending; each threshold is its group's first score.
    _, first, group = np.unique(-scores, return_index=True, return_inverse=True)
    tp = np.cumsum(np.bincount(group[pos], minlength=first.size))
    fp = np.cumsum(np.bincount(group[~pos], minlength=first.size))
    return [(0.0, 0.0, math.inf),
            *zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist(), scores[first].tolist())]


def auc(points: list[tuple[float, float, float]]) -> float:
    """Trapezoidal area under an ROC point list."""
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def mann_whitney_auc(scores, labels) -> float:
    """Concordance probability via average ranks (ties count 0.5)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_two_classes(labels)
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (2 * ends - counts + 1) / 2.0  # mean of 1-based positions per group
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    u = float(ranks[group[pos]].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_auc(scores, labels) -> tuple[list[tuple[float, float, float]], float]:
    """The ROC points and their trapezoidal AUC, which must agree with the
    rank-based AUC to ``AUC_CROSS_CHECK_TOL``."""
    points = roc_curve(scores, labels)
    trapezoid = auc(points)
    concordance = mann_whitney_auc(scores, labels)
    if abs(trapezoid - concordance) > AUC_CROSS_CHECK_TOL:
        raise AssertionError(
            f"AUC routes disagree: trapezoid {trapezoid!r} vs concordance {concordance!r}"
        )
    return points, trapezoid


def auc_score(scores, labels) -> float:
    """AUC with the built-in trapezoid-vs-concordance cross check."""
    return roc_auc(scores, labels)[1]


def confusion_metrics(scores, labels, threshold: float = 0.5):
    """(sensitivity, specificity) at ``score >= threshold``.

    A side with no observations yields None for its rate rather than a
    fake zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    tp = int((pred & pos).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & ~pos).sum())
    fp = int((pred & ~pos).sum())
    sensitivity = tp / (tp + fn) if tp + fn else None
    specificity = tn / (tn + fp) if tn + fp else None
    return sensitivity, specificity


@dataclass
class SideMetrics:
    """One model's metrics on one side (train or test) of the split."""

    auc: float
    specificity: float | None
    sensitivity: float | None
    roc: list[tuple[float, float, float]]


def evaluate_side(scores, labels, threshold: float = 0.5) -> SideMetrics:
    """The AUC, ROC points and rates at ``score >= threshold`` of one side."""
    sensitivity, specificity = confusion_metrics(scores, labels, threshold)
    roc, area = roc_auc(scores, labels)
    return SideMetrics(area, specificity, sensitivity, roc)


@dataclass
class ModelEvaluation:
    name: str
    train: SideMetrics
    test: SideMetrics


def build_report(bundles, train, test, threshold: float = 0.5) -> list[ModelEvaluation]:
    """One row per model variant, evaluated on the train/test matrices.

    ``bundles`` maps variant name to a scorer exposing
    ``score(X, column_names)``; rows keep the given mapping order.
    """
    if set(train.row_ids) & set(test.row_ids):
        raise ValueError("train/test row ids overlap; split is corrupted")
    return [
        ModelEvaluation(name, *(
            evaluate_side(bundle.score(side.X, side.column_names), side.y, threshold)
            for side in (train, test)))
        for name, bundle in bundles.items()
    ]


SIDES = ("train", "test")
METRICS = ("auc", "specificity", "sensitivity")
REPORT_COLUMNS = ["type", *(f"{side}_{metric}" for metric in METRICS for side in SIDES)]


def _fmt(value) -> str:
    return "NA" if value is None else repr(value)


def write_report_csv(rows: list[ModelEvaluation], dest):
    write_csv(dest, REPORT_COLUMNS, (
        [row.name, *(_fmt(getattr(getattr(row, side), metric))
                     for metric in METRICS for side in SIDES)]
        for row in rows
    ))


def write_roc_csv(points, dest):
    write_csv(dest, ["threshold", "fpr", "tpr"],
              ([repr(thr), repr(fpr), repr(tpr)] for fpr, tpr, thr in points))
