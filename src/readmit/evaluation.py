"""ROC curves, AUC, and threshold metrics.

AUC is computed two ways on every call (trapezoidal area under the ROC
curve and rank-based pairwise concordance with ties worth 0.5) and the two
are required to agree to 1e-12 before the trapezoidal value is returned.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .textio import text_stream

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
    n_pos = int((labels == 1).sum())
    n_neg = int(labels.size - n_pos)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    points = [(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            tp += int(l[j] == 1)
            fp += int(l[j] != 1)
            j += 1
        points.append((fp / n_neg, tp / n_pos, float(s[i])))
        i = j
    return points


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
    n = scores.size
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    s = scores[order]
    i = 0
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # mean of 1-based positions
        i = j
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = n - n_pos
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_score(scores, labels) -> float:
    """AUC with the built-in trapezoid-vs-concordance cross check."""
    trapezoid = auc(roc_curve(scores, labels))
    concordance = mann_whitney_auc(scores, labels)
    if abs(trapezoid - concordance) > AUC_CROSS_CHECK_TOL:
        raise AssertionError(
            f"AUC routes disagree: trapezoid {trapezoid!r} vs concordance {concordance!r}"
        )
    return trapezoid


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
class ModelEvaluation:
    name: str
    train_auc: float
    test_auc: float
    train_specificity: float | None
    test_specificity: float | None
    train_sensitivity: float | None
    test_sensitivity: float | None
    train_roc: list[tuple[float, float, float]]
    test_roc: list[tuple[float, float, float]]


@dataclass
class EvaluationReport:
    rows: list[ModelEvaluation]
    threshold: float


def evaluate_scores(name, train_scores, train_labels, test_scores, test_labels,
                    threshold: float = 0.5) -> ModelEvaluation:
    train_sens, train_spec = confusion_metrics(train_scores, train_labels, threshold)
    test_sens, test_spec = confusion_metrics(test_scores, test_labels, threshold)
    return ModelEvaluation(
        name=name,
        train_auc=auc_score(train_scores, train_labels),
        test_auc=auc_score(test_scores, test_labels),
        train_specificity=train_spec,
        test_specificity=test_spec,
        train_sensitivity=train_sens,
        test_sensitivity=test_sens,
        train_roc=roc_curve(train_scores, train_labels),
        test_roc=roc_curve(test_scores, test_labels),
    )


def build_report(bundles, train, test, threshold: float = 0.5) -> EvaluationReport:
    """Evaluate every model variant on the train/test matrices.

    ``bundles`` maps variant name to a scorer exposing
    ``score(X, column_names)``; rows keep the given mapping order.
    """
    if set(train.row_ids) & set(test.row_ids):
        raise ValueError("train/test row ids overlap; split is corrupted")
    rows = []
    for name, bundle in bundles.items():
        rows.append(evaluate_scores(
            name,
            bundle.score(train.X, train.column_names), train.y,
            bundle.score(test.X, test.column_names), test.y,
            threshold,
        ))
    return EvaluationReport(rows=rows, threshold=threshold)


REPORT_COLUMNS = [
    "type", "train_auc", "test_auc", "train_specificity",
    "test_specificity", "train_sensitivity", "test_sensitivity",
]


def _fmt(value) -> str:
    return "NA" if value is None else repr(value)


def write_report_csv(report: EvaluationReport, dest):
    with text_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow([
                row.name, _fmt(row.train_auc), _fmt(row.test_auc),
                _fmt(row.train_specificity), _fmt(row.test_specificity),
                _fmt(row.train_sensitivity), _fmt(row.test_sensitivity),
            ])


def write_roc_csv(points, dest):
    with text_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "fpr", "tpr"])
        for fpr, tpr, thr in points:
            writer.writerow([repr(thr), repr(fpr), repr(tpr)])
