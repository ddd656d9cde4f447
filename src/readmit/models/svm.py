"""Linear SVM trained by deterministic seeded stochastic subgradient
descent on the hinge objective (1/2)||w||^2 + C * sum hinge, with averaged
iterates (Pegasos-style steps, lambda = 1/(n*C)).

Features are standardized internally with population statistics. The
intercept rides as an appended constant column, so it shares the
regularizer; sampling draws a uniform u and takes floor(u*n), which keeps
the visited row sequence aligned under dataset duplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import SVM_STREAM, rng_for
from .labels import binary_labels


@dataclass
class LinearSvmModel:
    weights: np.ndarray        # over standardized features
    intercept: float
    C: float
    epochs: int
    seed: int
    means: np.ndarray
    stds: np.ndarray


def fit_linear_svm(
    X,
    y,
    C: float,
    epochs: int = 5,
    seed: int = 0,
) -> LinearSvmModel:
    X = np.asarray(X, dtype=np.float64)
    y = binary_labels(y, X.shape[0])
    if C <= 0:
        raise ValueError("C must be positive")
    if y.min() == y.max():
        raise ValueError("training data contains a single class")
    n, d = X.shape
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds > 0.0, stds, 1.0)
    yZ = np.ones((n, d + 1))               # each row signed by its label, +1 or -1
    yZ[:, :d] = (X - means) / stds
    yZ *= np.where(y == 1, 1.0, -1.0)[:, None]

    lam = 1.0 / (n * C)
    rng = rng_for(seed, SVM_STREAM)
    w = np.zeros(d + 1)
    w_avg = np.zeros(d + 1)
    rows = (rng.random(epochs * n) * n).astype(np.intp)
    for t, i in enumerate(rows.tolist(), start=1):
        hit = yZ[i] @ w < 1.0
        w *= 1.0 - 1.0 / t
        if hit:
            w += 1.0 / (lam * t) * yZ[i]
        w_avg += (w - w_avg) / t
    return LinearSvmModel(
        weights=w_avg[:d].copy(),
        intercept=float(w_avg[d]),
        C=C,
        epochs=epochs,
        seed=seed,
        means=means,
        stds=stds,
    )


def svm_decision_scores(model: LinearSvmModel, X) -> np.ndarray:
    """Raw margins; rank-based metrics consume these directly."""
    X = np.asarray(X, dtype=np.float64)
    Z = (X - model.means) / model.stds
    return Z @ model.weights + model.intercept
