"""Principal component analysis on the correlation matrix.

Columns are standardized with training statistics (zero-variance columns
dropped and recorded), the correlation matrix is diagonalized by LAPACK's
symmetric eigensolver (``np.linalg.eigh``), and the smallest prefix of
descending-eigenvalue components reaching the target explained-variance
fraction is retained. Each component's sign is fixed so that its
largest-magnitude entry (the first, on a tie) is positive, which makes the
saved model independent of the solver's arbitrary signs. Transforming new
rows always reuses the training statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PcaTransform:
    means: np.ndarray                 # over kept columns
    stds: np.ndarray
    kept_columns: np.ndarray          # indices into the original column order
    components: np.ndarray            # (n_kept, n_kept) orthonormal columns
    eigenvalues: np.ndarray           # descending
    explained: np.ndarray             # fractions, descending, sum <= 1
    retained: int


def fit_pca(X, variance_target: float = 0.95) -> PcaTransform:
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("PCA needs at least two rows")
    if not 0.0 < variance_target <= 1.0:
        raise ValueError("variance_target must be in (0, 1]")
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    kept = np.flatnonzero(stds > 0.0)
    if kept.size == 0:
        raise ValueError("all columns are constant; nothing to decompose")
    Z = (X[:, kept] - means[kept]) / stds[kept]
    corr = (Z.T @ Z) / (n - 1)
    eigenvalues, components = np.linalg.eigh(corr)
    eigenvalues = np.maximum(eigenvalues[::-1], 0.0)
    components = components[:, ::-1]
    largest = np.argmax(np.abs(components), axis=0)
    components = components * np.where(
        components[largest, np.arange(kept.size)] < 0, -1.0, 1.0)
    total = float(eigenvalues.sum())
    explained = eigenvalues / total if total > 0 else eigenvalues
    cumulative = np.cumsum(explained)
    retained = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    retained = min(max(retained, 1), kept.size)
    return PcaTransform(
        means=means[kept],
        stds=stds[kept],
        kept_columns=kept,
        components=components,
        eigenvalues=eigenvalues,
        explained=explained,
        retained=retained,
    )


def pca_transform(transform: PcaTransform, X) -> np.ndarray:
    """Standardize with training statistics; project onto the retained components."""
    X = np.asarray(X, dtype=np.float64)
    Z = (X[:, transform.kept_columns] - transform.means) / transform.stds
    return Z @ transform.components[:, :transform.retained]
