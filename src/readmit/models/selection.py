"""Greedy forward feature selection scored by likelihood-ratio tests.

At each step the candidate column whose inclusion maximizes the
likelihood-ratio statistic (twice the unpenalized log-likelihood gain over
the current model) is added; selection stops when the best candidate's
chi-square p-value on one degree of freedom reaches the significance
threshold. Each candidate fit starts from the current model's coefficients
with 0 for the new column, so it needs only a few Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logistic import fit_logistic, penalized_nll


def chi2_sf_1df(stat: float) -> float:
    """Survival function of chi-square with one degree of freedom."""
    if stat <= 0:
        return 1.0
    return math.erfc(math.sqrt(stat / 2.0))


@dataclass
class SelectionStep:
    column: int
    statistic: float
    p_value: float


@dataclass
class Selection:
    """Accepted steps in inclusion order, the number of logistic fits run
    and the column sets of those fits that stopped unconverged; ``len()``
    is the number of steps."""

    steps: list[SelectionStep]
    fits: int
    unconverged: list[list[int]]

    @property
    def columns(self) -> list[int]:
        return [step.column for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


def loglik_feature_select(
    X,
    y,
    significance: float = 0.05,
    max_iter: int = 200,
) -> Selection:
    """Forward selection over the columns of ``X``; constant columns are
    skipped. Each fit carries a light ridge of 1e-6 and stops at a gradient
    max-norm below 1e-6."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    usable = [j for j in range(X.shape[1]) if X[:, j].min() != X[:, j].max()]
    steps: list[SelectionStep] = []
    unconverged: list[list[int]] = []
    fits = 0

    def fit(columns, start):
        nonlocal fits
        trial = X[:, columns]
        model = fit_logistic(trial, y, l2_penalty=1e-6, tol=1e-6,
                             max_iter=max_iter, start=start)
        fits += 1
        if not model.converged:
            unconverged.append(list(columns))
        # unpenalized log-likelihood at the (lightly penalized) fit
        return model, -penalized_nll(trial, y, model.weights, model.intercept, 0.0)

    selected: list[int] = []
    current, current_ll = fit([], None)
    while usable:
        best_j, best_stat, best = None, -math.inf, None
        start = (np.append(current.weights, 0.0), current.intercept)
        for j in usable:
            model, ll = fit(selected + [j], start)
            stat = 2.0 * (ll - current_ll)
            if stat > best_stat:
                best_j, best_stat, best = j, stat, (model, ll)
        p_value = chi2_sf_1df(max(best_stat, 0.0))
        if best_j is None or p_value >= significance:
            break
        steps.append(SelectionStep(best_j, best_stat, p_value))
        selected.append(best_j)
        usable.remove(best_j)
        current, current_ll = best
    return Selection(steps, fits, unconverged)
