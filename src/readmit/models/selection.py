"""Greedy forward feature selection scored by likelihood-ratio tests.

At each step the candidate column whose inclusion maximizes the
likelihood-ratio statistic (twice the unpenalized log-likelihood gain over
the current model) is added; selection stops when the best candidate's
chi-square p-value on one degree of freedom reaches the significance
threshold. Each candidate fit starts from the current model's coefficients
with 0 for the new column, so it needs only a few Newton steps.

A step's candidates are fit as stacks through ``fit_logistic_stack``, at
most ``STACK_DOUBLES`` design entries (candidates × rows × columns) per
stack. The cap bounds the memory of a stack and of the Newton loop's
arrays of the same size, so the number of candidates per stack falls as
the rows and the selected columns grow. A stack is gathered as
``X.T[columns]``: C-contiguous ``(candidates, k + 1, n)``, used through
``.transpose(0, 2, 1)``. Each candidate's ``(n, k + 1)`` slice then has the
column-major layout ``X[:, columns]`` gives a single fit, so every BLAS and
LAPACK call sees the same operands and each candidate fit, statistic and
p-value is bit for bit that of fitting the candidates one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logistic import fit_logistic_stack

# Design entries (float64) per stack of candidate fits: 128 KB, so that a
# stack and each array of its size or smaller stays under glibc malloc's
# 128 KiB mmap threshold. Larger arrays are mapped and unmapped afresh on
# each Newton step; at 2**16 that made 8,000-row stacks slower per fit
# than single fits.
STACK_DOUBLES = 2 ** 14


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
        """The model of the fit on ``X[:, c]`` for each row ``c`` of ``columns``, in one stack."""
        nonlocal fits
        stack = X.T[columns].transpose(0, 2, 1)
        models = fit_logistic_stack(stack, y, l2_penalty=1e-6, tol=1e-6,
                                    max_iter=max_iter, start=start)
        fits += len(models)
        unconverged.extend(c for c, model in zip(columns.tolist(), models)
                           if not model.converged)
        return models

    selected: list[int] = []
    [current] = fit(np.empty((1, 0), dtype=np.intp), None)
    while usable:
        best_j, best_stat, best = None, -math.inf, None
        per_stack = max(1, STACK_DOUBLES // (len(y) * (len(selected) + 1)))
        start = np.append(current.weights, 0.0)
        for lo in range(0, len(usable), per_stack):
            chunk = usable[lo:lo + per_stack]
            columns = np.array([selected + [j] for j in chunk], dtype=np.intp)
            chunk_start = (np.tile(start, (len(chunk), 1)), np.full(len(chunk), current.intercept))
            for j, model in zip(chunk, fit(columns, chunk_start)):
                stat = 2.0 * (model.final_loglik - current.final_loglik)
                if stat > best_stat:
                    best_j, best_stat, best = j, stat, model
        p_value = chi2_sf_1df(max(best_stat, 0.0))
        if best_j is None or p_value >= significance:
            break
        steps.append(SelectionStep(best_j, best_stat, p_value))
        selected.append(best_j)
        usable.remove(best_j)
        current = best
    return Selection(steps, fits, unconverged)
