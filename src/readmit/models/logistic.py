"""L2-penalized logistic regression fit by damped Newton steps
(iteratively reweighted least squares, McCullagh & Nelder 1989).

Each step solves ``(XᵀWX + λI′) Δ = g`` for the penalized Hessian and
gradient, where ``W = diag(p(1 - p))`` and ``I′`` is the identity with the
intercept's entry zeroed: the intercept is not penalized. The step is
halved until the penalized negative log-likelihood does not increase, so
every accepted step is a descent; the fit has converged when the
gradient max-norm drops below ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    l2_penalty: float
    converged: bool
    n_iter: int
    final_nll: float


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def penalized_nll(X, y, weights, intercept, l2_penalty) -> float:
    """Negative Bernoulli log-likelihood plus (l2/2)||w||^2, computed in a
    saturation-safe form."""
    z = X @ weights + intercept
    # log(1 + exp(z)) - y*z, stable for large |z|
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * l2_penalty * float(weights @ weights)


def nll_gradient(X, y, weights, intercept, l2_penalty):
    residual = sigmoid(X @ weights + intercept) - y
    grad_w = X.T @ residual + l2_penalty * weights
    grad_b = float(residual.sum())
    return grad_w, grad_b


def fit_logistic(
    X,
    y,
    l2_penalty: float = 1e-4,
    tol: float = 1e-6,
    max_iter: int = 500,
    start: tuple[np.ndarray, float] | None = None,
) -> LogisticModel:
    """Fit by maximizing the penalized likelihood; converged when the
    gradient max-norm drops below ``tol``. ``start`` is an optional
    ``(weights, intercept)`` to begin from instead of zeros."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if l2_penalty < 0:
        raise ValueError("l2_penalty must be non-negative")
    if y.min() == y.max():
        raise ValueError("training data contains a single class")
    n, d = X.shape
    if start is None:
        weights, intercept = np.zeros(d), 0.0
    else:
        weights, intercept = np.array(start[0], dtype=np.float64), float(start[1])
    # The intercept is the last coordinate of the gradient and Hessian.
    ridge = np.full(d + 1, l2_penalty)
    ridge[d] = 0.0
    nll = penalized_nll(X, y, weights, intercept, l2_penalty)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = sigmoid(X @ weights + intercept)
        residual = p - y
        grad = np.append(X.T @ residual + l2_penalty * weights, residual.sum())
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            it -= 1
            break
        curvature = p * (1.0 - p)
        weighted = X * curvature[:, None]
        hessian = np.empty((d + 1, d + 1))
        hessian[:d, :d] = X.T @ weighted
        hessian[:d, d] = hessian[d, :d] = weighted.sum(axis=0)
        hessian[d, d] = curvature.sum()
        hessian[np.diag_indices(d + 1)] += ridge
        try:
            delta = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            # Singular only without a penalty on collinear or constant
            # columns; the least-norm step is still a descent direction.
            delta = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        step = 1.0
        while step > 1e-10:
            w_try = weights - step * delta[:d]
            b_try = intercept - step * float(delta[d])
            nll_try = penalized_nll(X, y, w_try, b_try, l2_penalty)
            if nll_try <= nll:
                break
            step *= 0.5
        else:
            break  # no descent along the Newton direction; report not converged
        weights, intercept, nll = w_try, b_try, nll_try
    if not np.isfinite(nll):
        raise RuntimeError("non-finite loss; data may be separable, increase l2_penalty")
    return LogisticModel(
        weights=weights,
        intercept=float(intercept),
        l2_penalty=l2_penalty,
        converged=converged,
        n_iter=it,
        final_nll=float(nll),
    )


def predict_proba(model: LogisticModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return sigmoid(X @ model.weights + model.intercept)
