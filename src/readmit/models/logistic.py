"""L2-penalized logistic regression fit by damped Newton steps
(iteratively reweighted least squares, McCullagh & Nelder 1989).

Each step solves ``(XᵀWX + λI′) Δ = g`` for the penalized Hessian and
gradient, where ``W = diag(p(1 - p))`` and ``I′`` is the identity with the
intercept's entry zeroed: the intercept is not penalized. The step is
halved until the penalized negative log-likelihood does not increase, so
every accepted step is a descent; the fit has converged when the
gradient max-norm drops below ``tol``.

One Newton loop, ``fit_logistic_stack``, runs a stack of fits that share
the labels: designs ``X`` of shape ``(m, n, d)``. Each fit keeps its own
convergence test, step halving and singular-Hessian fallback, and a fit
that finishes drops out of the stack, so each numpy call serves every fit
still running. ``fit_logistic`` is the stack of one, an ``X[None]`` view.
A stacked product or solve makes one BLAS or LAPACK call per fit, on that
fit's ``(n, d)`` slice with the slice's own strides, so a fit gives the
same bits in a stack as alone as long as its slice keeps its memory
layout; dropping fits re-gathers the stack in the slices' layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import binary_labels


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    l2_penalty: float
    converged: bool
    n_iter: int
    final_nll: float
    final_loglik: float = np.nan   # unpenalized, at the fit; not saved, so nan on a loaded model


def sigmoid(z):
    """``1 / (1 + exp(-z))`` for ``z >= 0`` and ``exp(z) / (1 + exp(z))``
    below, so no exponential overflows; one ``exp(-|z|)`` serves both."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _matvec(A, v):
    """``A[i] @ v[i]`` for each fit ``i`` of a stack."""
    return (A @ v[:, :, None])[:, :, 0]


def stack_nll(X, y, weights, intercepts, l2_penalty) -> np.ndarray:
    """Row 0: ``penalized_nll`` of each fit of a stack; row 1: the same, unpenalized.
    ``X`` is ``(m, n, d)``, ``weights`` ``(m, d)`` and ``intercepts`` ``(m,)``."""
    z = _matvec(X, weights) + intercepts[:, None]
    # log(1 + exp(z)) - y*z, stable for large |z|
    nll = np.sum(np.logaddexp(0.0, z) - y * z, axis=1)
    penalty = 0.5 * l2_penalty * (weights[:, None, :] @ weights[:, :, None])[:, 0, 0]
    return np.stack([nll + penalty, nll])


def penalized_nll(X, y, weights, intercept, l2_penalty) -> float:
    """Negative Bernoulli log-likelihood plus (l2/2)||w||^2, computed in a
    saturation-safe form."""
    weights = np.asarray(weights, dtype=np.float64)
    return float(stack_nll(np.asarray(X, dtype=np.float64)[None], y, weights[None],
                           np.array([intercept], dtype=np.float64), l2_penalty)[0, 0])


def nll_gradient(X, y, weights, intercept, l2_penalty):
    residual = sigmoid(X @ weights + intercept) - y
    grad_w = X.T @ residual + l2_penalty * weights
    grad_b = float(residual.sum())
    return grad_w, grad_b


def _take(X, rows):
    """Fits ``rows`` of the stack ``X``, each slice in its old memory
    layout. numpy does not promise the layout of a fancy-indexed array, so
    gather from whichever of ``X`` and its transpose has C-contiguous
    slices: the result then has them too."""
    if X.strides[1] < X.strides[2]:   # column-major slices
        return X.transpose(0, 2, 1)[rows].transpose(0, 2, 1)
    return X[rows]


def _newton_step(hessian, grad):
    """``hessian[i]⁻¹ grad[i]`` for each fit. A Hessian is singular only
    without a penalty on collinear or constant columns; its least-norm step
    is still a descent direction."""
    try:
        return np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    delta = np.empty_like(grad)
    for i, (h, g) in enumerate(zip(hessian, grad)):
        try:
            delta[i] = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            delta[i] = np.linalg.lstsq(h, g, rcond=None)[0]
    return delta


def fit_logistic_stack(
    X,
    y,
    l2_penalty: float = 1e-4,
    tol: float = 1e-6,
    max_iter: int = 500,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[LogisticModel]:
    """One fit per design of the stack ``X`` (``(m, n, d)``, float64, each
    slice C- or F-contiguous), all on labels ``y``; each converged when its
    gradient max-norm drops below ``tol``. ``start`` is an optional
    ``(weights (m, d), intercepts (m,))`` to begin from instead of zeros."""
    y = binary_labels(y, X.shape[1]).astype(np.float64)
    if l2_penalty < 0:
        raise ValueError("l2_penalty must be non-negative")
    if y.min() == y.max():
        raise ValueError("training data contains a single class")
    m, _, d = X.shape
    if start is None:
        w, b = np.zeros((m, d)), np.zeros(m)
    else:
        w, b = np.array(start[0], dtype=np.float64), np.array(start[1], dtype=np.float64)
    # The intercept is the last coordinate of the gradient and Hessian.
    ridge = np.full(d + 1, l2_penalty)
    ridge[d] = 0.0
    diag = np.arange(d + 1)
    nll = stack_nll(X, y, w, b, l2_penalty)   # row 0 steers the fit, row 1 is reported
    out_w, out_b, out_nll = np.empty((m, d)), np.empty(m), np.empty((2, m))
    converged, n_iter = np.zeros(m, dtype=bool), np.zeros(m, dtype=int)
    live = np.arange(m)   # the stack's fits, by their index in ``X``

    def finish(rows, it, done):
        """Record fits ``rows`` of the stack as stopped at iteration ``it``
        and drop them from the stack."""
        nonlocal live, X, w, b, nll
        ids = live[rows]
        out_w[ids], out_b[ids], out_nll[:, ids] = w[rows], b[rows], nll[:, rows]
        n_iter[ids], converged[ids] = it, done
        keep = np.ones(live.size, dtype=bool)
        keep[rows] = False
        if keep.any():
            X = _take(X, keep)
        live, w, b, nll = live[keep], w[keep], b[keep], nll[:, keep]
        return keep

    for it in range(1, max_iter + 1):
        p = sigmoid(_matvec(X, w) + b[:, None])
        residual = p - y
        XT = X.transpose(0, 2, 1)
        grad = np.empty((live.size, d + 1))
        grad[:, :d] = _matvec(XT, residual) + l2_penalty * w
        grad[:, d] = residual.sum(axis=1)
        done = np.max(np.abs(grad), axis=1) < tol
        if done.any():
            keep = finish(np.flatnonzero(done), it - 1, True)
            if not live.size:
                break
            p, grad, XT = p[keep], grad[keep], X.transpose(0, 2, 1)
        curvature = p * (1.0 - p)
        weighted = X * curvature[:, :, None]
        hessian = np.empty((live.size, d + 1, d + 1))
        hessian[:, :d, :d] = XT @ weighted
        hessian[:, :d, d] = hessian[:, d, :d] = weighted.sum(axis=1)
        hessian[:, d, d] = curvature.sum(axis=1)
        hessian[:, diag, diag] += ridge
        delta = _newton_step(hessian, grad)
        step = 1.0
        todo = np.arange(live.size)   # fits still halving their step
        while todo.size and step > 1e-10:
            w_try = w[todo] - step * delta[todo, :d]
            b_try = b[todo] - step * delta[todo, d]
            X_try = X if todo.size == live.size else _take(X, todo)
            nll_try = stack_nll(X_try, y, w_try, b_try, l2_penalty)
            ok = nll_try[0] <= nll[0, todo]
            took = todo[ok]
            w[took], b[took], nll[:, took] = w_try[ok], b_try[ok], nll_try[:, ok]
            todo = todo[~ok]
            step *= 0.5
        if todo.size:   # no descent along the Newton direction; report not converged
            finish(todo, it, False)
            if not live.size:
                break
    if live.size:
        finish(np.arange(live.size), max_iter, False)
    if not np.isfinite(out_nll).all():
        raise RuntimeError("non-finite loss; data may be separable, increase l2_penalty")
    return [
        LogisticModel(weights=out_w[i], intercept=float(out_b[i]), l2_penalty=l2_penalty,
                      converged=bool(converged[i]), n_iter=int(n_iter[i]),
                      final_nll=float(out_nll[0, i]), final_loglik=float(-out_nll[1, i]))
        for i in range(m)
    ]


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
    if start is not None:
        start = (np.asarray(start[0])[None], np.array([start[1]]))
    return fit_logistic_stack(X[None], y, l2_penalty, tol, max_iter, start)[0]


def predict_proba(model: LogisticModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return sigmoid(X @ model.weights + model.intercept)
