"""Oracles for the stacked Newton loop and the stacked candidate fits.

A fit in a stack must give the same bits as ``fit_logistic`` on its design
alone, and forward selection over stacks must take the same path, with the
same statistics, fit count and unconverged fits, as fitting the candidates
one at a time.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit import pipeline
from readmit.dataset import train_test_split
from readmit.models import selection
from readmit.models.logistic import fit_logistic, fit_logistic_stack, penalized_nll
from readmit.models.selection import (
    Selection, SelectionStep, chi2_sf_1df, loglik_feature_select,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def same_fit(a, b) -> bool:
    return (a.weights.tobytes() == b.weights.tobytes() and a.intercept == b.intercept
            and a.converged == b.converged and a.n_iter == b.n_iter
            and a.final_nll == b.final_nll)


@st.composite
def stacks(draw):
    """A stack of designs sharing labels, every slice in one memory layout,
    with optional constant or duplicate columns, a penalty (0 lets those
    columns make the Hessian singular), an iteration cap and starts."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(4, 40))
    d = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    designs = rng.normal(size=(m, n, d)) * draw(st.sampled_from([0.1, 1.0, 4.0]))
    if d and draw(st.booleans()):
        designs[:, :, 0] = draw(st.sampled_from([0.0, 1.0]))
    if d > 1 and draw(st.booleans()):
        designs[:, :, d - 1] = designs[:, :, d - 2]
    y = rng.integers(0, 2, n).astype(float)
    y[:2] = 0.0, 1.0
    if draw(st.booleans()):   # column-major slices, as selection gathers them
        X = np.ascontiguousarray(designs.transpose(0, 2, 1)).transpose(0, 2, 1)
    else:
        X = np.ascontiguousarray(designs)
    start = None
    if draw(st.booleans()):
        start = (rng.normal(size=(m, d)), rng.normal(size=m))
    return (X, y, draw(st.sampled_from([0.0, 1e-6, 1e-3])),
            draw(st.sampled_from([0, 1, 2, 5, 200])), start)


@given(stacks())
def test_each_fit_of_a_stack_equals_its_fit_alone(case):
    X, y, l2, max_iter, start = case
    try:
        stacked = fit_logistic_stack(X, y, l2, 1e-6, max_iter, start)
    except RuntimeError:
        stacked = None
    alone = []
    for i in range(X.shape[0]):
        try:
            alone.append(fit_logistic(X[i], y, l2, 1e-6, max_iter,
                                      None if start is None else (start[0][i], start[1][i])))
        except RuntimeError:   # a non-finite loss fails the whole stack
            alone = None
            break
    if stacked is None or alone is None:
        assert stacked is alone is None
        return
    assert all(same_fit(a, b) for a, b in zip(stacked, alone))


@pytest.mark.parametrize("column_major", [True, False])
def test_fits_left_in_a_stack_keep_their_layout(column_major):
    # Fit 0 starts at its optimum and leaves the stack after one gradient;
    # the others take every Newton step on the re-gathered stack, whose
    # slices must keep the layout the single fits see.
    rng = np.random.default_rng(8)
    designs = rng.normal(size=(3, 300, 7))
    y = (rng.random(300) < 1 / (1 + np.exp(-designs[0] @ np.linspace(-1, 1, 7)))).astype(float)
    X = (np.ascontiguousarray(designs.transpose(0, 2, 1)).transpose(0, 2, 1) if column_major
         else designs)
    first = fit_logistic(X[0], y, tol=1e-10)
    start = (np.zeros((3, 7)), np.zeros(3))
    start[0][0], start[1][0] = first.weights, first.intercept
    stacked = fit_logistic_stack(X, y, tol=1e-10, start=start)
    assert stacked[0].n_iter == 0 and min(fit.n_iter for fit in stacked[1:]) >= 3
    assert all(same_fit(fit, fit_logistic(X[i], y, tol=1e-10, start=(start[0][i], start[1][i])))
               for i, fit in enumerate(stacked))


def test_singular_hessian_fit_takes_least_norm_steps_in_a_stack():
    # An all-zero column without a penalty zeroes a Hessian row, so that
    # fit's solve fails while the other fit of the stack solves.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(2, 30, 2))
    X[0, :, 1] = 0.0
    y = (rng.random(30) < 0.5).astype(float)
    y[:2] = 0.0, 1.0
    stacked = fit_logistic_stack(X, y, l2_penalty=0.0)
    assert all(same_fit(a, fit_logistic(X[i], y, l2_penalty=0.0))
               for i, a in enumerate(stacked))
    assert stacked[0].converged and stacked[0].weights[1] == 0.0


def serial_select(X, y, significance=0.05, max_iter=200) -> Selection:
    """Forward selection fitting one candidate at a time through
    ``fit_logistic``: the reference the stacked candidate fits must match."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    usable = [j for j in range(X.shape[1]) if X[:, j].min() != X[:, j].max()]
    steps, unconverged, fits = [], [], 0

    def fit(columns, start):
        nonlocal fits
        trial = X[:, columns]
        model = fit_logistic(trial, y, l2_penalty=1e-6, tol=1e-6,
                             max_iter=max_iter, start=start)
        fits += 1
        if not model.converged:
            unconverged.append(list(columns))
        return model, -penalized_nll(trial, y, model.weights, model.intercept, 0.0)

    selected = []
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


def assert_same_selection(X, y, significance, max_iter=200):
    stacked = loglik_feature_select(X, y, significance, max_iter)
    serial = serial_select(X, y, significance, max_iter)
    assert stacked.steps == serial.steps
    assert stacked.fits == serial.fits
    assert stacked.unconverged == serial.unconverged
    return stacked


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [selection.STACK_DOUBLES, 1, 500])
def test_selection_equals_serial_reference_on_random_data(seed, cap, monkeypatch):
    # cap 1 fits one candidate per stack; 500 a few, with a partial last stack
    monkeypatch.setattr(selection, "STACK_DOUBLES", cap)
    rng = np.random.default_rng(seed)
    n, d = 120, 9
    X = rng.normal(size=(n, d))
    X[:, 3] = rng.integers(0, 2, n)
    logit = -1.0 + 1.2 * X[:, 0] - 0.8 * X[:, 3] + 0.3 * X[:, 5]
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(float)
    assert len(assert_same_selection(X, y, significance=0.2)) >= 2


def test_selection_equals_serial_reference_on_collinear_columns():
    # duplicate and sum-of-columns designs, a rare column and an iteration
    # cap that leaves some candidate fits unconverged
    rng = np.random.default_rng(21)
    n = 150
    base = rng.normal(size=(n, 3))
    rare = np.zeros(n)
    rare[:3] = 1.0
    X = np.column_stack([base, base[:, 0], base[:, 0] + base[:, 1], rare, np.ones(n)])
    y = (rng.random(n) < 1 / (1 + np.exp(-2.0 * base[:, 0]))).astype(float)
    assert_same_selection(X, y, significance=0.5)
    assert assert_same_selection(X, y, significance=0.5, max_iter=2).unconverged


@pytest.fixture(scope="module")
def pipeline_m_train(tmp_path_factory):
    """The training matrix of the benchmark's ``pipeline_m`` workload at
    seed 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))   # workloads.py imports spans
        from workloads import PipelineWorkload
    cfg = pipeline.RunConfig.from_dict(dict(PipelineWorkload.config, seed=1))
    out = tmp_path_factory.mktemp("pipeline_m")
    for stage in (pipeline.stage_generate, pipeline.stage_episodes, pipeline.stage_features):
        stage(cfg, out)
    train, _ = train_test_split(pipeline._build_matrix(cfg, out, None), cfg.split_spec())
    return train


def test_selection_equals_serial_reference_on_pipeline_m(pipeline_m_train):
    stacked = assert_same_selection(pipeline_m_train.X, pipeline_m_train.y, significance=0.05)
    assert (len(stacked), stacked.fits) == (9, 1586)
