import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.evaluation import auc_score
from readmit.models.logistic import (
    LogisticModel, fit_logistic, fit_logistic_stack, nll_gradient, penalized_nll,
    predict_proba, sigmoid,
)
from readmit.models.selection import chi2_sf_1df, loglik_feature_select


def random_instance(seed, n=5, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    y[0], y[1] = 0.0, 1.0
    return X, y


class TestGradient:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_finite_differences(self, seed):
        X, y = random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        w = rng.normal(size=X.shape[1])
        b = float(rng.normal())
        l2 = 0.05
        grad_w, grad_b = nll_gradient(X, y, w, b, l2)
        eps = 1e-6
        for j in range(X.shape[1]):
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[j] += eps
            w_lo[j] -= eps
            fd = (penalized_nll(X, y, w_hi, b, l2) - penalized_nll(X, y, w_lo, b, l2)) / (2 * eps)
            assert abs(fd - grad_w[j]) / max(abs(fd), 1e-8) < 1e-4
        fd_b = (penalized_nll(X, y, w, b + eps, l2) - penalized_nll(X, y, w, b - eps, l2)) / (2 * eps)
        assert abs(fd_b - grad_b) / max(abs(fd_b), 1e-8) < 1e-4


class TestFit:
    def test_zero_weights_predict_half(self):
        model = LogisticModel(weights=np.zeros(4), intercept=0.0, l2_penalty=0.0,
                              converged=True, n_iter=0, final_nll=0.0)
        probs = predict_proba(model, np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(probs, 0.5)

    def test_perfectly_correlated_feature_reaches_auc_one(self):
        X = np.linspace(-1, 1, 30).reshape(-1, 1)
        y = (X[:, 0] > 0).astype(float)
        model = fit_logistic(X, y, l2_penalty=0.01)
        assert auc_score(predict_proba(model, X), y) == 1.0

    def test_single_class_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            fit_logistic(X, np.ones(5))

    @pytest.mark.parametrize("labels, message", [
        ([0.0, 1.0, 0.0, 1.0, 0.0, 2.0], "labels must be 0 or 1, got 2.0 at row 5"),
        ([0.0, 1.0, np.nan, 1.0, 0.0, 1.0], "labels must be 0 or 1, got nan at row 2"),
        ([0, 1, 0, 1, 0], r"5 labels of shape \(5,\) for 6 rows of X"),
    ])
    def test_bad_labels_named(self, labels, message):
        X = np.random.default_rng(3).normal(size=(2, 6, 2))
        with pytest.raises(ValueError, match=message):
            fit_logistic_stack(X, np.array(labels))

    def test_monotone_descent_and_convergence_report(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 4))
        beta = np.array([1.5, -2.0, 0.0, 0.5])
        y = (rng.random(100) < 1 / (1 + np.exp(-X @ beta))).astype(float)
        nlls = []
        weights = np.zeros(4)
        intercept = 0.0
        # re-fit with increasing iteration caps; final nll must be non-increasing
        for cap in (1, 3, 10, 50, 400):
            model = fit_logistic(X, y, l2_penalty=1e-3, max_iter=cap)
            nlls.append(model.final_nll)
        assert all(b <= a + 1e-12 for a, b in zip(nlls, nlls[1:]))
        model = fit_logistic(X, y, l2_penalty=1e-3, tol=1e-6, max_iter=2000)
        assert model.converged
        gw, gb = nll_gradient(X, y, model.weights, model.intercept, 1e-3)
        assert max(np.max(np.abs(gw)), abs(gb)) < 1e-6

    def test_saturated_intercept_probability(self):
        model = LogisticModel(weights=np.zeros(1), intercept=30.0, l2_penalty=0.0,
                              converged=True, n_iter=0, final_nll=0.0)
        prob = predict_proba(model, np.zeros((1, 1)))[0]
        assert abs(prob - 1.0) < 1e-9

    @given(st.floats(-30, 30))
    def test_sigmoid_bounds_and_monotonicity(self, z):
        p = float(sigmoid(np.array([z]))[0])
        assert 0.0 < p < 1.0
        assert float(sigmoid(np.array([z + 1.0]))[0]) > p

    def test_monotonic_in_positive_weight_feature(self):
        model = LogisticModel(weights=np.array([2.0]), intercept=-1.0, l2_penalty=0.0,
                              converged=True, n_iter=0, final_nll=0.0)
        grid = np.linspace(-3, 3, 11).reshape(-1, 1)
        probs = predict_proba(model, grid)
        assert np.all(np.diff(probs) > 0)


class TestFeatureSelection:
    def test_planted_predictor_selected_first(self):
        rng = np.random.default_rng(7)
        n = 400
        signal = rng.integers(0, 2, n).astype(float)
        noise = rng.normal(size=(n, 8))
        y = (rng.random(n) < np.where(signal == 1, 0.8, 0.2)).astype(float)
        X = np.column_stack([noise[:, :4], signal, noise[:, 4:]])
        selected = loglik_feature_select(X, y, significance=0.05).columns
        assert selected[0] == 4

    def test_permuted_labels_select_near_nothing(self):
        rng = np.random.default_rng(11)
        n, d = 300, 10
        X = rng.normal(size=(n, d))
        y = rng.permutation(np.repeat([0.0, 1.0], n // 2))
        selected = loglik_feature_select(X, y, significance=0.05).columns
        # forward selection over d null columns admits roughly
        # significance * d false positives
        assert len(selected) <= 3

    def test_zero_columns_selects_nothing(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert loglik_feature_select(np.empty((4, 0)), y).columns == []

    def test_constant_columns_skipped(self):
        rng = np.random.default_rng(3)
        n = 200
        signal = rng.integers(0, 2, n).astype(float)
        y = (rng.random(n) < np.where(signal == 1, 0.9, 0.1)).astype(float)
        X = np.column_stack([np.ones(n), signal])
        assert loglik_feature_select(X, y).columns == [1]


def g_statistic(x, y):
    """2x2 G-statistic 2 * sum O ln(O / E) of a binary column against the
    labels: the likelihood-ratio statistic in closed form."""
    observed = np.array([[np.sum((x == a) & (y == b)) for b in (0, 1)] for a in (0, 1)],
                        dtype=float)
    expected = observed.sum(1, keepdims=True) * observed.sum(0, keepdims=True) / len(y)
    return 2.0 * float(np.sum(observed * np.log(observed / expected)))


def unpenalized_loglik(X, y):
    model = fit_logistic(X, y, l2_penalty=1e-6, tol=1e-6, max_iter=200)
    return -penalized_nll(X, y, model.weights, model.intercept, 0.0)


class TestLikelihoodRatioOracles:
    @pytest.mark.parametrize("seed", range(5))
    def test_statistic_equals_two_by_two_g_statistic(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        x = rng.integers(0, 2, n).astype(float)
        y = (rng.random(n) < np.where(x == 1, 0.35, 0.15)).astype(float)
        selection = loglik_feature_select(x[:, None], y, significance=0.999)
        assert selection.columns == [0]
        expected = g_statistic(x, y)
        assert abs(selection.steps[0].statistic - expected) <= 1e-6 * expected
        assert selection.steps[0].p_value == chi2_sf_1df(selection.steps[0].statistic)

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_started_statistics_equal_cold_fits(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 500
        X = rng.integers(0, 2, (n, 6)).astype(float)
        logit = -1.5 + 1.2 * X[:, 1] - 1.0 * X[:, 4]
        y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(float)
        selection = loglik_feature_select(X, y, significance=0.01)
        assert len(selection) >= 2
        assert selection.fits > len(selection) and not selection.unconverged
        cold_ll = [unpenalized_loglik(X[:, :0], y)]
        for k, step in enumerate(selection.steps):
            cold_ll.append(unpenalized_loglik(X[:, selection.columns[:k + 1]], y))
            cold = 2.0 * (cold_ll[-1] - cold_ll[-2])
            assert abs(step.statistic - cold) <= 1e-6 * cold

    def test_rare_all_negative_column_converges(self):
        rng = np.random.default_rng(9)
        n = 500
        noise = rng.normal(size=n)
        y = (rng.random(n) < 0.2).astype(float)
        rare = np.zeros(n)
        rare[np.flatnonzero(y == 0)[:3]] = 1.0
        X = np.column_stack([noise, rare])
        model = fit_logistic(X, y, l2_penalty=1e-4, tol=1e-6, max_iter=500)
        assert model.converged
        gw, gb = nll_gradient(X, y, model.weights, model.intercept, 1e-4)
        assert max(np.max(np.abs(gw)), abs(gb)) < 1e-6
        assert model.weights[1] < -5.0

    def test_start_at_optimum_takes_no_step(self):
        X, y = random_instance(4, n=60, d=3)
        model = fit_logistic(X, y, l2_penalty=1e-3)
        again = fit_logistic(X, y, l2_penalty=1e-3, start=(model.weights, model.intercept))
        assert again.converged and again.n_iter == 0
        assert np.array_equal(again.weights, model.weights)

    def test_unconverged_candidate_fits_are_reported(self):
        X, y = random_instance(2, n=80, d=3)
        selection = loglik_feature_select(X, y, significance=0.999, max_iter=1)
        assert selection.unconverged
        assert len(selection.unconverged) <= selection.fits


def test_chi2_survival_reference_values():
    # classic table values for one degree of freedom
    assert abs(chi2_sf_1df(3.841) - 0.05) < 5e-4
    assert abs(chi2_sf_1df(6.635) - 0.01) < 5e-4
    assert chi2_sf_1df(0.0) == 1.0
