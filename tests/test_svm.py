import numpy as np
import pytest

from readmit.evaluation import auc_score
from readmit.models.svm import fit_linear_svm, svm_decision_scores
from readmit.seeding import SVM_STREAM, rng_for


def blobs(n_per_side=40, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.concatenate([
        rng.normal(-gap, 1.0, size=(n_per_side, 3)),
        rng.normal(+gap, 1.0, size=(n_per_side, 3)),
    ])
    y = np.array([0] * n_per_side + [1] * n_per_side)
    return X, y


def objective(model, X, y) -> float:
    """The fitted hinge objective (1/2)||w||^2 + C * sum hinge over the
    standardized features and the constant column."""
    w_aug = np.append(model.weights, model.intercept)
    margins = 1.0 - np.where(y == 1, 1.0, -1.0) * svm_decision_scores(model, X)
    return 0.5 * float(w_aug @ w_aug) + model.C * float(np.maximum(margins, 0.0).sum())


def objective_path(X, y, C, epochs, seed) -> list[float]:
    """The objective after each of epochs 1..``epochs``: a fit to e epochs
    is the same run stopped at epoch e."""
    return [objective(fit_linear_svm(X, y, C=C, epochs=e, seed=seed), X, y)
            for e in range(1, epochs + 1)]


def reference_weights(X, y, C, epochs, seed) -> np.ndarray:
    """Pegasos one step at a time, a scalar draw per step: the weights over
    the standardized features, then the intercept."""
    n, d = X.shape
    stds = np.where(X.std(axis=0) > 0.0, X.std(axis=0), 1.0)
    Z = np.ones((n, d + 1))
    Z[:, :d] = (X - X.mean(axis=0)) / stds
    y_pm = np.where(y == 1, 1.0, -1.0)
    lam, rng = 1.0 / (n * C), rng_for(seed, SVM_STREAM)
    w, w_avg = np.zeros(d + 1), np.zeros(d + 1)
    for t in range(1, epochs * n + 1):
        i = int(rng.random() * n)
        hit = y_pm[i] * (Z[i] @ w) < 1.0
        w *= 1.0 - 1.0 / t
        if hit:
            w += 1.0 / (lam * t) * y_pm[i] * Z[i]
        w_avg += (w - w_avg) / t
    return w_avg


class TestFit:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fit_equals_the_stepwise_reference_bit_for_bit(self, seed):
        X, y = blobs(gap=0.5, seed=seed)
        model = fit_linear_svm(X, y, C=0.3, epochs=3, seed=seed)
        expected = reference_weights(X, y, C=0.3, epochs=3, seed=seed)
        assert np.array_equal(np.append(model.weights, model.intercept), expected)

    def test_separable_data_ranks_perfectly(self):
        X, y = blobs(gap=3.0)
        model = fit_linear_svm(X, y, C=10.0, epochs=5, seed=1)
        assert auc_score(svm_decision_scores(model, X), y) == 1.0

    def test_objective_non_increasing_over_epoch_checkpoints(self):
        X, y = blobs(gap=1.0, seed=2)
        trace = objective_path(X, y, C=0.1, epochs=8, seed=3)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_determinism(self):
        X, y = blobs(seed=4)
        a = fit_linear_svm(X, y, C=0.5, epochs=4, seed=7)
        b = fit_linear_svm(X, y, C=0.5, epochs=4, seed=7)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_invalid_inputs_rejected(self):
        X, y = blobs()
        with pytest.raises(ValueError):
            fit_linear_svm(X, y, C=0.0)
        with pytest.raises(ValueError):
            fit_linear_svm(X, np.ones_like(y), C=1.0)

    @pytest.mark.parametrize("labels, message", [
        (lambda y: 2 * y, "labels must be 0 or 1, got 2 at row 40"),
        (lambda y: y - 1, "labels must be 0 or 1, got -1 at row 0"),
        (lambda y: y[:-1], r"79 labels of shape \(79,\) for 80 rows of X"),
        (lambda y: y[:, None], r"80 labels of shape \(80, 1\) for 80 rows of X"),
    ])
    def test_bad_labels_named(self, labels, message):
        X, y = blobs()
        with pytest.raises(ValueError, match=message):
            fit_linear_svm(X, labels(y), C=1.0)

    def test_duplicating_rows_and_halving_c_matches_trajectory(self):
        # Adjacent duplication with half the epochs takes the same update
        # steps over the same sampled rows, so the doubled run's epoch
        # checkpoints align with every second checkpoint of the base run.
        X, y = blobs(seed=5)
        X2, y2 = np.repeat(X, 2, axis=0), np.repeat(y, 2)
        aligned = objective_path(X, y, C=0.2, epochs=10, seed=11)[1::2]
        doubled_path = objective_path(X2, y2, C=0.1, epochs=5, seed=11)
        assert len(aligned) == len(doubled_path) == 5
        for a, b in zip(aligned, doubled_path):
            # The doubled objective sums each hinge twice at half the C.
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))
        base = fit_linear_svm(X, y, C=0.2, epochs=10, seed=11)
        doubled = fit_linear_svm(X2, y2, C=0.1, epochs=5, seed=11)
        ranks_a = np.argsort(svm_decision_scores(base, X), kind="stable")
        ranks_b = np.argsort(svm_decision_scores(doubled, X), kind="stable")
        assert np.array_equal(ranks_a, ranks_b)


class TestScores:
    def test_standardization_uses_train_statistics(self):
        X, y = blobs(seed=6)
        model = fit_linear_svm(X, y, C=1.0, epochs=3, seed=13)
        shifted = X + 100.0
        raw = svm_decision_scores(model, shifted)
        expected = ((shifted - model.means) / model.stds) @ model.weights + model.intercept
        assert np.array_equal(raw, expected)
