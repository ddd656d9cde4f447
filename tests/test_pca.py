import numpy as np
import pytest

from readmit.models.pca import fit_pca, pca_transform


class TestFitPca:
    def test_rank_one_data_needs_single_component(self):
        t = np.linspace(0, 1, 20)
        X = np.column_stack([t, 3 * t])      # exactly on a line
        transform = fit_pca(X, variance_target=0.95)
        assert transform.retained == 1
        assert abs(transform.explained[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matrix_matches_eigh_oracle(self, seed):
        # The oracle takes a route independent of fit_pca's eigensolver:
        # the correlation eigenvalues are the squared singular values of
        # Z / sqrt(n - 1), descending.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        transform = fit_pca(X)
        Z = (X - X.mean(0)) / X.std(0, ddof=1)
        ref_values = np.linalg.svd(Z / np.sqrt(len(X) - 1), compute_uv=False) ** 2
        assert np.max(np.abs(transform.eigenvalues - ref_values)) < 1e-8

    def test_orthonormal_components(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 5))
        transform = fit_pca(X)
        gram = transform.components.T @ transform.components
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 6))
        transform = fit_pca(X)
        assert np.all(np.diff(transform.eigenvalues) <= 1e-12)
        assert np.all(transform.eigenvalues >= 0)
        assert transform.explained.sum() <= 1.0 + 1e-12

    def test_retained_prefix_reaches_target(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))
        transform = fit_pca(X, variance_target=0.95)
        assert transform.explained[:transform.retained].sum() >= 0.95 - 1e-12
        if transform.retained > 1:
            assert transform.explained[:transform.retained - 1].sum() < 0.95

    def test_zero_variance_columns_dropped(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(20, 4))
        X[:, 2] = 7.0
        transform = fit_pca(X)
        assert transform.kept_columns.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("case", ["random", "repeated_eigenvalue"])
    def test_sign_rule_and_repeatable_bytes(self, case):
        if case == "random":
            X = np.random.default_rng(21).normal(size=(30, 5))
        else:
            # Orthogonal +-1 columns of a Sylvester-Hadamard matrix: the
            # correlation matrix is the identity, one eigenvalue 4 times.
            h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
            X = np.kron(np.kron(h2, h2), h2)[:, 1:5]
        transform = fit_pca(X, variance_target=1.0)
        if case == "repeated_eigenvalue":
            assert np.max(np.abs(transform.eigenvalues - 1.0)) < 1e-12
        C = transform.components
        largest = np.argmax(np.abs(C), axis=0)
        assert np.all(C[largest, np.arange(C.shape[1])] > 0)
        twin = fit_pca(X, variance_target=1.0)
        for name in ("means", "stds", "components", "eigenvalues", "explained"):
            assert getattr(twin, name).tobytes() == getattr(transform, name).tobytes()
        assert twin.retained == transform.retained

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((1, 3)))


class TestTransform:
    def test_train_mean_row_projects_to_zero(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 4))
        transform = fit_pca(X)
        projection = pca_transform(transform, X.mean(0, keepdims=True))
        assert np.max(np.abs(projection)) < 1e-10

    def test_full_projection_preserves_pairwise_distances(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(15, 4))
        transform = fit_pca(X, variance_target=1.0)
        Z = (X - transform.means) / transform.stds
        assert transform.retained == 4
        P = pca_transform(transform, X)
        for i in range(5):
            for j in range(5):
                original = np.linalg.norm(Z[i] - Z[j])
                projected = np.linalg.norm(P[i] - P[j])
                assert abs(original - projected) < 1e-10

    def test_inverse_transform_round_trip(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(20, 5))
        transform = fit_pca(X, variance_target=1.0)
        Z = (X - transform.means) / transform.stds
        assert transform.retained == 5
        back = pca_transform(transform, X) @ transform.components.T
        assert np.max(np.abs(back - Z)) < 1e-8

    def test_projected_train_variances_equal_eigenvalues(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        transform = fit_pca(X, variance_target=1.0)
        assert transform.retained == 5
        P = pca_transform(transform, X)
        variances = P.var(axis=0, ddof=1)
        assert np.max(np.abs(variances - transform.eigenvalues)) < 1e-8

    def test_test_rows_use_train_statistics(self):
        rng = np.random.default_rng(20)
        X_train = rng.normal(size=(30, 3))
        X_test = rng.normal(loc=5.0, size=(10, 3))
        transform = fit_pca(X_train)
        projected = pca_transform(transform, X_test)
        expected = ((X_test - transform.means) / transform.stds) \
            @ transform.components[:, :transform.retained]
        assert np.array_equal(projected, expected)
