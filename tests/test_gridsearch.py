import io

import numpy as np
import pytest

from readmit.dataset import stratified_kfold
from readmit.errors import ConfigError
from readmit.models import (
    expand_grid, grid_search, gridsearch, rf_fold_auc, svm_fold_auc, write_grid_csv,
)
from readmit.pipeline import DEFAULT_RF_GRID, DEFAULT_SVM_C_GRID
from readmit.seeding import FOREST_GRID_STREAM, GRID_STREAM, derive_seed


def small_problem(seed=0, n=120):
    rng = np.random.default_rng(seed)
    signal = rng.integers(0, 2, n).astype(float)
    X = np.column_stack([rng.normal(size=(n, 4)), signal])
    y = (rng.random(n) < np.where(signal == 1, 0.8, 0.2)).astype(np.int8)
    return X, y


def test_paper_rf_grid_has_96_configurations():
    assert len(expand_grid(DEFAULT_RF_GRID)) == 96


def test_paper_svm_grid_has_9_configurations():
    assert len(expand_grid({"C": DEFAULT_SVM_C_GRID, "epochs": [5]})) == 9


def test_grid_order_matches_declaration():
    configs = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert configs == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]


def test_empty_grid_rejected():
    with pytest.raises(ConfigError):
        expand_grid({})
    with pytest.raises(ConfigError):
        expand_grid({"a": []})


def test_winner_has_maximal_mean_auc():
    X, y = small_problem()
    folds = stratified_kfold(y, 3, seed=1)
    grid = {"ntree": [5, 15], "mtry": [1, 5], "nodesize": [2], "maxnodes": [16]}
    result = grid_search(rf_fold_auc, grid, X, y, folds, seed=2)
    assert len(result.configs) == 4
    assert np.all(result.mean_aucs[result.winner_index] >= result.mean_aucs)
    assert result.fold_aucs.shape == (4, 3)


def test_single_config_wins_trivially():
    X, y = small_problem(seed=3)
    folds = stratified_kfold(y, 2, seed=4)
    result = grid_search(svm_fold_auc, {"C": [0.1], "epochs": [2]}, X, y, folds, seed=5)
    assert result.winner_index == 0
    assert result.winner == {"C": 0.1, "epochs": 2}


def test_results_independent_of_jobs():
    X, y = small_problem(seed=6)
    folds = stratified_kfold(y, 2, seed=7)
    grid = {"ntree": [4, 8], "mtry": [2], "nodesize": [2], "maxnodes": [8]}
    serial = grid_search(rf_fold_auc, grid, X, y, folds, seed=8, jobs=1)
    parallel = grid_search(rf_fold_auc, grid, X, y, folds, seed=8, jobs=2)
    assert np.array_equal(serial.fold_aucs, parallel.fold_aucs)
    assert serial.winner_index == parallel.winner_index


def test_worker_pool_capped_at_cell_count(monkeypatch):
    # A fake pool that maps serially: no process starts, however large jobs is.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(gridsearch, "ProcessPoolExecutor", SerialPool)
    X, y = small_problem(seed=18)
    folds = stratified_kfold(y, 2, seed=19)
    grid = {"C": [0.01, 0.1, 1.0], "epochs": [2]}
    for jobs in (2, 5000):
        result = grid_search(svm_fold_auc, grid, X, y, folds, seed=20, jobs=jobs)
        assert result.fold_aucs.shape == (3, 2)
    assert sizes == [2, 3]


def _captured(monkeypatch, name):
    """Every value returned through ``gridsearch.<name>``, in call order."""
    returned, original = [], getattr(gridsearch, name)

    def capture(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(gridsearch, name, capture)
    return returned


def _assert_budget_prefix(small, large):
    """``small`` is ``large`` cut after the small tree's splits: the same
    first nodes, where a node the large tree split later is a leaf."""
    splits = int((small.feature >= 0).sum())
    m = small.feature.size
    assert m == 2 * splits + 1
    # split k creates nodes 2k+1 and 2k+2, so a node's split order is
    # (left - 1) // 2
    later = (large.feature[:m] >= 0) & ((large.left[:m] - 1) // 2 >= splits)
    assert np.array_equal(small.feature, np.where(later, -1, large.feature[:m]))
    assert np.array_equal(small.threshold, np.where(later, 0.0, large.threshold[:m]))
    assert np.array_equal(small.left, np.where(later, -1, large.left[:m]))
    assert np.array_equal(small.right, np.where(later, -1, large.right[:m]))
    assert np.array_equal(small.value, large.value[:m])
    assert np.array_equal(small.n_samples, large.n_samples[:m])


def test_forest_cells_nest_over_ntree_and_maxnodes(monkeypatch):
    # Cells that differ only in ntree or maxnodes share a seed per fold, so
    # fewer trees are a prefix and a smaller budget a budget prefix.
    X, y = small_problem(seed=12, n=160)
    folds = stratified_kfold(y, 2, seed=13)
    forests = _captured(monkeypatch, "fit_random_forest")
    grid = {"ntree": [2, 5], "mtry": [2], "nodesize": [1], "maxnodes": [4, 8]}
    grid_search(rf_fold_auc, grid, X, y, folds, seed=14)
    fitted = {(f.ntree, f.maxnodes, fold): f
              for f, fold in zip(forests, [0, 1] * len(expand_grid(grid)), strict=True)}
    for (_, _, fold), forest in fitted.items():
        assert forest.seed == derive_seed(14, FOREST_GRID_STREAM, 2, 1, fold)
    budget_binds = False
    for fold in (0, 1):
        for maxnodes in (4, 8):
            few, many = fitted[(2, maxnodes, fold)], fitted[(5, maxnodes, fold)]
            for a, b in zip(few.trees, many.trees[:2], strict=True):
                for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
        for ntree in (2, 5):
            for a, b in zip(fitted[(ntree, 4, fold)].trees, fitted[(ntree, 8, fold)].trees,
                            strict=True):
                _assert_budget_prefix(a, b)
                budget_binds |= a.feature.size < b.feature.size
    assert budget_binds


def test_svm_cells_keep_their_cell_seeds(monkeypatch):
    X, y = small_problem(seed=15)
    folds = stratified_kfold(y, 2, seed=16)
    models = _captured(monkeypatch, "fit_linear_svm")
    grid_search(svm_fold_auc, {"C": [0.1, 1.0], "epochs": [2]}, X, y, folds, seed=17)
    assert [m.seed for m in models] == [derive_seed(17, GRID_STREAM, cell, fold)
                                        for cell in (0, 1) for fold in (0, 1)]


def test_grid_csv_shape():
    X, y = small_problem(seed=9)
    folds = stratified_kfold(y, 2, seed=10)
    result = grid_search(svm_fold_auc, {"C": [0.1, 1.0], "epochs": [2]},
                         X, y, folds, seed=11)
    buffer = io.StringIO()
    write_grid_csv(result, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "C,epochs,fold_0_auc,fold_1_auc,mean_auc,winner"
    assert len(lines) == 3
    assert sum(line.endswith(",1") for line in lines[1:]) == 1
