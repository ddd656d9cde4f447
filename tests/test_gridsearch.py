import io

import numpy as np
import pytest

from readmit.dataset import stratified_kfold
from readmit.errors import ConfigError
from readmit.evaluation import auc_score
from readmit.models import gridsearch
from readmit.models.forest import CodedMatrix, fit_random_forest, rf_predict_proba
from readmit.models.gridsearch import (
    expand_grid, grid_search, rf_fold_auc, svm_fold_auc, write_grid_csv,
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


# ntree crosses the 32-tree growth block; maxnodes 4 binds on 150 rows
# and 1000 does not. Neither group's largest cell comes last in its group.
ORACLE_GRID = {"ntree": [3, 35], "mtry": [1, 4], "nodesize": [1, 3], "maxnodes": [1000, 4]}


@pytest.mark.parametrize("grid,n,n_folds", [
    ({"ntree": [4, 8], "mtry": [2], "nodesize": [2], "maxnodes": [8]}, 120, 2),
    (ORACLE_GRID, 150, 3),
], ids=["one_group", "oracle_grid"])
def test_results_independent_of_jobs(grid, n, n_folds):
    X, y = small_problem(seed=6, n=n)
    folds = stratified_kfold(y, n_folds, seed=7)
    serial = grid_search(rf_fold_auc, grid, X, y, folds, seed=8, jobs=1)
    parallel = grid_search(rf_fold_auc, grid, X, y, folds, seed=8, jobs=2)
    assert serial.fold_aucs.tobytes() == parallel.fold_aucs.tobytes()
    assert serial.mean_aucs.tobytes() == parallel.mean_aucs.tobytes()
    assert serial.winner_index == parallel.winner_index


def test_worker_pool_capped_at_fold_count(monkeypatch):
    # A fake pool that maps serially: no process starts, however large jobs is.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(gridsearch, "ProcessPoolExecutor", SerialPool)
    X, y = small_problem(seed=18)
    folds = stratified_kfold(y, 2, seed=19)
    grid = {"C": [0.01, 0.1, 1.0], "epochs": [2]}
    for jobs in (2, 5000):
        result = grid_search(svm_fold_auc, grid, X, y, folds, seed=20, jobs=jobs)
        assert result.fold_aucs.shape == (3, 2)
    assert sizes == [2, 2]


def _captured(monkeypatch, name):
    """(keyword arguments, returned value) of every call through
    ``gridsearch.<name>``, in call order."""
    calls, original = [], getattr(gridsearch, name)

    def capture(*args, **kwargs):
        calls.append((kwargs, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(gridsearch, name, capture)
    return calls


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
    calls = _captured(monkeypatch, "fit_random_forest")
    grid = {"ntree": [2, 5], "mtry": [2], "nodesize": [1], "maxnodes": [4, 8]}
    grid_search(rf_fold_auc, grid, X, y, folds, seed=14)
    fold_of = {derive_seed(14, FOREST_GRID_STREAM, 2, 1, fold): fold for fold in (0, 1)}
    fitted = {(f.ntree, f.maxnodes, fold_of[f.seed]): f for _, f in calls}
    assert len(fitted) == len(calls) == 2 * len(expand_grid(grid))
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
    calls = _captured(monkeypatch, "fit_linear_svm")
    grid_search(svm_fold_auc, {"C": [0.1, 1.0], "epochs": [2]}, X, y, folds, seed=17)
    # fold-major: a fold is one unit of work
    assert [m.seed for _, m in calls] == [derive_seed(17, GRID_STREAM, cell, fold)
                                          for fold in (0, 1) for cell in (0, 1)]


def _assert_same_forest(a, b):
    assert len(a.trees) == len(b.trees)
    for s, t in zip(a.trees, b.trees):
        for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
            x, z = getattr(s, field), getattr(t, field)
            assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), field
    assert a.importances.tobytes() == b.importances.tobytes()
    assert (a.ntree, a.mtry, a.nodesize, a.maxnodes, a.seed) == (
        b.ntree, b.mtry, b.nodesize, b.maxnodes, b.seed)


@pytest.mark.parametrize("data_seed,n_folds,decimals", [(21, 2, 3), (22, 3, 0), (30, 3, 1)])
def test_every_cell_forest_equals_its_own_fit(monkeypatch, data_seed, n_folds, decimals):
    # One forest is grown per (mtry, nodesize) group and fold; every other
    # cell's forest is cut from it, and must be the forest that cell's
    # parameters and seed grow on their own. Rounding makes tied values.
    X, y = small_problem(seed=data_seed, n=150)
    X = X.round(decimals)
    folds = stratified_kfold(y, n_folds, seed=23)
    calls = _captured(monkeypatch, "fit_random_forest")
    result = grid_search(rf_fold_auc, ORACLE_GRID, X, y, folds, seed=24)
    configs = expand_grid(ORACLE_GRID)
    assert len(calls) == len(configs) * n_folds
    groups = {(c["mtry"], c["nodesize"]) for c in configs}
    assert sum("grown" not in kwargs for kwargs, _ in calls) == len(groups) * n_folds
    by_cell = {(f.ntree, f.mtry, f.nodesize, f.maxnodes, f.seed): f for _, f in calls}
    assert len(by_cell) == len(calls)
    budget_binds = False
    for fold, (fit_idx, val_idx) in enumerate(folds):
        for c, params in enumerate(configs):
            seed = derive_seed(24, FOREST_GRID_STREAM, params["mtry"], params["nodesize"], fold)
            alone = fit_random_forest(X[fit_idx], y[fit_idx], seed=seed, **params)
            cut = by_cell[(*params.values(), seed)]
            _assert_same_forest(cut, alone)
            assert result.fold_aucs[c, fold] == auc_score(
                rf_predict_proba(alone, X[val_idx]), y[val_idx])
            if params["maxnodes"] == 4:
                unbounded = by_cell[(*{**params, "maxnodes": 1000}.values(), seed)]
                budget_binds |= any(t.feature.size < u.feature.size
                                    for t, u in zip(cut.trees, unbounded.trees))
    assert budget_binds


def test_a_fold_codes_once_and_walks_each_ladder_once(monkeypatch):
    X, y = small_problem(seed=25, n=150)
    folds = stratified_kfold(y, 2, seed=26)
    fits, walks = [], []
    fit, nested = gridsearch.fit_random_forest, gridsearch.rf_nested_proba

    def capture_fit(*args, **kwargs):
        fits.append((args[0], kwargs, fit(*args, **kwargs)))
        return fits[-1][2]

    def capture_walk(forests, X):
        walks.append(list(forests))
        return nested(forests, X)

    monkeypatch.setattr(gridsearch, "fit_random_forest", capture_fit)
    monkeypatch.setattr(gridsearch, "rf_nested_proba", capture_walk)
    grid_search(rf_fold_auc, ORACLE_GRID, X, y, folds, seed=27)
    cells = len(expand_grid(ORACLE_GRID))
    assert len(fits) == cells * len(folds)
    codings = []
    for fold, (fit_idx, _) in enumerate(folds):
        calls = fits[fold * cells:(fold + 1) * cells]
        codings.append(calls[0][0])
        assert isinstance(codings[-1], CodedMatrix)
        assert codings[-1].X.tobytes() == X[fit_idx].tobytes()
        assert all(coded is codings[-1] for coded, _, _ in calls)
        # Each group fits its largest budget first, and most trees first
        # within a budget, whatever the grid's declared order.
        for g in range(0, cells, 4):
            order = [(k["maxnodes"], k["ntree"]) for _, k, _ in calls[g:g + 4]]
            assert order == [(1000, 35), (1000, 3), (4, 35), (4, 3)]
            first, *rest = (f for _, _, f in calls[g:g + 4])
            assert [k["grown"] for _, k, _ in calls[g + 1:g + 4]] == [first, first, rest[1]]
    assert codings[0] is not codings[1]
    # One walk per (group, budget, fold) over a ladder that shares its trees
    assert len(walks) == 4 * 2 * len(folds)
    for ladder in walks:
        assert [f.ntree for f in ladder] == [35, 3]
        assert all(a is b for a, b in zip(ladder[1].trees, ladder[0].trees))


@pytest.mark.parametrize("change", [
    {"mtry": 3}, {"nodesize": 1}, {"seed": 4}, {"columns": 4}, {"ntree": 6}, {"maxnodes": 9},
])
def test_cut_from_a_forest_it_does_not_nest_in_raises(change):
    X, y = small_problem(seed=28)
    params = dict(ntree=5, mtry=2, nodesize=2, maxnodes=8, seed=3)
    grown = fit_random_forest(X, y, **params)
    columns = change.pop("columns", X.shape[1])
    with pytest.raises(ValueError, match="cannot cut"):
        fit_random_forest(X[:, :columns], y, grown=grown, **{**params, **change})


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
