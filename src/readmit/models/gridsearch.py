"""Exhaustive hyperparameter search over shared cross-validation folds.

Every configuration in the Cartesian product is scored by mean validation
AUC over the same fold set; the winner is the maximal mean, ties broken by
earliest grid position. Each (configuration, fold) seed derives from the
master seed and the tags the evaluator's ``seed_tags`` gives, so results do
not depend on evaluation order or worker count. An SVM cell's tags are its
grid index and fold. A forest cell's are its (mtry, nodesize) and fold:
cells that differ only in ntree or maxnodes share their seed, so of two
such forests the one with fewer trees is a prefix of the other and each
tree with the smaller budget is a budget prefix of its larger-budget tree
(``forest.py``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from ..errors import ConfigError
from ..evaluation import auc_score
from ..seeding import FOREST_GRID_STREAM, GRID_STREAM, derive_seed
from ..textio import write_csv
from .forest import fit_random_forest, rf_predict_proba
from .svm import fit_linear_svm, svm_decision_scores


@dataclass
class GridSearchResult:
    param_names: list[str]
    configs: list[dict]
    fold_aucs: np.ndarray     # (n_configs, n_folds)
    mean_aucs: np.ndarray
    winner_index: int

    @property
    def winner(self) -> dict:
        return self.configs[self.winner_index]


def expand_grid(grid: dict[str, list]) -> list[dict]:
    """Cartesian product preserving declared parameter and value order."""
    if not grid or any(not values for values in grid.values()):
        raise ConfigError(f"empty parameter grid: {grid!r}")
    names = list(grid)
    return [dict(zip(names, combo)) for combo in product(*grid.values())]


def rf_fold_auc(X, y, fit_idx, val_idx, params: dict, seed: int) -> float:
    model = fit_random_forest(X[fit_idx], y[fit_idx], seed=seed, **params)
    return auc_score(rf_predict_proba(model, X[val_idx]), y[val_idx])


def svm_fold_auc(X, y, fit_idx, val_idx, params: dict, seed: int) -> float:
    model = fit_linear_svm(X[fit_idx], y[fit_idx], seed=seed, **params)
    return auc_score(svm_decision_scores(model, X[val_idx]), y[val_idx])


# A (configuration, fold) seeds from its evaluator's ``seed_tags``: an
# attribute, not an identity test, so a wrapper made with functools.wraps
# seeds as the function it wraps.
rf_fold_auc.seed_tags = lambda params, config_index, fold_index: (
    FOREST_GRID_STREAM, params["mtry"], params["nodesize"], fold_index)
svm_fold_auc.seed_tags = lambda params, config_index, fold_index: (
    GRID_STREAM, config_index, fold_index)


def _eval_config(config_index, *, evaluator, X, y, folds, configs, seed):
    params = configs[config_index]
    return [
        evaluator(X, y, fit_idx, val_idx, params,
                  derive_seed(seed, *evaluator.seed_tags(params, config_index, fold_index)))
        for fold_index, (fit_idx, val_idx) in enumerate(folds)
    ]


def grid_search(
    evaluator,
    grid: dict[str, list],
    X,
    y,
    folds,
    seed: int,
    jobs: int = 1,
) -> GridSearchResult:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    configs = expand_grid(grid)
    worker = partial(_eval_config, evaluator=evaluator, X=X, y=y,
                     folds=folds, configs=configs, seed=seed)
    if jobs > 1:
        # A fork-started pool starts all its workers on the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            rows = list(pool.map(worker, range(len(configs))))
    else:
        rows = [worker(i) for i in range(len(configs))]
    fold_aucs = np.array(rows, dtype=np.float64)
    mean_aucs = fold_aucs.mean(axis=1)
    return GridSearchResult(
        param_names=list(grid),
        configs=configs,
        fold_aucs=fold_aucs,
        mean_aucs=mean_aucs,
        winner_index=int(np.argmax(mean_aucs)),
    )


def write_grid_csv(result: GridSearchResult, dest):
    n_folds = result.fold_aucs.shape[1]
    header = (result.param_names + [f"fold_{i}_auc" for i in range(n_folds)]
              + ["mean_auc", "winner"])
    write_csv(dest, header, (
        [str(config[p]) for p in result.param_names]
        + [repr(v) for v in fold_aucs]
        + [repr(mean_auc), "1" if i == result.winner_index else "0"]
        for i, (config, fold_aucs, mean_auc) in enumerate(zip(
            result.configs, result.fold_aucs.tolist(), result.mean_aucs.tolist()))
    ))
