"""Exhaustive hyperparameter search over shared cross-validation folds.

Every configuration in the Cartesian product is scored by mean validation
AUC over the same fold set; the winner is the maximal mean, ties broken by
earliest grid position. The unit of work is a fold: an evaluator such as
``rf_fold_auc`` scores every configuration on one fold, and
``grid_search`` maps the folds over its worker pool (at most one process
per fold). Each (configuration, fold) seed derives from the master seed,
so results do not depend on evaluation order or worker count. An SVM
cell seeds from its grid index and fold. A forest cell seeds from its
(mtry, nodesize) and fold, so the cells of one (mtry, nodesize) group
share their seed on a fold, and their forests nest: fewer trees are a
prefix, and a smaller ``maxnodes`` cuts each tree after its first splits
(``forest.py``). So a fold codes its rows once and grows only each
group's first cell in the order largest ``maxnodes``, then most trees.
Each later cell is cut (``fit_random_forest(..., grown=...)``), bit for
bit, from the cell before it at its budget, or from the grown forest at a
new budget, so a budget's cells share their trees, scored in one walk.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from ..errors import ConfigError
from ..evaluation import auc_score
from ..seeding import FOREST_GRID_STREAM, GRID_STREAM, derive_seed
from ..textio import write_csv
from .forest import CodedMatrix, fit_random_forest, rf_nested_proba
from .svm import fit_linear_svm, svm_decision_scores


@dataclass
class GridSearchResult:
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


def rf_fold_auc(X, y, fit_idx, val_idx, configs: list[dict], seed: int,
                fold: int) -> list[float]:
    """Each forest configuration's validation AUC on one fold: its rows coded
    once, one forest grown per (mtry, nodesize) group, the others cut."""
    coded, y_fit, X_val, y_val = CodedMatrix(X[fit_idx]), y[fit_idx], X[val_idx], y[val_idx]
    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(configs):
        groups.setdefault((params["mtry"], params["nodesize"]), []).append(i)
    aucs = [0.0] * len(configs)
    for (mtry, nodesize), cells in groups.items():
        group_seed = derive_seed(seed, FOREST_GRID_STREAM, mtry, nodesize, fold)
        # A Cartesian grid's first cell in this order holds every other.
        cells.sort(key=lambda i: (-configs[i]["maxnodes"], -configs[i]["ntree"]))
        grown = fit_random_forest(coded, y_fit, seed=group_seed, **configs[cells[0]])
        for _, ladder in groupby(cells, key=lambda i: configs[i]["maxnodes"]):
            ladder, forests, source = list(ladder), [], grown
            for i in ladder:
                source = grown if i == cells[0] else fit_random_forest(
                    coded, y_fit, seed=group_seed, grown=source, **configs[i])
                forests.append(source)
            for i, proba in zip(ladder, rf_nested_proba(forests, X_val)):
                aucs[i] = auc_score(proba, y_val)
    return aucs


def svm_fold_auc(X, y, fit_idx, val_idx, configs: list[dict], seed: int,
                 fold: int) -> list[float]:
    """Each SVM configuration's validation AUC on one fold."""
    X_fit, y_fit, X_val, y_val = X[fit_idx], y[fit_idx], X[val_idx], y[val_idx]
    aucs = []
    for i, params in enumerate(configs):
        model = fit_linear_svm(X_fit, y_fit, seed=derive_seed(seed, GRID_STREAM, i, fold), **params)
        aucs.append(auc_score(svm_decision_scores(model, X_val), y_val))
    return aucs


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
    n = len(folds)
    fit_idx, val_idx = zip(*folds)
    units = (evaluator, [X] * n, [y] * n, fit_idx, val_idx, [configs] * n, [seed] * n, range(n))
    if jobs > 1:
        # A fork-started pool starts all its workers on the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
            columns = list(pool.map(*units))
    else:
        columns = list(map(*units))
    # C order, one row per configuration: each mean sums a contiguous row.
    fold_aucs = np.array(columns, dtype=np.float64).T.copy()
    mean_aucs = fold_aucs.mean(axis=1)
    return GridSearchResult(
        configs=configs,
        fold_aucs=fold_aucs,
        mean_aucs=mean_aucs,
        winner_index=int(np.argmax(mean_aucs)),
    )


def write_grid_csv(result: GridSearchResult, dest):
    names = list(result.configs[0])
    n_folds = result.fold_aucs.shape[1]
    header = names + [f"fold_{i}_auc" for i in range(n_folds)] + ["mean_auc", "winner"]
    write_csv(dest, header, (
        [str(config[p]) for p in names]
        + [repr(v) for v in fold_aucs]
        + [repr(mean_auc), "1" if i == result.winner_index else "0"]
        for i, (config, fold_aucs, mean_auc) in enumerate(zip(
            result.configs, result.fold_aucs.tolist(), result.mean_aucs.tolist()))
    ))
