"""Design-matrix construction: fixed-domain one-hot encoding, the 80/20
split, and stratified cross-validation folds.

Indicator columns cover each categorical's full declared domain (not just
observed levels), so column layout is identical across runs and across
train/test. Numeric features pass through unscaled.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .codes import CodeMappingConfig
from .features import COUNT, FAMILIES, SET, AdmissionFeatures
from .seeding import FOLD_STREAM, SPLIT_STREAM, rng_for
from .textio import write_csv


@dataclass
class FeatureMatrix:
    column_names: list[str]
    X: np.ndarray                      # (n, d) float64
    y: np.ndarray                      # (n,) int8
    row_ids: list[tuple[str, str]]     # (user_id, admission_id)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices)
        return FeatureMatrix(
            column_names=self.column_names,
            X=self.X[idx],
            y=self.y[idx],
            row_ids=[self.row_ids[i] for i in idx],
        )


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    train_fraction: float = 0.8
    user_level: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def feature_columns(config: CodeMappingConfig) -> list[str]:
    """Deterministic column universe, grouped by predictor family."""
    return [name for family in FAMILIES for name in family.columns(config)]


def one_hot_encode(features: list[AdmissionFeatures], config: CodeMappingConfig) -> FeatureMatrix:
    """Each family's columns filled for all rows at once; a level outside its
    family's domain, or a count no float holds, raises ValueError naming the admission."""
    if not features:
        raise ValueError("cannot encode an empty feature list")
    cols = feature_columns(config)
    index = {name: j for j, name in enumerate(cols)}
    X = np.zeros((len(features), len(cols)), dtype=np.float64)
    for family in FAMILIES:
        values = [getattr(f, family.field) for f in features]
        if family.kind == COUNT:
            try:
                X[:, index[family.field]] = values
            except OverflowError:
                f = next(f for f, v in zip(features, values) if v > sys.float_info.max)
                raise ValueError(f"admission {f.user_id}/{f.admission_id}: {family.field} "
                                 "value too large for a float") from None
            continue
        position = dict(zip(family.domain(config), (index[c] for c in family.columns(config))))
        rows = np.arange(len(features))
        if family.kind == SET:
            rows = np.repeat(rows, [len(levels) for levels in values])
            values = [level for levels in values for level in levels]
        try:
            X[rows, [position[level] for level in values]] = 1.0
        except KeyError as exc:
            f = features[rows[values.index(exc.args[0])]]
            raise ValueError(f"admission {f.user_id}/{f.admission_id}: {family.field} "
                             f"value {exc.args[0]!r} outside the declared domain") from None
    y = np.array([f.readmitted_within_30d for f in features], dtype=np.int8)
    return FeatureMatrix(column_names=cols, X=X, y=y,
                         row_ids=[(f.user_id, f.admission_id) for f in features])


def train_test_split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded permutation split; the first ceil(train_fraction * n) rows of
    the permutation form the training set.

    With ``user_level`` set, whole users are assigned to a side instead
    (permute users, fill the training side until it reaches the target row
    count).
    """
    n = matrix.n_rows
    n_train = int(np.ceil(spec.train_fraction * n))
    rng = rng_for(spec.seed, SPLIT_STREAM)
    if not spec.user_level:
        perm = rng.permutation(n)
        return matrix.subset(perm[:n_train]), matrix.subset(perm[n_train:])
    users = sorted({u for u, _ in matrix.row_ids})
    order = rng.permutation(len(users))
    rows_by_user: dict[str, list[int]] = {}
    for i, (u, _) in enumerate(matrix.row_ids):
        rows_by_user.setdefault(u, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for j in order:
        rows = rows_by_user[users[j]]
        (train_idx if len(train_idx) < n_train else test_idx).extend(rows)
    return matrix.subset(train_idx), matrix.subset(test_idx)


def stratified_kfold(y, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition the row indices of 0/1 labels ``y`` into k validation
    folds with per-fold positive counts differing by at most one; returns
    (fit, validation) index pairs, each side ascending.

    The positives, then the negatives, each in a seeded permutation, are
    dealt to the folds in turn.
    """
    y = np.asarray(y)
    n = len(y)
    if not 2 <= k <= n:
        raise ValueError(f"fold count {k} must be in [2, {n}]")
    rng = rng_for(seed, FOLD_STREAM)
    fold = np.full(n, -1, dtype=np.intp)
    offset = 0
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        fold[idx[rng.permutation(len(idx))]] = (offset + np.arange(len(idx))) % k
        offset += len(idx)
    return [(np.flatnonzero(fold != i), np.flatnonzero(fold == i)) for i in range(k)]


def write_matrix_csv(matrix: FeatureMatrix, dest):
    write_csv(dest, ["user_id", "admission_id", *matrix.column_names, "target"], (
        [user_id, admission_id, *(repr(v) for v in x.tolist()), str(int(y))]
        for (user_id, admission_id), x, y in zip(matrix.row_ids, matrix.X, matrix.y)
    ))
