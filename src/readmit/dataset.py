"""Design-matrix construction: fixed-domain one-hot encoding, the 80/20
split, and stratified cross-validation folds.

Indicator columns cover each categorical's full declared domain (not just
observed levels), so column layout is identical across runs and across
train/test. Numeric features pass through unscaled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .claims import ETHNICITIES, GENDERS, SCHEME_TYPES
from .codes import ADMITTING_DIAGNOSIS_LEVELS, COMORBIDITY_NAMES, CodeMappingConfig
from .features import AGE_GROUP_NAMES, MEDICATION_CATEGORIES, AdmissionFeatures
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
    fold_count: int = 10
    user_level: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.fold_count < 2:
            raise ValueError("fold_count must be at least 2")


def _sanitize(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z]+", "_", name).strip("_")


def feature_columns(config: CodeMappingConfig) -> list[str]:
    """Deterministic column universe, grouped by predictor family."""
    cols: list[str] = []
    cols += [f"comorb_{n}" for n in COMORBIDITY_NAMES]
    cols += [f"gender_{g}" for g in GENDERS]
    cols += [f"age_{g}" for g in AGE_GROUP_NAMES]
    cols += [f"ethnicity_{e}" for e in ETHNICITIES]
    cols += [f"scheme_{s}" for s in SCHEME_TYPES]
    cols.append("los_days")
    cols += [f"med_{c}" for c in MEDICATION_CATEGORIES]
    cols += ["n_prev_admissions", "n_prev_ed_admissions"]
    cols += [f"admitdx_{_sanitize(level)}" for level in ADMITTING_DIAGNOSIS_LEVELS]
    cols.append("n_prev_hospital_visits")
    cols += [f"proc_{i}" for i in config.ccs_ids()]
    return cols


def _check_level(value, domain, what):
    if value not in domain:
        raise ValueError(f"{what} value {value!r} outside declared domain")


def one_hot_encode(features: list[AdmissionFeatures], config: CodeMappingConfig) -> FeatureMatrix:
    if not features:
        raise ValueError("cannot encode an empty feature list")
    cols = feature_columns(config)
    index = {name: i for i, name in enumerate(cols)}
    ccs_ids = set(config.ccs_ids())
    X = np.zeros((len(features), len(cols)), dtype=np.float64)
    y = np.zeros(len(features), dtype=np.int8)
    row_ids = []
    for r, f in enumerate(features):
        _check_level(f.gender, GENDERS, "gender")
        _check_level(f.age_group, AGE_GROUP_NAMES, "age_group")
        _check_level(f.ethnicity, ETHNICITIES, "ethnicity")
        _check_level(f.scheme_type, SCHEME_TYPES, "scheme_type")
        _check_level(f.admitting_diagnosis, ADMITTING_DIAGNOSIS_LEVELS, "admitting_diagnosis")
        for name in f.comorbidities:
            _check_level(name, COMORBIDITY_NAMES, "comorbidity")
            X[r, index[f"comorb_{name}"]] = 1.0
        X[r, index[f"gender_{f.gender}"]] = 1.0
        X[r, index[f"age_{f.age_group}"]] = 1.0
        X[r, index[f"ethnicity_{f.ethnicity}"]] = 1.0
        X[r, index[f"scheme_{f.scheme_type}"]] = 1.0
        X[r, index["los_days"]] = float(f.los_days)
        for cat in f.medication_categories:
            _check_level(cat, MEDICATION_CATEGORIES, "medication category")
            X[r, index[f"med_{cat}"]] = 1.0
        X[r, index["n_prev_admissions"]] = float(f.n_prev_admissions)
        X[r, index["n_prev_ed_admissions"]] = float(f.n_prev_ed_admissions)
        X[r, index[f"admitdx_{_sanitize(f.admitting_diagnosis)}"]] = 1.0
        X[r, index["n_prev_hospital_visits"]] = float(f.n_prev_hospital_visits)
        for ccs in f.procedure_categories:
            if ccs not in ccs_ids:
                raise ValueError(f"CCS category {ccs} not in the mapping file")
            X[r, index[f"proc_{ccs}"]] = 1.0
        y[r] = 1 if f.readmitted_within_30d else 0
        row_ids.append((f.user_id, f.admission_id))
    return FeatureMatrix(column_names=cols, X=X, y=y, row_ids=row_ids)


def _single_level(row, index, prefix, domain, what):
    hits = [level for level in domain if row[index[f"{prefix}{level}"]] == 1.0]
    if len(hits) != 1:
        raise ValueError(f"row does not encode exactly one {what} level")
    return hits[0]


def decode_features(matrix: FeatureMatrix, config: CodeMappingConfig) -> list[AdmissionFeatures]:
    """Inverse of :func:`one_hot_encode` on declared-domain rows."""
    index = {name: i for i, name in enumerate(matrix.column_names)}
    sanitized_dx = {_sanitize(level): level for level in ADMITTING_DIAGNOSIS_LEVELS}
    out = []
    for r in range(matrix.n_rows):
        row = matrix.X[r]
        user_id, admission_id = matrix.row_ids[r]
        dx_key = _single_level(row, index, "admitdx_",
                               [ _sanitize(l) for l in ADMITTING_DIAGNOSIS_LEVELS ],
                               "admitting diagnosis")
        out.append(AdmissionFeatures(
            user_id=user_id,
            admission_id=admission_id,
            comorbidities=frozenset(
                n for n in COMORBIDITY_NAMES if row[index[f"comorb_{n}"]] == 1.0
            ),
            gender=_single_level(row, index, "gender_", GENDERS, "gender"),
            age_group=_single_level(row, index, "age_", AGE_GROUP_NAMES, "age group"),
            ethnicity=_single_level(row, index, "ethnicity_", ETHNICITIES, "ethnicity"),
            scheme_type=_single_level(row, index, "scheme_", SCHEME_TYPES, "scheme type"),
            los_days=int(row[index["los_days"]]),
            medication_categories=frozenset(
                c for c in MEDICATION_CATEGORIES if row[index[f"med_{c}"]] == 1.0
            ),
            n_prev_admissions=int(row[index["n_prev_admissions"]]),
            n_prev_ed_admissions=int(row[index["n_prev_ed_admissions"]]),
            admitting_diagnosis=sanitized_dx[dx_key],
            n_prev_hospital_visits=int(row[index["n_prev_hospital_visits"]]),
            procedure_categories=frozenset(
                i for i in config.ccs_ids() if row[index[f"proc_{i}"]] == 1.0
            ),
            readmitted_within_30d=bool(matrix.y[r]),
        ))
    return out


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
    """Partition row indices into k validation folds with per-fold positive
    counts differing by at most one; returns (fit, validation) index pairs.
    """
    y = np.asarray(y)
    n = len(y)
    if not 2 <= k <= n:
        raise ValueError(f"fold count {k} must be in [2, {n}]")
    rng = rng_for(seed, FOLD_STREAM)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        for j, row in enumerate(idx):
            folds[(offset + j) % k].append(int(row))
        offset += len(idx)
    out = []
    for i in range(k):
        val = np.array(sorted(folds[i]), dtype=np.intp)
        fit = np.array(sorted(x for j in range(k) if j != i for x in folds[j]), dtype=np.intp)
        out.append((fit, val))
    return out


def write_matrix_csv(matrix: FeatureMatrix, dest):
    write_csv(dest, ["user_id", "admission_id", *matrix.column_names, "target"], (
        [user_id, admission_id, *(repr(v) for v in x.tolist()), str(int(y))]
        for (user_id, admission_id), x, y in zip(matrix.row_ids, matrix.X, matrix.y)
    ))
