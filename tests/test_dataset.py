import hashlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.claims import ETHNICITIES, GENDERS, SCHEME_TYPES
from readmit.codes import ADMITTING_DIAGNOSIS_LEVELS, COMORBIDITY_NAMES
from readmit.dataset import (
    FeatureMatrix, SplitSpec, feature_columns, one_hot_encode,
    stratified_kfold, train_test_split, write_matrix_csv,
)
from readmit.features import (
    AGE_GROUP_NAMES, COUNT, FAMILIES, MEDICATION_CATEGORIES, SET, AdmissionFeatures,
)
from readmit.seeding import FOLD_STREAM, rng_for

from conftest import PINNED_FEATURES


@st.composite
def feature_bundles(draw, mappings):
    return AdmissionFeatures(
        user_id=f"U{draw(st.integers(0, 99)):03d}",
        admission_id=f"A{draw(st.integers(0, 999)):04d}",
        comorbidities=frozenset(draw(st.sets(st.sampled_from(COMORBIDITY_NAMES), max_size=4))),
        gender=draw(st.sampled_from(GENDERS)),
        age_group=draw(st.sampled_from(AGE_GROUP_NAMES)),
        ethnicity=draw(st.sampled_from(ETHNICITIES)),
        scheme_type=draw(st.sampled_from(SCHEME_TYPES)),
        los_days=draw(st.integers(1, 60)),
        medication_categories=frozenset(draw(st.sets(st.sampled_from(MEDICATION_CATEGORIES), max_size=5))),
        n_prev_admissions=draw(st.integers(0, 20)),
        n_prev_ed_admissions=draw(st.integers(0, 20)),
        admitting_diagnosis=draw(st.sampled_from(ADMITTING_DIAGNOSIS_LEVELS)),
        n_prev_hospital_visits=draw(st.integers(0, 20)),
        procedure_categories=frozenset(draw(st.sets(st.sampled_from(mappings.ccs_ids()), max_size=3))),
        readmitted_within_30d=draw(st.booleans()),
    )


def make_bundles(mappings):
    return st.lists(feature_bundles(mappings), min_size=1, max_size=12)


def test_column_universe_is_fixed_and_deterministic(mappings):
    cols = feature_columns(mappings)
    assert cols == feature_columns(mappings)
    assert len(cols) == len(set(cols))
    assert sum(c.startswith("comorb_") for c in cols) == 30
    assert sum(c.startswith("med_") for c in cols) == 100
    assert sum(c.startswith("admitdx_") for c in cols) == 19
    assert sum(c.startswith("age_") for c in cols) == 5
    assert sum(c.startswith("gender_") for c in cols) == 2
    assert sum(c.startswith("ethnicity_") for c in cols) == 4
    assert sum(c.startswith("scheme_") for c in cols) == 6
    assert sum(c.startswith("proc_") for c in cols) == len(mappings.ccs_ids())


def test_indicator_encoding_worked_values(mappings):
    f = AdmissionFeatures(
        user_id="U1", admission_id="A1",
        comorbidities=frozenset({"CHF", "Valvular"}), gender="M",
        age_group="Millennials", ethnicity="Asian", scheme_type="LargeCentralMetro",
        los_days=8, medication_categories=frozenset({"00", "50"}),
        n_prev_admissions=0, n_prev_ed_admissions=0,
        admitting_diagnosis="Others", n_prev_hospital_visits=0,
        procedure_categories=frozenset({1}), readmitted_within_30d=True,
    )
    matrix = one_hot_encode([f], mappings)
    row = dict(zip(matrix.column_names, matrix.X[0]))
    assert row["gender_M"] == 1.0 and row["gender_F"] == 0.0
    assert row["med_00"] == 1.0 and row["med_50"] == 1.0
    assert sum(v for k, v in row.items() if k.startswith("med_")) == 2.0
    assert row["comorb_CHF"] == 1.0 and row["comorb_Valvular"] == 1.0
    assert row["los_days"] == 8.0
    assert row["proc_1"] == 1.0
    assert matrix.y[0] == 1


def test_encode_empty_input_rejected(mappings):
    with pytest.raises(ValueError):
        one_hot_encode([], mappings)


def test_encode_out_of_domain_rejected(mappings):
    f = AdmissionFeatures(
        user_id="U1", admission_id="A1", comorbidities=frozenset(),
        gender="M", age_group="Millennials", ethnicity="Asian",
        scheme_type="LargeCentralMetro", los_days=1,
        medication_categories=frozenset(), n_prev_admissions=0,
        n_prev_ed_admissions=0, admitting_diagnosis="Bad chapter",
        n_prev_hospital_visits=0, procedure_categories=frozenset(),
        readmitted_within_30d=False,
    )
    with pytest.raises(ValueError):
        one_hot_encode([f], mappings)


def test_matrix_csv_bytes_are_pinned(mappings):
    matrix = one_hot_encode(PINNED_FEATURES, mappings)
    buffer = io.StringIO()
    write_matrix_csv(matrix, buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == (
        "8bca984eeebd7f2ecd5130f23f6d34064c2c8e9d4af7b57efba1665484990f6b")


@given(st.data())
def test_each_family_fills_only_its_own_columns(mappings, data):
    bundles = data.draw(make_bundles(mappings))
    matrix = one_hot_encode(bundles, mappings)
    index = {name: j for j, name in enumerate(matrix.column_names)}
    for family in FAMILIES:
        block = matrix.X[:, [index[c] for c in family.columns(mappings)]]
        for row, f in zip(block.tolist(), bundles):
            value = getattr(f, family.field)
            if family.kind == COUNT:
                assert row == [value], family.field
                continue
            levels = value if family.kind == SET else {value}
            indicators = [float(level in levels) for level in family.domain(mappings)]
            assert row == indicators, family.field
    assert matrix.y.tolist() == [int(f.readmitted_within_30d) for f in bundles]
    assert matrix.row_ids == [(f.user_id, f.admission_id) for f in bundles]


@given(st.data())
def test_identical_features_encode_identically(mappings, data):
    bundle = data.draw(feature_bundles(mappings))
    matrix = one_hot_encode([bundle, bundle], mappings)
    assert np.array_equal(matrix.X[0], matrix.X[1])


def random_matrix(n, seed=0, pos_fraction=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < pos_fraction).astype(np.int8)
    return FeatureMatrix(
        column_names=["a", "b", "c"], X=X, y=y,
        row_ids=[(f"U{i:04d}", f"A{i:04d}") for i in range(n)],
    )


def test_split_sizes_exact():
    matrix = random_matrix(10)
    train, test = train_test_split(matrix, SplitSpec(seed=1))
    assert train.n_rows == 8 and test.n_rows == 2


def test_split_is_partition_and_reproducible():
    matrix = random_matrix(50)
    spec = SplitSpec(seed=42)
    train1, test1 = train_test_split(matrix, spec)
    train2, test2 = train_test_split(matrix, spec)
    assert train1.row_ids == train2.row_ids and test1.row_ids == test2.row_ids
    assert sorted(train1.row_ids + test1.row_ids) == sorted(matrix.row_ids)
    assert not set(train1.row_ids) & set(test1.row_ids)


def test_different_seeds_give_different_partitions():
    matrix = random_matrix(1000)
    train1, _ = train_test_split(matrix, SplitSpec(seed=1))
    train2, _ = train_test_split(matrix, SplitSpec(seed=2))
    assert train1.row_ids != train2.row_ids


def test_user_level_split_keeps_users_whole():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 2, 40).astype(np.int8)
    row_ids = [(f"U{i % 10:02d}", f"A{i:03d}") for i in range(40)]
    matrix = FeatureMatrix(column_names=["a", "b"], X=X, y=y, row_ids=row_ids)
    train, test = train_test_split(matrix, SplitSpec(seed=5, user_level=True))
    assert not {u for u, _ in train.row_ids} & {u for u, _ in test.row_ids}
    assert train.n_rows + test.n_rows == 40


def test_stratified_folds_balance_positives():
    y = np.zeros(100, dtype=np.int8)
    y[:10] = 1
    folds = stratified_kfold(y, 10, seed=9)
    for fit_idx, val_idx in folds:
        assert int(y[val_idx].sum()) == 1
        assert len(val_idx) == 10


def test_stratified_folds_partition():
    rng = np.random.default_rng(2)
    y = (rng.random(53) < 0.25).astype(np.int8)
    folds = stratified_kfold(y, 5, seed=1)
    seen = np.concatenate([val for _, val in folds])
    assert sorted(seen.tolist()) == list(range(53))
    counts = [int(y[val].sum()) for _, val in folds]
    assert max(counts) - min(counts) <= 1
    for fit_idx, val_idx in folds:
        assert not set(fit_idx.tolist()) & set(val_idx.tolist())
        assert len(fit_idx) + len(val_idx) == 53


def test_leave_one_out_degenerate():
    y = np.array([0, 1, 0, 1], dtype=np.int8)
    folds = stratified_kfold(y, 4, seed=0)
    assert all(len(val) == 1 for _, val in folds)


@given(st.integers(10, 80), st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_stratified_fold_property(n, k, seed):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(np.int8)
    folds = stratified_kfold(y, min(k, n), seed=seed)
    counts = [int(y[val].sum()) for _, val in folds]
    assert max(counts) - min(counts) <= 1
    seen = sorted(int(i) for _, val in folds for i in val)
    assert seen == list(range(n))


def reference_kfold(y, k, seed):
    """The fold loop stratified_kfold replaced: deal each class's seeded
    permutation to the folds in turn, then sort each side."""
    rng = rng_for(seed, FOLD_STREAM)
    folds = [[] for _ in range(k)]
    offset = 0
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        for j, row in enumerate(idx):
            folds[(offset + j) % k].append(int(row))
        offset += len(idx)
    return [(sorted(x for j in range(k) if j != i for x in folds[j]), sorted(folds[i]))
            for i in range(k)]


@given(st.integers(2, 120), st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_stratified_folds_match_reference_loop(n, k, positive_rate, seed):
    y = (np.random.default_rng(seed).random(n) < positive_rate).astype(np.int8)
    folds = stratified_kfold(y, min(k, n), seed)
    expected = reference_kfold(y, min(k, n), seed)
    assert [(fit.tolist(), val.tolist()) for fit, val in folds] == expected
    assert all(side.dtype == np.intp for pair in folds for side in pair)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(seed=0, train_fraction=1.0)
