"""Acceptance gate: one test per acceptance criterion, each printing a
pass line (run with ``pytest -v -s tests/test_acceptance.py``).

Numbers, tolerances, and runtime budgets are pinned here; the heavy
criteria use fixed seeds so every run is bit-reproducible.
"""

import io
import json
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from readmit.cli import main
from readmit.codes import load_code_mappings
from readmit.dataset import SplitSpec, one_hot_encode, train_test_split
from readmit.episodes import build_labeled_admissions, readmission_rate_from_counts
from readmit.evaluation import auc_score, mann_whitney_auc, roc_curve, auc
from readmit.features import extract_features
from readmit.models.forest import fit_random_forest, rf_importances, rf_predict_proba
from readmit.models.logistic import fit_logistic, nll_gradient, penalized_nll, predict_proba
from readmit.models.pca import fit_pca, pca_transform
from readmit.models.svm import fit_linear_svm, svm_decision_scores
from readmit.synth import GeneratorConfig, SignalSpec, generate

from conftest import WORKED_DEMOGRAPHICS, WORKED_MEDICAL, WORKED_PHARMACY, rf_model_text


def _report(criterion: int, detail: str = ""):
    suffix = f" {detail}" if detail else ""
    print(f"\n[acceptance] criterion {criterion}: PASS{suffix}")


@pytest.fixture(scope="module")
def mappings():
    return load_code_mappings()


def _build_matrix(generator_config, mappings):
    data = generate(generator_config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    feats = extract_features(labeled, data.medical, data.pharmacy,
                             data.demographics, mappings)
    return one_hot_encode(feats, mappings)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_worked_example_exact(mappings):
    from readmit.claims import (
        parse_demographics, parse_medical_claims, parse_pharmacy_claims,
    )
    started = time.monotonic()
    medical = parse_medical_claims(io.StringIO(WORKED_MEDICAL)).records
    pharmacy = parse_pharmacy_claims(io.StringIO(WORKED_PHARMACY)).records
    demographics = parse_demographics(io.StringIO(WORKED_DEMOGRAPHICS)).records
    labeled, removed = build_labeled_admissions(medical, mappings)
    feats = extract_features(labeled, medical, pharmacy, demographics, mappings)
    elapsed = time.monotonic() - started

    rows = [(a.admission_id, a.user_id, a.start, a.end, a.readmitted_within_30d)
            for a in labeled]
    assert rows == [
        ("A1", "User1", date(2017, 5, 1), date(2017, 5, 8), True),
        ("A2", "User1", date(2017, 7, 1), date(2017, 7, 3), False),
        ("A3", "User2", date(2018, 1, 3), date(2018, 1, 15), False),
    ]
    assert len(removed) == 1

    f = {x.admission_id: x for x in feats}
    assert [f[a].los_days for a in ("A1", "A2", "A3")] == [8, 3, 13]
    assert f["A1"].comorbidities == {"CHF", "Valvular"}
    assert f["A2"].comorbidities == {"Paralysis"}
    assert f["A3"].comorbidities == {"Pulmonary"}
    assert f["A1"].medication_categories == {"00", "50"}
    assert f["A2"].medication_categories == frozenset()
    assert f["A3"].medication_categories == {"60"}
    assert [f[a].n_prev_admissions for a in ("A1", "A2", "A3")] == [0, 1, 0]
    assert [f[a].n_prev_ed_admissions for a in ("A1", "A2", "A3")] == [0, 1, 0]
    assert [f[a].n_prev_hospital_visits for a in ("A1", "A2", "A3")] == [0, 0, 0]
    # admitting diagnosis asserted for A2 only; the A1/A3 reference values
    # contradict the deterministic chapter rule and are documented
    # inconsistencies excluded from this check.
    assert f["A2"].admitting_diagnosis == "Nervous system and sense organs"
    labels = lambda ids: {mappings.ccs_labels[i] for i in ids}
    assert labels(f["A1"].procedure_categories) == {"Incision and excision of CNS"}
    assert f["A2"].procedure_categories == frozenset()
    assert labels(f["A3"].procedure_categories) == {"Gastric bypass and volume reduction"}

    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"
    _report(1, f"({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_readmission_rate_arithmetic():
    rate = readmission_rate_from_counts(1880, 40358)
    assert abs(rate * 100 - 4.66) <= 0.01
    assert abs(rate * 100 - 4.65) <= 0.01   # matches the rounded print as well
    _report(2, f"(rate {rate * 100:.4f}%)")


# ------------------------------------------------------- criteria 9 then 3

C9_CONFIG = {
    "seed": 1234,
    "fold_count": 2,
    "lr_max_iter": 300,
    "generator": {
        "n_users": 60,
        "readmission_fraction": 0.3,
        "mean_admissions_per_user": 1.5,
    },
    # rf_grid and svm_c_grid intentionally left at their defaults: the full
    # 96-configuration forest grid and 9-value cost grid.
}


@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(C9_CONFIG))
    outputs = []
    for name in ("first", "second"):
        out = root / name
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 0
        outputs.append(out)
    return outputs


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_9_pipeline_determinism(determinism_runs):
    first, second = determinism_runs
    tree_a, tree_b = _tree_bytes(first), _tree_bytes(second)
    assert tree_a.keys() == tree_b.keys()
    different = [name for name in tree_a if tree_a[name] != tree_b[name]]
    assert not different, f"outputs differ: {different}"
    rf_rows = (first / "models" / "rf_grid.csv").read_text().strip().splitlines()
    svm_rows = (first / "models" / "svm_grid.csv").read_text().strip().splitlines()
    assert len(rf_rows) - 1 == 96
    assert len(svm_rows) - 1 == 9
    _report(9, f"({len(tree_a)} files byte-identical, grids 96/9)")


def test_criterion_3_report_shape_stands_in_for_proprietary_data(determinism_runs):
    # Reference metric values exist only for proprietary insurer data and
    # cannot be reproduced here; criteria 4-9 substitute property-based
    # checks. The report is asserted to carry the full six-variant,
    # six-metric block those values would occupy.
    report = (determinism_runs[0] / "eval" / "report.csv").read_text().splitlines()
    assert report[0].split(",") == [
        "type", "train_auc", "test_auc", "train_specificity",
        "test_specificity", "train_sensitivity", "test_sensitivity",
    ]
    body = [line.split(",") for line in report[1:]]
    assert [row[0] for row in body] == [
        "lr_all", "lr_selected", "pca_lr", "pca_lr_selected", "rf_best", "svm_best",
    ]
    for row in body:
        assert len(row) == 7
        for cell in row[1:3]:
            assert 0.0 <= float(cell) <= 1.0
    _report(3, "(6x6 metric block present; source values substituted by 4-9)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_auc_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        scores = np.round(rng.random(n), 1)   # coarse values force ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        trapezoid = auc(roc_curve(scores, labels))
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        concordance = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(trapezoid - concordance) <= 1e-12
        assert abs(mann_whitney_auc(scores, labels) - concordance) <= 1e-12
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 200 and elapsed < 5.0
    _report(4, f"(200 instances, {elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_lr_gradient_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        y[0], y[1] = 0.0, 1.0
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.random() * 0.2)
        grad_w, grad_b = nll_gradient(X, y, w, b, l2)
        analytic = np.append(grad_w, grad_b)
        numeric = np.empty(d + 1)
        eps = 1e-6
        for j in range(d):
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[j] += eps
            w_lo[j] -= eps
            numeric[j] = (penalized_nll(X, y, w_hi, b, l2)
                          - penalized_nll(X, y, w_lo, b, l2)) / (2 * eps)
        numeric[d] = (penalized_nll(X, y, w, b + eps, l2)
                      - penalized_nll(X, y, w, b - eps, l2)) / (2 * eps)
        rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8))
        worst = max(worst, float(rel))
    assert worst < 1e-4
    _report(5, f"(20 instances, max rel err {worst:.2e})")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_pca_oracle_equivalence():
    rng = np.random.default_rng(88)
    for trial in range(25):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        transform = fit_pca(X, variance_target=0.95)
        kept = transform.kept_columns
        Z = (X[:, kept] - transform.means) / transform.stds
        corr = Z.T @ Z / (n - 1)
        # independent of fit_pca's eigensolver: squared singular values of
        # Z / sqrt(n - 1), descending
        ref_values = np.linalg.svd(Z / np.sqrt(n - 1), compute_uv=False) ** 2
        assert np.max(np.abs(transform.eigenvalues - ref_values)) < 1e-8
        gram = transform.components.T @ transform.components
        assert np.max(np.abs(gram - np.eye(kept.size))) < 1e-8
        # eigenvector check through the defining equation (sign-free)
        for j in range(kept.size):
            v = transform.components[:, j]
            residual = corr @ v - transform.eigenvalues[j] * v
            assert np.max(np.abs(residual)) < 1e-8
        assert transform.explained[:transform.retained].sum() >= 0.95 - 1e-12
    _report(6, "(25 seeded matrices up to 50x6)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_rf_structural_invariants(mappings):
    started = time.monotonic()
    config = GeneratorConfig(n_users=2500, mean_admissions_per_user=2.0,
                             readmission_fraction=0.05, seed=71)
    matrix = _build_matrix(config, mappings)
    assert matrix.n_rows == 5000
    assert len(matrix.column_names) >= 50
    winning = dict(ntree=500, mtry=50, nodesize=7, maxnodes=300)
    model = fit_random_forest(matrix.X, matrix.y, seed=2027, **winning)
    for tree in model.trees:
        leaves = tree.feature < 0
        assert int(tree.n_samples[leaves].min()) >= 7
        assert int(leaves.sum()) <= 300
    assert abs(model.importances.sum() - 1.0) <= 1e-9
    twin = fit_random_forest(matrix.X, matrix.y, seed=2027, **winning)
    assert rf_model_text(model) == rf_model_text(twin)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.0f}s"
    _report(7, f"({elapsed:.0f}s for two 500-tree fits at 5000 rows)")


# ---------------------------------------------------------------- criterion 8

SIGNAL_SEED = 303
NULL_SEEDS = (501, 502, 503, 504, 505)
PLANTED_COLUMN = "comorb_CHF"


def test_criterion_8_end_to_end_signal_detection(mappings):
    started = time.monotonic()

    signal = (SignalSpec("comorbidity", "4280", float(np.log(3.0)), carrier_rate=0.5),)
    config = GeneratorConfig(n_users=5000, mean_admissions_per_user=2.0,
                             readmission_fraction=0.05, signals=signal,
                             seed=SIGNAL_SEED)
    matrix = _build_matrix(config, mappings)
    assert matrix.n_rows == 10_000
    train, test = train_test_split(matrix, SplitSpec(seed=SIGNAL_SEED))

    lr = fit_logistic(train.X, train.y, l2_penalty=1e-4, tol=1e-6, max_iter=1500)
    lr_auc = auc_score(predict_proba(lr, test.X), test.y)
    assert lr_auc > 0.60, f"LR test AUC {lr_auc:.4f}"

    rf = fit_random_forest(train.X, train.y, ntree=300, mtry=50, nodesize=50,
                           maxnodes=50, seed=55)
    rf_auc = auc_score(rf_predict_proba(rf, test.X), test.y)
    assert rf_auc > 0.60, f"RF test AUC {rf_auc:.4f}"
    top5 = [name for name, _ in rf_importances(rf, matrix.column_names)[:5]]
    assert PLANTED_COLUMN in top5, f"planted feature outside top 5: {top5}"

    # Null control: with no signal the mean test AUC of each model family
    # across the five seeds stays at chance level, and no single run strays
    # far enough to suggest leakage.
    null_aucs = {"lr": [], "pca_lr": [], "rf": [], "svm": []}
    for seed in NULL_SEEDS:
        null_config = GeneratorConfig(n_users=5000, mean_admissions_per_user=2.0,
                                      readmission_fraction=0.05, seed=seed)
        null_matrix = _build_matrix(null_config, mappings)
        n_train, n_test = train_test_split(null_matrix, SplitSpec(seed=seed))
        lr0 = fit_logistic(n_train.X, n_train.y, 1e-4, 1e-6, 1500)
        null_aucs["lr"].append(auc_score(predict_proba(lr0, n_test.X), n_test.y))
        pca0 = fit_pca(n_train.X, 0.95)
        lrp = fit_logistic(pca_transform(pca0, n_train.X), n_train.y, 1e-4, 1e-6, 1500)
        null_aucs["pca_lr"].append(
            auc_score(predict_proba(lrp, pca_transform(pca0, n_test.X)), n_test.y))
        rf0 = fit_random_forest(n_train.X, n_train.y, ntree=200, mtry=20,
                                nodesize=50, maxnodes=50, seed=seed)
        null_aucs["rf"].append(auc_score(rf_predict_proba(rf0, n_test.X), n_test.y))
        svm0 = fit_linear_svm(n_train.X, n_train.y, C=0.1, epochs=5, seed=seed)
        null_aucs["svm"].append(auc_score(svm_decision_scores(svm0, n_test.X), n_test.y))

    for family, values in null_aucs.items():
        mean = float(np.mean(values))
        assert 0.47 <= mean <= 0.53, f"{family} null mean AUC {mean:.4f}"
        for value in values:
            assert 0.40 <= value <= 0.60, f"{family} null AUC {value:.4f}"

    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s"
    _report(8, f"(LR {lr_auc:.3f}, RF {rf_auc:.3f}, planted in top 5; "
               f"null means centered; {elapsed:.0f}s)")
