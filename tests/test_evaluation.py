import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.evaluation import (
    ModelEvaluation, auc, auc_score, confusion_metrics, evaluate_side,
    mann_whitney_auc, roc_curve, write_report_csv, write_roc_csv,
)


def brute_force_concordance(scores, labels):
    """O(n^2) pairwise oracle: ties between a positive and a negative
    score count one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_roc(scores, labels):
    """Enumerate every distinct threshold and count rates directly."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    points = [(0.0, 0.0)]
    for thr in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= thr and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= thr and l == 0)
        points.append((fp / n_neg, tp / n_pos))
    return points


class TestRocCurve:
    def test_perfect_separation(self):
        points = roc_curve([0.9, 0.1], [1, 0])
        assert [(f, t) for f, t, _ in points] == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert points[0][2] == math.inf

    def test_all_scores_equal_single_step(self):
        points = roc_curve([0.5, 0.5, 0.5], [1, 0, 1])
        assert [(f, t) for f, t, _ in points] == [(0.0, 0.0), (1.0, 1.0)]

    def test_four_point_mixed_matches_enumeration_oracle(self):
        scores = [0.9, 0.8, 0.8, 0.1]
        labels = [1, 0, 1, 0]
        points = roc_curve(scores, labels)
        assert [(f, t) for f, t, _ in points] == brute_force_roc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.2, 0.3], [1, 1])

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    def test_monotone_from_origin_to_corner(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        points = roc_curve(scores, labels)
        assert [(f, t) for f, t, _ in points] == brute_force_roc(scores.tolist(), labels.tolist())
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)
        for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]):
            assert f1 >= f0 and t1 >= t0


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_score([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_all_equal_is_half(self):
        assert auc_score([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_known_mixed_case(self):
        # 4 positive-negative pairs, 3 concordant -> 0.75
        assert auc_score([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == 0.75

    @given(st.integers(0, 2**32 - 1), st.integers(2, 50))
    def test_matches_brute_force_concordance(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n), 1)   # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        value = auc_score(scores, labels)
        assert abs(value - brute_force_concordance(scores.tolist(), labels.tolist())) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_strictly_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        base = auc_score(scores, labels)
        transformed = auc_score(np.exp(3.0 * scores) + 7.0, labels)
        assert abs(base - transformed) <= 1e-12
        points_a = roc_curve(scores, labels)
        points_b = roc_curve(np.exp(3.0 * scores) + 7.0, labels)
        assert [(f, t) for f, t, _ in points_a] == [(f, t) for f, t, _ in points_b]

    @given(st.integers(0, 2**32 - 1))
    def test_label_flip_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(25)
        labels = rng.integers(0, 2, 25)
        labels[0], labels[1] = 0, 1
        base = auc_score(scores, labels)
        assert abs(auc_score(-scores, 1 - labels) - base) <= 1e-12
        assert abs(auc_score(scores, 1 - labels) - (1.0 - base)) <= 1e-12

    def test_trapezoid_function_on_explicit_points(self):
        points = [(0.0, 0.0, math.inf), (0.5, 1.0, 0.7), (1.0, 1.0, 0.2)]
        assert auc(points) == 0.75


class TestConfusionMetrics:
    def test_perfect(self):
        assert confusion_metrics([0.9, 0.1], [1, 0]) == (1.0, 1.0)

    def test_all_scores_low(self):
        sens, spec = confusion_metrics([0.0, 0.0, 0.0, 0.0], [1, 1, 0, 0])
        assert sens == 0.0 and spec == 1.0

    def test_no_positives_reports_undefined(self):
        sens, spec = confusion_metrics([0.9, 0.1], [0, 0])
        assert sens is None and spec == 0.5

    def test_threshold_inclusive(self):
        sens, spec = confusion_metrics([0.5, 0.4999], [1, 0], threshold=0.5)
        assert sens == 1.0 and spec == 1.0

    @given(st.integers(0, 2**32 - 1))
    def test_against_count_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        labels = rng.integers(0, 2, 20)
        sens, spec = confusion_metrics(scores, labels, threshold=0.5)
        tp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 1)
        fn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 1)
        tn = sum(1 for s, l in zip(scores, labels) if s < 0.5 and l == 0)
        fp = sum(1 for s, l in zip(scores, labels) if s >= 0.5 and l == 0)
        assert sens == (tp / (tp + fn) if tp + fn else None)
        assert spec == (tn / (tn + fp) if tn + fp else None)


def test_mann_whitney_direct():
    assert mann_whitney_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == 0.75


# sha256 of the ROC and report CSV text of two tie-heavy score vectors
# (eleven and six distinct values over 40 rows), first 28 rows as train.
CSV_SHA256 = {
    "coarse_train": "a276274276e584db6d92f1c40eab41d88ebd7c22f9c4ab3e2fd862f59fecc992",
    "coarse_test": "1764447867db91ee587d984d51663b276a9b94b81d38a1276f06096f783ab1f2",
    "thirds_train": "630129c8c66ae4480030cb6eb37372c155533316776975f6162183781c526bce",
    "thirds_test": "ae4f2ec949ae66182a87598ee6c02974c9602d33234c55c7866da3c289384117",
    "report": "3c619933390911e96b7051dca86d462e836f7b3182a4cbe62826f23ccc7542ce",
}


def _csv_sha256(write, value) -> str:
    buffer = io.StringIO()
    write(value, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def test_roc_and_report_csv_bytes_are_pinned():
    labels = [int(i % 3 == 0 or i % 7 == 2) for i in range(40)]
    vectors = {"coarse": [(i * 7) % 11 / 10 for i in range(40)],
               "thirds": [-((i * 5) % 6) / 3 for i in range(40)]}
    rows = [ModelEvaluation(name, evaluate_side(s[:28], labels[:28]),
                            evaluate_side(s[28:], labels[28:]))
            for name, s in vectors.items()]
    digests = {"report": _csv_sha256(write_report_csv, rows)}
    for row in rows:
        digests[f"{row.name}_train"] = _csv_sha256(write_roc_csv, row.train.roc)
        digests[f"{row.name}_test"] = _csv_sha256(write_roc_csv, row.test.roc)
    assert digests == CSV_SHA256
