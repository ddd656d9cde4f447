"""Where the traced run opens spans in readmit, and the per-layer metrics
computed from them.

A public function is wrapped at every module attribute a caller looks it
up through (``from x import f`` binds a separate name in each importer),
e.g. ``fit_logistic`` both in ``readmit.pipeline`` and in
``readmit.models.selection``. The first part of a span name is its layer.
"""

from __future__ import annotations

import os

from readmit import dataset, evaluation, features, pipeline
from readmit.models import gridsearch, persist, selection

from spans import percentile, self_times, tail_percentile

LAYERS = (
    "pipeline", "claims", "episodes", "features", "dataset", "logistic",
    "selection", "pca", "forest", "gridsearch", "svm", "persist", "evaluation",
)


def _rows(args, kwargs, result):
    return {"rows": len(result.records)}


def _admissions(args, kwargs, result):
    labeled, removed = result
    return {"admissions": len(labeled), "readmissions": len(removed)}


def _logistic(args, kwargs, result):
    return {"iters": result.n_iter, "converged": int(bool(result.converged))}


def _selected(args, kwargs, result):
    return {"steps": len(result)}


def _forest(args, kwargs, result):
    return {"trees": len(result.trees),
            "nodes": sum(len(tree.feature) for tree in result.trees)}


def _saved_bytes(args, kwargs, result):
    dest = kwargs.get("dest", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0}


def _grid_name(args, kwargs):
    evaluator = kwargs.get("evaluator", args[0] if args else None)
    kind = getattr(evaluator, "__name__", "")
    return "gridsearch.svm" if kind.startswith("svm") else "gridsearch.rf"


def sites():
    """``(module, attribute, span name, counter)`` for every wrapped call."""
    P, G = pipeline, gridsearch
    return [
        (P, "stage_episodes", "pipeline.stage_episodes", None),
        (P, "stage_features", "pipeline.stage_features", None),
        (P, "stage_train", "pipeline.stage_train", None),
        (P, "stage_evaluate", "pipeline.stage_evaluate", None),
        (P, "parse_medical_claims", "claims.parse", _rows),
        (P, "parse_pharmacy_claims", "claims.parse", _rows),
        (P, "parse_demographics", "claims.parse", _rows),
        (P, "build_labeled_admissions", "episodes.build", _admissions),
        (P, "extract_features", "features.extract", None),
        (P, "write_features_csv", "features.csv_write", None),
        (P, "read_features_csv", "features.csv_read", None),
        (features, "read_features_csv", "features.csv_read", None),
        (P, "one_hot_encode", "dataset.encode", None),
        (dataset, "one_hot_encode", "dataset.encode", None),
        (P, "train_test_split", "dataset.split", None),
        (dataset, "train_test_split", "dataset.split", None),
        (P, "stratified_kfold", "dataset.split", None),
        (dataset, "stratified_kfold", "dataset.split", None),
        (P, "fit_logistic", "logistic.fit", _logistic),
        (selection, "fit_logistic", "logistic.fit", _logistic),
        (P, "loglik_feature_select", "selection.select", _selected),
        (P, "fit_pca", "pca.fit", None),
        (P, "grid_search", _grid_name, None),
        (G, "grid_search", _grid_name, None),
        (P, "rf_fold_auc", "gridsearch.rf_cell_fold", None),
        (G, "rf_fold_auc", "gridsearch.rf_cell_fold", None),
        (P, "svm_fold_auc", "gridsearch.svm_cell_fold", None),
        (G, "svm_fold_auc", "gridsearch.svm_cell_fold", None),
        (P, "fit_random_forest", "forest.fit", _forest),
        (G, "fit_random_forest", "forest.fit", _forest),
        (G, "rf_predict_proba", "forest.predict", None),
        (persist, "rf_predict_proba", "forest.predict", None),
        (P, "fit_linear_svm", "svm.fit", None),
        (G, "fit_linear_svm", "svm.fit", None),
        (P, "save_bundle", "persist.save", _saved_bytes),
        (P, "load_bundle", "persist.load", None),
        (G, "auc_score", "evaluation.auc", None),
        (evaluation, "auc_score", "evaluation.auc", None),
        (P, "build_report", "evaluation.report", None),
    ]


def layer_metrics(spans, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
    """Per-layer values of one traced run, keyed by metric name."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in by_name.get(name, ())), default=0)

    m: dict[str, float] = {}
    for stage in ("episodes", "features", "train", "evaluate"):
        m[f"pipeline.stage_{stage}_s"] = seconds(f"pipeline.stage_{stage}")
    m["claims.parse_s"] = seconds("claims.parse")
    m["claims.rows"] = total("claims.parse", "rows")
    m["claims.parse_calls"] = calls("claims.parse")
    m["episodes.build_s"] = seconds("episodes.build")
    m["episodes.admissions"] = largest("episodes.build", "admissions")
    m["episodes.readmissions"] = largest("episodes.build", "readmissions")
    m["features.extract_s"] = seconds("features.extract")
    m["features.csv_write_s"] = seconds("features.csv_write")
    m["features.csv_read_s"] = seconds("features.csv_read")
    m["dataset.encode_s"] = seconds("dataset.encode")
    m["dataset.split_s"] = seconds("dataset.split")

    fits = by_name.get("logistic.fit", [])
    fit_ms = [1000.0 * s.duration for s in fits]
    tail = tail_percentile(fit_ms)
    m["logistic.fits"] = len(fits)
    m["logistic.fit_s"] = seconds("logistic.fit")
    m["logistic.iters"] = total("logistic.fit", "iters")
    m["logistic.converged_ratio"] = total("logistic.fit", "converged") / len(fits) if fits else 0.0
    m["logistic.fit_ms_p50"] = percentile(fit_ms, "50") if fit_ms else 0.0
    m["logistic.fit_ms_tail"] = tail[1] if tail else 0.0
    m["logistic.fit_ms_tail_q"] = float(tail[0]) if tail else 0.0
    m["selection.s"] = seconds("selection.select")
    m["selection.steps"] = total("selection.select", "steps")
    m["pca.fits"] = calls("pca.fit")
    m["pca.fit_s"] = seconds("pca.fit")

    trees = total("forest.fit", "trees")
    m["forest.fits"] = calls("forest.fit")
    m["forest.trees"] = trees
    m["forest.nodes"] = total("forest.fit", "nodes")
    m["forest.fit_s"] = seconds("forest.fit")
    m["forest.ms_per_tree"] = 1000.0 * m["forest.fit_s"] / trees if trees else 0.0
    m["forest.predict_s"] = seconds("forest.predict")
    m["gridsearch.rf_cell_folds"] = calls("gridsearch.rf_cell_fold")
    m["gridsearch.rf_s"] = seconds("gridsearch.rf")
    m["gridsearch.svm_s"] = seconds("gridsearch.svm")
    m["svm.fits"] = calls("svm.fit")
    m["svm.fit_s"] = seconds("svm.fit")
    m["persist.save_s"] = seconds("persist.save")
    m["persist.load_s"] = seconds("persist.load")
    m["persist.bytes"] = total("persist.save", "bytes")
    m["evaluation.auc_calls"] = calls("evaluation.auc")
    m["evaluation.report_s"] = seconds("evaluation.report")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        m[f"{span.name.split('.', 1)[0]}.self_s"] += own
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    return m
