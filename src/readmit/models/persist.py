"""Versioned line-oriented text persistence for trained models.

Layout: a magic first line ``readmit-model v1 <kind>``, then ``[section]``
blocks of ``key = value`` lines. Floats are written with ``repr`` so that
a load/save round trip is exact and identical fits serialize to identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ReadmitError
from .forest import RandomForestModel, Tree, rf_predict_proba
from .logistic import LogisticModel, predict_proba
from .pca import PcaTransform, pca_transform
from .svm import LinearSvmModel, svm_decision_scores

MAGIC = "readmit-model v1"

BUNDLE_KINDS = (
    "lr_all", "lr_selected", "pca_lr", "pca_lr_selected", "rf_best", "svm_best",
)


@dataclass
class ModelBundle:
    """A trained pipeline variant: optional column selection, optional PCA
    projection, and a final scorer."""

    kind: str
    column_names: list[str]                 # full design-matrix universe
    selected_columns: list[str] | None = None
    pca: PcaTransform | None = None
    lr: LogisticModel | None = None
    rf: RandomForestModel | None = None
    svm: LinearSvmModel | None = None

    def score(self, X, column_names: list[str]) -> np.ndarray:
        if column_names != self.column_names:
            raise ReadmitError(f"column mismatch scoring {self.kind} model")
        X = np.asarray(X, dtype=np.float64)
        if self.selected_columns is not None:
            index = {c: i for i, c in enumerate(column_names)}
            X = X[:, [index[c] for c in self.selected_columns]]
        if self.pca is not None:
            X = pca_transform(self.pca, X)
        if self.lr is not None:
            return predict_proba(self.lr, X)
        if self.rf is not None:
            return rf_predict_proba(self.rf, X)
        if self.svm is not None:
            return svm_decision_scores(self.svm, X)
        raise ReadmitError(f"bundle {self.kind} has no scorer")


class _Writer:
    def __init__(self):
        self.lines: list[str] = []

    def section(self, name: str):
        self.lines.append(f"[{name}]")

    def kv(self, key, value):
        self.lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")

    def vector(self, name: str, values):
        self.section(name)
        for i, v in enumerate(np.asarray(values).tolist()):
            self.kv(i, float(v))

    def names(self, name: str, values):
        self.section(name)
        for v in values:
            self.lines.append(str(v))


def _write_logistic(w: _Writer, prefix: str, model: LogisticModel):
    w.section(f"{prefix}.hyper")
    w.kv("l2_penalty", float(model.l2_penalty))
    w.kv("converged", int(model.converged))
    w.kv("n_iter", model.n_iter)
    w.kv("final_nll", float(model.final_nll))
    w.kv("intercept", float(model.intercept))
    w.vector(f"{prefix}.weights", model.weights)


def _write_pca(w: _Writer, model: PcaTransform):
    w.section("pca.hyper")
    w.kv("retained", model.retained)
    w.vector("pca.means", model.means)
    w.vector("pca.stds", model.stds)
    w.section("pca.kept_columns")
    for i, c in enumerate(model.kept_columns.tolist()):
        w.kv(i, int(c))
    w.vector("pca.eigenvalues", model.eigenvalues)
    w.vector("pca.explained", model.explained)
    w.section("pca.components")
    for r in range(model.components.shape[0]):
        for c in range(model.retained):
            w.kv(f"{r},{c}", float(model.components[r, c]))


def _write_rf(w: _Writer, model: RandomForestModel):
    w.section("rf.hyper")
    for key in ("ntree", "mtry", "nodesize", "maxnodes", "seed"):
        w.kv(key, getattr(model, key))
    w.vector("rf.importances", model.importances)
    for t, tree in enumerate(model.trees):
        w.section(f"rf.tree.{t}")
        w.lines += tree.node_lines()


def _write_svm(w: _Writer, model: LinearSvmModel):
    w.section("svm.hyper")
    w.kv("C", float(model.C))
    w.kv("epochs", model.epochs)
    w.kv("seed", model.seed)
    w.kv("intercept", float(model.intercept))
    w.vector("svm.weights", model.weights)
    w.vector("svm.means", model.means)
    w.vector("svm.stds", model.stds)


def save_bundle(bundle: ModelBundle, dest):
    w = _Writer()
    w.lines.append(f"{MAGIC} {bundle.kind}")
    w.names("columns", bundle.column_names)
    if bundle.selected_columns is not None:
        w.names("selected", bundle.selected_columns)
    if bundle.pca is not None:
        _write_pca(w, bundle.pca)
    if bundle.lr is not None:
        _write_logistic(w, "logistic", bundle.lr)
    if bundle.rf is not None:
        _write_rf(w, bundle.rf)
    if bundle.svm is not None:
        _write_svm(w, bundle.svm)
    text = "\n".join(w.lines) + "\n"
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)
    return text


def _split_sections(lines: list[str]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines:
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line.strip():
            if current is None:
                raise ReadmitError(f"content before first section: {line!r}")
            current.append(line)
    return sections


def _kv_map(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _read_vector(sections, name) -> np.ndarray:
    kv = _kv_map(sections[name])
    return np.array([float(kv[str(i)]) for i in range(len(kv))])


def _read_logistic(sections, prefix) -> LogisticModel:
    hyper = _kv_map(sections[f"{prefix}.hyper"])
    return LogisticModel(
        weights=_read_vector(sections, f"{prefix}.weights"),
        intercept=float(hyper["intercept"]),
        l2_penalty=float(hyper["l2_penalty"]),
        converged=bool(int(hyper["converged"])),
        n_iter=int(hyper["n_iter"]),
        final_nll=float(hyper["final_nll"]),
    )


def _read_pca(sections) -> PcaTransform:
    hyper = _kv_map(sections["pca.hyper"])
    retained = int(hyper["retained"])
    kept_kv = _kv_map(sections["pca.kept_columns"])
    kept = np.array([int(kept_kv[str(i)]) for i in range(len(kept_kv))], dtype=np.intp)
    comp_kv = _kv_map(sections["pca.components"])
    n_kept = kept.size
    components = np.zeros((n_kept, n_kept))
    for key, value in comp_kv.items():
        r, c = key.split(",")
        components[int(r), int(c)] = float(value)
    return PcaTransform(
        means=_read_vector(sections, "pca.means"),
        stds=_read_vector(sections, "pca.stds"),
        kept_columns=kept,
        components=components,
        eigenvalues=_read_vector(sections, "pca.eigenvalues"),
        explained=_read_vector(sections, "pca.explained"),
        retained=retained,
    )


def _read_rf(sections) -> RandomForestModel:
    hyper = _kv_map(sections["rf.hyper"])
    trees = []
    t = 0
    while f"rf.tree.{t}" in sections:
        feature, threshold, left, right, value, n_samples = [], [], [], [], [], []
        for line in sections[f"rf.tree.{t}"]:
            f, thr, l, r, v, ns = line.split()
            feature.append(int(f))
            threshold.append(float(thr))
            left.append(int(l))
            right.append(int(r))
            value.append(float(v))
            n_samples.append(int(ns))
        trees.append(Tree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value),
            n_samples=np.array(n_samples, dtype=np.int32),
        ))
        t += 1
    return RandomForestModel(
        trees=trees,
        ntree=int(hyper["ntree"]),
        mtry=int(hyper["mtry"]),
        nodesize=int(hyper["nodesize"]),
        maxnodes=int(hyper["maxnodes"]),
        seed=int(hyper["seed"]),
        importances=_read_vector(sections, "rf.importances"),
    )


def _read_svm(sections) -> LinearSvmModel:
    hyper = _kv_map(sections["svm.hyper"])
    return LinearSvmModel(
        weights=_read_vector(sections, "svm.weights"),
        intercept=float(hyper["intercept"]),
        C=float(hyper["C"]),
        epochs=int(hyper["epochs"]),
        seed=int(hyper["seed"]),
        means=_read_vector(sections, "svm.means"),
        stds=_read_vector(sections, "svm.stds"),
    )


def load_bundle(source) -> ModelBundle:
    text = Path(source).read_text(encoding="utf-8") \
        if isinstance(source, (str, Path)) else source.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ReadmitError("not a readmit model file")
    kind = lines[0][len(MAGIC):].strip()
    if kind not in BUNDLE_KINDS:
        raise ReadmitError(f"unknown model kind {kind!r}")
    sections = _split_sections(lines[1:])
    bundle = ModelBundle(kind=kind, column_names=list(sections["columns"]))
    if "selected" in sections:
        bundle.selected_columns = list(sections["selected"])
    if "pca.hyper" in sections:
        bundle.pca = _read_pca(sections)
    if "logistic.hyper" in sections:
        bundle.lr = _read_logistic(sections, "logistic")
    if "rf.hyper" in sections:
        bundle.rf = _read_rf(sections)
    if "svm.hyper" in sections:
        bundle.svm = _read_svm(sections)
    return bundle
