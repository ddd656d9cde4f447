"""Versioned line-oriented text persistence for trained models.

A model file is a magic line ``readmit-model v1 <kind>``, then ``[section]``
blocks: ``[columns]`` and the optional ``[selected]`` list column names one
per line, then each part the kind holds (``BUNDLE_KINDS``) in ``PARTS``
order. ``PARTS`` states each part's fields and their file order once, and
``save_bundle`` and ``load_bundle`` both walk it. A part is its
``[<prefix>.hyper]`` scalars as ``key = value`` lines, formatted by their
dataclass field type (a float by ``repr``, an int in decimal, a bool as 0
or 1), then one ``[<prefix>.<field>]`` section per array: a float or int
vector as ``i = v`` lines, the PCA components as ``r,c = v`` lines over the
retained columns only, or the forest's trees, one ``[rf.tree.<t>]`` section
of ``_NODE_FIELDS`` lines, one per node. Floats by ``repr`` make a load/save
round trip exact and identical fits serialize to identical bytes.

``save_bundle`` is the format: the reader builds the bundle from the values
after each `` = `` and raises ``ParseError``, naming the first line that
differs, on a file ``save_bundle`` would not write back exactly (a cut, a
misnumbered key, CRLF ends, ``0.50`` for ``0.5``). It also raises it on a
missing section or key, a bad node line or value, one part's vectors of
unequal lengths, and parts that do not fit the columns, found by scoring a
row of zeros.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import zip_longest
from typing import get_type_hints

import numpy as np

from ..errors import ConfigError, ParseError
from ..textio import text_stream
from .forest import RandomForestModel, Tree, rf_predict_proba
from .logistic import LogisticModel, predict_proba
from .pca import PcaTransform, pca_transform
from .svm import LinearSvmModel, svm_decision_scores

MAGIC = "readmit-model v1"

# Each bundle kind, in report order, with the prefixes of the parts it holds.
BUNDLE_KINDS = {
    "lr_all": ("logistic",),
    "lr_selected": ("logistic",),
    "pca_lr": ("pca", "logistic"),
    "pca_lr_selected": ("pca", "logistic"),
    "rf_best": ("rf",),
    "svm_best": ("svm",),
}


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
        """Scores of the rows of ``X``; columns other than the model's, e.g. after
        a different code map, raise ConfigError naming the first that differs."""
        for i, (model_col, col) in enumerate(zip_longest(self.column_names, column_names)):
            if model_col != col:
                raise ConfigError(f"features do not match the {self.kind} model at column {i}: "
                                  f"{col or 'none'} in the features, {model_col or 'none'} "
                                  "in the model")
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
        return svm_decision_scores(self.svm, X)


# Array kinds besides a vector, whose kind is its element type, float or int.
COMPONENTS, TREES = "components", "trees"


@dataclass(frozen=True)
class _Part:
    prefix: str                            # section prefix
    attr: str                              # ModelBundle attribute
    model: type
    hyper: tuple[str, ...]                 # scalars of [<prefix>.hyper], in file order
    arrays: tuple[tuple[str, object], ...]  # (field, array kind), in file order


PARTS = (
    _Part("pca", "pca", PcaTransform, ("retained",),
          (("means", float), ("stds", float), ("kept_columns", int),
           ("eigenvalues", float), ("explained", float), ("components", COMPONENTS))),
    _Part("logistic", "lr", LogisticModel,
          ("l2_penalty", "converged", "n_iter", "final_nll", "intercept"),
          (("weights", float),)),
    _Part("rf", "rf", RandomForestModel, ("ntree", "mtry", "nodesize", "maxnodes", "seed"),
          (("importances", float), ("trees", TREES))),
    _Part("svm", "svm", LinearSvmModel, ("C", "epochs", "seed", "intercept"),
          (("weights", float), ("means", float), ("stds", float))),
)

# Scalar field type -> (format, parse).
_SCALARS = {
    float: (lambda v: repr(float(v)), float),
    int: (lambda v: str(int(v)), int),
    bool: (lambda v: str(int(v)), lambda text: {"0": False, "1": True}[text]),
}

# Vector element type -> dtype.
_DTYPES = {float: np.float64, int: np.intp}

# Tree fields in node-line order, with their dtypes.
_NODE_FIELDS = (("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
                ("right", np.int32), ("value", np.float64), ("n_samples", np.int32))


def _part_lines(part: _Part, model) -> list[str]:
    types = get_type_hints(part.model)
    lines = [f"[{part.prefix}.hyper]"]
    lines += [f"{name} = {_SCALARS[types[name]][0](getattr(model, name))}"
              for name in part.hyper]
    for name, kind in part.arrays:
        value = getattr(model, name)
        if kind == TREES:
            for t, tree in enumerate(value):
                nodes = zip(*(getattr(tree, f).tolist() for f, _ in _NODE_FIELDS))
                lines += [f"[{part.prefix}.tree.{t}]", *(" ".join(map(repr, n)) for n in nodes)]
            continue
        lines.append(f"[{part.prefix}.{name}]")
        if kind == COMPONENTS:
            rows = value[:, :model.retained].tolist()
            lines += [f"{r},{c} = {v!r}" for r, row in enumerate(rows) for c, v in enumerate(row)]
        else:
            fmt = _SCALARS[kind][0]
            lines += [f"{i} = {fmt(v)}" for i, v in enumerate(np.asarray(value).tolist())]
    return lines


def save_bundle(bundle: ModelBundle, dest):
    lines = [f"{MAGIC} {bundle.kind}", "[columns]", *bundle.column_names]
    if bundle.selected_columns is not None:
        lines += ["[selected]", *bundle.selected_columns]
    for part in PARTS:
        model = getattr(bundle, part.attr)
        if model is not None:
            lines += _part_lines(part, model)
    text = "\n".join(lines) + "\n"
    with text_stream(dest, "w") as fh:
        fh.write(text)
    return text


def _split_sections(lines: list[str]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current: list[str] = []                # lines before the first section, which no part reads
    for line in lines:
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line.strip():
            current.append(line)
    return sections


def _section(sections, name: str) -> list[str]:
    if name not in sections:
        raise ParseError(f"missing section [{name}]")
    return sections[name]


def _parse(parse, text: str, name: str, key) -> object:
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ParseError(f"[{name}] {key}: bad value {text!r}") from None


def _values(sections, name: str, parse) -> list:
    """The value of each ``key = value`` line of section ``name``."""
    return [_parse(parse, value, name, key)
            for key, _, value in (line.partition(" = ") for line in _section(sections, name))]


def _array(values: list, dtype, name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise ParseError(f"[{name}] holds a value out of range for {np.dtype(dtype)}") from None


def _read_tree(sections, name: str) -> Tree:
    rows = []
    for k, line in enumerate(_section(sections, name)):
        fields = line.split()
        if len(fields) != len(_NODE_FIELDS):
            raise ParseError(f"[{name}] node {k}: {len(fields)} fields, not {len(_NODE_FIELDS)}")
        rows.append([_parse(float if dtype is np.float64 else int, text, name, f"node {k}")
                     for (_, dtype), text in zip(_NODE_FIELDS, fields)])
    tree = Tree(**{field: _array([row[j] for row in rows], dtype, name)
                   for j, (field, dtype) in enumerate(_NODE_FIELDS)})
    inner = np.flatnonzero(tree.feature >= 0)
    children = np.concatenate([tree.left[inner], tree.right[inner]])
    if not rows or np.any((children <= np.tile(inner, 2)) | (children >= len(rows))):
        raise ParseError(f"[{name}] has no nodes or a child index outside the tree "
                         "or not after its node")
    return tree


def _read_part(part: _Part, sections):
    types = get_type_hints(part.model)
    hyper_name = f"{part.prefix}.hyper"
    hyper = dict(line.partition(" = ")[::2] for line in _section(sections, hyper_name))
    values = {}
    for key in part.hyper:
        if key not in hyper:
            raise ParseError(f"[{hyper_name}] has no key {key!r}")
        values[key] = _parse(_SCALARS[types[key]][1], hyper[key], hyper_name, key)
    for field, kind in part.arrays:
        name = f"{part.prefix}.{field}"
        if kind == TREES:
            values[field] = [_read_tree(sections, f"{part.prefix}.tree.{t}")
                             for t in range(values["ntree"])]
        elif kind == COMPONENTS:
            n, retained = values["kept_columns"].size, values["retained"]
            if not 1 <= retained <= n:
                raise ParseError(f"[{hyper_name}] retained {retained} outside 1..{n}")
            flat = _values(sections, name, float)
            if len(flat) != n * retained:
                raise ParseError(f"[{name}] holds {len(flat)} values, not {n} x {retained}")
            values[field] = np.zeros((n, n))
            values[field][:, :retained] = np.reshape(flat, (n, retained))
        else:
            values[field] = _array(_values(sections, name, _SCALARS[kind][1]),
                                   _DTYPES[kind], name)
    lengths = {field: len(values[field]) for field, kind in part.arrays if kind in _DTYPES}
    if len(set(lengths.values())) > 1:
        raise ParseError(f"the {part.prefix} vectors differ in length: {lengths}")
    return part.model(**values)


def load_bundle(source) -> ModelBundle:
    with text_stream(source) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ParseError("not a readmit model file")
    kind = lines[0][len(MAGIC):].strip()
    if kind not in BUNDLE_KINDS:
        raise ParseError(f"unknown model kind {kind!r}")
    try:
        sections = _split_sections(lines[1:])
        bundle = ModelBundle(kind=kind, column_names=list(_section(sections, "columns")),
                             selected_columns=sections.get("selected"))
        for part in PARTS:
            if part.prefix in BUNDLE_KINDS[kind]:
                setattr(bundle, part.attr, _read_part(part, sections))
    except ParseError as exc:
        raise ParseError(f"{kind} model: {exc}") from None
    del lines, sections                    # freed before the writer builds its copy
    written = save_bundle(bundle, io.StringIO())
    if written != text:
        pairs = zip_longest(text.splitlines(True), written.splitlines(True), fillvalue="")
        number, got, want = next((n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b)
        raise ParseError(f"{kind} model: line {number} reads {got!r}, "
                         f"where the model writer puts {want!r}")
    try:
        bundle.score(np.zeros((1, len(bundle.column_names))), bundle.column_names)
    except (IndexError, KeyError, ValueError) as exc:
        raise ParseError(f"{kind} model: its parts do not fit its columns: {exc}") from None
    return bundle
