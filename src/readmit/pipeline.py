"""Run configuration and the staged pipeline.

Each stage writes into its own subdirectory of the output root together
with a manifest (full config, its hash, seed, versions; never wall-clock
state), so a rerun with the same config and seed reproduces the output tree
byte for byte, and running stages individually equals one ``run_all``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import typing
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__
from .claims import (
    iso_date, parse_demographics, parse_medical_claims, parse_pharmacy_claims,
    write_demographics, write_medical_claims, write_pharmacy_claims,
)
from .codes import load_code_mappings
from .dataset import (
    SplitSpec, feature_columns, one_hot_encode, stratified_kfold,
    train_test_split, write_matrix_csv,
)
from .episodes import build_labeled_admissions, write_admissions_csv
from .errors import ConfigError, ParseError
from .features import extract_features, read_features_csv, write_features_csv
from .models.forest import fit_random_forest
from .models.gridsearch import grid_search, rf_fold_auc, svm_fold_auc, write_grid_csv
from .models.logistic import fit_logistic, nll_gradient
from .models.pca import fit_pca, pca_transform
from .models.persist import BUNDLE_KINDS, ModelBundle, load_bundle, save_bundle
from .models.selection import loglik_feature_select
from .models.svm import fit_linear_svm
from .evaluation import SIDES, build_report, write_report_csv, write_roc_csv
from .seeding import FOREST_STREAM, derive_seed
from .synth import GeneratorConfig, SignalSpec, generate
from .textio import text_stream

SCHEMA_VERSION = 1

DEFAULT_RF_GRID = {
    "ntree": [500, 1000, 150],   # deliberately 150, not 1500; see README
    "mtry": [20, 30, 40, 50],
    "nodesize": [1, 3, 7, 9],
    "maxnodes": [200, 300],
}
DEFAULT_SVM_C_GRID = [0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0]

# The generator section's defaults: GeneratorConfig's, dates in ISO form. Its
# seed is the run's.
DEFAULT_GENERATOR = json.loads(json.dumps(
    {f.name: f.default for f in dataclasses.fields(GeneratorConfig) if f.name != "seed"},
    default=date.isoformat))

# Config fields no stage can run with outside these limits:
# name -> (accepts, what is wanted); ``_from_json`` has checked the type.
CONFIG_LIMITS = {
    "fold_count": (lambda v: v >= 2, "an integer >= 2"),
    "lr_max_iter": (lambda v: v >= 1, "an integer >= 1"),
    "lr_tol": (lambda v: v > 0, "a number > 0"),
    "lr_l2": (lambda v: v >= 0, "a number >= 0"),
    "selection_significance": (lambda v: 0 < v < 1, "a number in (0, 1)"),
    "train_fraction": (lambda v: 0 < v < 1, "a number in (0, 1)"),
    "jobs": (lambda v: v >= 1, "an integer >= 1"),
    "pca_variance_target": (lambda v: 0 < v <= 1, "a number in (0, 1]"),
    "svm_epochs": (lambda v: v >= 1, "an integer >= 1"),
    "svm_c_grid": (lambda v: v and all(_is_number(c, False) and c > 0 for c in v),
                   "a non-empty list of numbers > 0"),
    "rf_grid": (lambda v: set(v) == set(DEFAULT_RF_GRID) and all(
        isinstance(vs, list) and vs and all(_is_number(x, True) and x >= 1 for x in vs)
        for vs in v.values()), "an object mapping exactly ntree, mtry, nodesize and maxnodes "
        "to non-empty lists of integers >= 1"),
}
# Claims input -> (its generated file, what that file is called, its writer).
CLAIM_INPUTS = {
    "medical": ("medical_claims.csv", "medical claims file", write_medical_claims),
    "pharmacy": ("pharmacy_claims.csv", "pharmacy claims file", write_pharmacy_claims),
    "demographics": ("demographics.csv", "demographics file", write_demographics),
}
INPUT_PATHS = (*CLAIM_INPUTS, "comorbidity_map", "ccs_map")
# Split setting of the config -> its SplitSpec field and key in split_manifest.json.
SPLIT_KEYS = {"seed": "seed", "train_fraction": "train_fraction", "user_level_split": "user_level"}


def _is_number(value, integer: bool) -> bool:
    """An int or, unless ``integer``, an int or float within the finite
    float range; bools are not numbers."""
    kinds = int if integer else (int, float)
    return (not isinstance(value, bool) and isinstance(value, kinds)
            and (integer or abs(value) <= sys.float_info.max))


# Field annotation -> (accepts a JSON value for it, what is wanted). A date
# field's string is parsed, which raises ValueError unless it is ISO; a field
# of another type is checked where it is used.
_JSON_KINDS = {
    int: (lambda v: _is_number(v, True), "an integer"),
    float: (lambda v: _is_number(v, False), "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    str | None: (lambda v: isinstance(v, (str, type(None))), "a string or null"),
    date: (lambda v: isinstance(v, str), "an ISO date string"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    list: (lambda v: isinstance(v, list), "a list"),
}


def _from_json(cls, raw, what: str) -> dict:
    """The keyword arguments that build dataclass ``cls`` from the JSON
    object ``raw``, with dates parsed. Raises ConfigError on a key ``cls``
    has no field for, a field without a default that ``raw`` lacks, a
    value ``_JSON_KINDS`` does not take for its field's annotation, or a
    date that is no `YYYY-MM-DD` calendar day."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in raw
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} lacks keys: {missing}")
    kwargs = dict(raw)
    for name, value in raw.items():
        accepts, wanted = _JSON_KINDS.get(hints[name], (lambda v: True, None))
        if not accepts(value):
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        if hints[name] is date:
            try:
                kwargs[name] = iso_date(value)
            except ValueError:
                raise ConfigError(f"{name} must be a YYYY-MM-DD date, got {value!r}") from None
    return kwargs


@dataclass
class RunConfig:
    seed: int = 0
    strict: bool = True
    threshold: float = 0.5
    jobs: int = 1
    # input paths; unset paths fall back to the generated data locations
    medical: str | None = None
    pharmacy: str | None = None
    demographics: str | None = None
    comorbidity_map: str | None = None
    ccs_map: str | None = None
    # split
    train_fraction: float = 0.8
    fold_count: int = 10
    user_level_split: bool = False
    # model knobs
    lr_l2: float = 1e-4
    lr_tol: float = 1e-6
    lr_max_iter: int = 500
    selection_significance: float = 0.05
    pca_variance_target: float = 0.95
    svm_epochs: int = 5
    rf_grid: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_RF_GRID.items()})
    svm_c_grid: list = field(default_factory=lambda: list(DEFAULT_SVM_C_GRID))
    generator: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_GENERATOR)))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config with ``raw``'s values over the defaults. Raises
        ConfigError, before any stage runs, on a key or value ``_from_json``
        refuses, a value ``CONFIG_LIMITS`` does not accept (the two grids
        included), a generator section ``GeneratorConfig`` or ``SignalSpec``
        cannot take, or an ``rf_grid`` ``mtry`` above the design-matrix width
        of the mapping files. A ``generator.seed`` is dropped: the run's seed
        is the generator's."""
        given = _from_json(cls, raw, "config")
        cfg = cls(**{name: value for name, value in given.items() if name != "generator"})
        cfg.generator.update(given.get("generator", {}))
        cfg.generator.pop("seed", None)
        for name, (accepts, wanted) in CONFIG_LIMITS.items():
            value = getattr(cfg, name)
            if not accepts(value):
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        try:
            cfg.generator_config()
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"generator: {exc}") from exc
        width = len(feature_columns(_load_mappings(cfg)))
        if max(cfg.rf_grid["mtry"]) > width:
            raise ConfigError(f"rf_grid mtry {max(cfg.rf_grid['mtry'])} exceeds the {width} "
                              "design-matrix columns")
        return cfg

    @classmethod
    def from_json(cls, path, **overrides) -> "RunConfig":
        """The config in the JSON file at ``path``, with ``overrides``
        replacing its values before validation."""
        try:
            with text_stream(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except ParseError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        return cls.from_dict({**raw, **overrides})

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def generator_config(self) -> GeneratorConfig:
        """The generator section as a ``GeneratorConfig`` with the run's seed."""
        g = _from_json(GeneratorConfig, self.generator, "generator")
        signals = g.get("signals", [])
        if not isinstance(signals, list):
            raise ConfigError(f"signals must be a list, got {signals!r}")
        return GeneratorConfig(**{
            **g, "seed": self.seed,
            "signals": tuple(SignalSpec(**_from_json(SignalSpec, s, "signal")) for s in signals),
        })

    def split_spec(self) -> SplitSpec:
        return SplitSpec(**{key: getattr(self, name) for name, key in SPLIT_KEYS.items()})


def _log(stage: str, **info):
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"stage={stage} {detail}".rstrip(), file=sys.stderr)


def _write_json(dest: Path, value):
    dest.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_manifest(cfg: RunConfig, stage: str, out_dir: Path, **facts):
    """``facts`` are deterministic stage diagnostics added to the manifest."""
    _write_json(out_dir / "manifest.json", {
        "stage": stage,
        "config": json.loads(cfg.canonical_json()),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "package_version": __version__,
        "schema_version": SCHEMA_VERSION,
        **facts,
    })


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing {what}: {path}")
    return path


def _load_mappings(cfg: RunConfig):
    return load_code_mappings(cfg.comorbidity_map, cfg.ccs_map)


def _input_path(cfg: RunConfig, out_root: Path, name: str) -> Path:
    """Claims input ``name``'s path in ``cfg``, else the file ``stage_generate`` writes."""
    return Path(getattr(cfg, name) or out_root / "data" / CLAIM_INPUTS[name][0])


def _parse(cfg: RunConfig, out_root: Path, name: str, parser) -> list:
    """The records ``parser`` reads from claims input ``name``; a parse error names the file."""
    path = _input_path(cfg, out_root, name)
    try:
        result = parser(_require(path, CLAIM_INPUTS[name][1]), cfg.strict)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if result.errors:
        _log("parse", file=name, skipped=len(result.errors))
    return result.records


def stage_generate(cfg: RunConfig, out_root: Path) -> Path:
    out_dir = out_root / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(cfg.generator_config())
    for name, (file_name, _, write) in CLAIM_INPUTS.items():
        write(getattr(data, name), out_dir / file_name)
    _write_manifest(cfg, "generate", out_dir)
    _log("generate", users=len(data.demographics), medical_claims=len(data.medical),
         admissions=len(data.planted))
    return out_dir


def stage_episodes(cfg: RunConfig, out_root: Path) -> Path:
    out_dir = out_root / "episodes"
    out_dir.mkdir(parents=True, exist_ok=True)
    labeled, removed = build_labeled_admissions(
        _parse(cfg, out_root, "medical", parse_medical_claims), _load_mappings(cfg))
    write_admissions_csv(labeled, out_dir / "admissions.csv")
    _write_manifest(cfg, "episodes", out_dir)
    _log("episodes", admissions=len(labeled), readmissions=len(removed))
    return out_dir


def stage_features(cfg: RunConfig, out_root: Path) -> Path:
    out_dir = out_root / "features"
    out_dir.mkdir(parents=True, exist_ok=True)
    medical, pharmacy, demographics = (_parse(cfg, out_root, name, parser) for name, parser in zip(
        CLAIM_INPUTS, (parse_medical_claims, parse_pharmacy_claims, parse_demographics)))
    mappings = _load_mappings(cfg)
    labeled, _ = build_labeled_admissions(medical, mappings)
    known = {d.user_id for d in demographics}
    missing = [a.user_id for a in labeled if a.user_id not in known]
    if missing and cfg.strict:
        raise ParseError(f"{_input_path(cfg, out_root, 'demographics')}: "
                         f"no demographics row for user {missing[0]!r}")
    if missing:
        _log("features", users_without_demographics=len(set(missing)),
             admissions_dropped=len(missing))
        labeled = [a for a in labeled if a.user_id in known]
    features = extract_features(labeled, medical, pharmacy, demographics, mappings)
    write_features_csv(features, out_dir / "features.csv")
    _write_manifest(cfg, "features", out_dir)
    _log("features", rows=len(features))
    return out_dir


def _fit_report(kind: str, model, X, y) -> dict:
    """Convergence facts of one final logistic fit; an unconverged fit is
    also reported on stderr."""
    grad_w, grad_b = nll_gradient(X, y, model.weights, model.intercept, model.l2_penalty)
    grad_max = max(float(np.max(np.abs(grad_w), initial=0.0)), abs(grad_b))
    if not model.converged:
        _log("train", unconverged_fit=kind, n_iter=model.n_iter, grad_max=f"{grad_max:.3g}")
    return {"converged": model.converged, "n_iter": model.n_iter, "grad_max": grad_max}


def _selection_report(selection, names: list[str]) -> dict:
    """The selection path by column name and the count of candidate fits
    that did not converge, each of which is also reported on stderr."""
    for columns in selection.unconverged:
        _log("train", unconverged_selection_fit=",".join(names[j] for j in columns)
             or "intercept-only")
    return {
        "path": [{"column": names[step.column], "statistic": step.statistic,
                  "p_value": step.p_value} for step in selection.steps],
        "fits": selection.fits,
        "unconverged_fits": len(selection.unconverged),
    }


def _pca_report(transform) -> dict:
    """Columns kept (non-constant), components retained and the variance
    fraction they explain."""
    return {
        "kept_columns": int(transform.kept_columns.size),
        "components": transform.retained,
        "variance_explained": float(transform.explained[:transform.retained].sum()),
    }


def train_models(cfg: RunConfig, matrix, train, folds):
    """Fit the six pipeline variants on the training matrix; returns
    (bundles by kind, rf grid result, svm grid result, diagnostics), where
    diagnostics holds the convergence of each final logistic fit, the
    selection path and the shape of each PCA."""
    svm_grid = {"C": list(cfg.svm_c_grid), "epochs": [cfg.svm_epochs]}
    cols = matrix.column_names
    Xtr, ytr = train.X, train.y
    selection = loglik_feature_select(Xtr, ytr, cfg.selection_significance)
    selections = {"lr_selected": _selection_report(selection, cols)}
    if not selection.columns:
        raise ConfigError("feature selection kept no columns; cannot build the "
                          "selected-features models")
    selected_names = [cols[i] for i in selection.columns]
    bundles: dict[str, ModelBundle] = {}
    lr_fits: dict[str, dict] = {}
    # The logistic variants: (kind, fit on the selected columns, fit through a PCA).
    for kind, selected, reduced in (("lr_all", False, False), ("lr_selected", True, False),
                                    ("pca_lr", False, True), ("pca_lr_selected", True, True)):
        X = Xtr[:, selection.columns] if selected else Xtr
        pca = fit_pca(X, cfg.pca_variance_target) if reduced else None
        X = pca_transform(pca, X) if reduced else X
        lr = fit_logistic(X, ytr, cfg.lr_l2, cfg.lr_tol, cfg.lr_max_iter)
        lr_fits[kind] = _fit_report(kind, lr, X, ytr)
        bundles[kind] = ModelBundle(kind=kind, column_names=cols, pca=pca, lr=lr,
                                    selected_columns=selected_names if selected else None)

    rf_result = grid_search(rf_fold_auc, cfg.rf_grid, Xtr, ytr, folds, cfg.seed, cfg.jobs)
    rf_best = fit_random_forest(Xtr, ytr, seed=derive_seed(cfg.seed, FOREST_STREAM),
                                **rf_result.winner)
    bundles["rf_best"] = ModelBundle(kind="rf_best", column_names=cols, rf=rf_best)

    svm_result = grid_search(svm_fold_auc, svm_grid, Xtr, ytr, folds, cfg.seed, cfg.jobs)
    svm_best = fit_linear_svm(Xtr, ytr, seed=cfg.seed, **svm_result.winner)
    bundles["svm_best"] = ModelBundle(kind="svm_best", column_names=cols, svm=svm_best)

    pca_facts = {kind: _pca_report(b.pca) for kind, b in bundles.items() if b.pca is not None}
    diagnostics = {"lr_fits": lr_fits, "selection": selections, "pca": pca_facts}
    return bundles, rf_result, svm_result, diagnostics


def _build_matrix(cfg: RunConfig, out_root: Path, features_path: Path | None):
    """The encoded features file, by default the one ``stage_features``
    writes; a malformed file, or a level outside the code maps, raises
    ParseError naming the file."""
    features_path = features_path or out_root / "features" / "features.csv"
    mappings = _load_mappings(cfg)
    try:
        features = read_features_csv(_require(features_path, "features file"))
        if not features:
            raise ParseError("holds no admissions")
        return one_hot_encode(features, mappings)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"{features_path}: {exc}") from None


def _check_class_balance(train, test, folds):
    """Raise ConfigError, with the counts, unless the test side and each
    fold's fit and validation sides hold both classes, which every AUC and
    fit of ``train_models`` and the report need."""
    sides = [("test split", test.y)]
    for i, (fit_idx, val_idx) in enumerate(folds):
        sides += [(f"fold {i} fit", train.y[fit_idx]), (f"fold {i} validation", train.y[val_idx])]
    for name, y in sides:
        positives = int((y == 1).sum())
        if positives in (0, y.size):
            raise ConfigError(
                f"the {name} rows hold {positives} readmitted and {y.size - positives} "
                "other admissions; each side needs both classes")


def _row_id(entry) -> tuple[str, str]:
    if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(s, str) for s in entry)):
        raise ValueError(f"row id {entry!r} is not a [user_id, admission_id] pair of strings")
    return tuple(entry)


def _read_split_manifest(cfg: RunConfig, matrix, path: Path):
    """The train and test rows of ``matrix`` that the split manifest at
    ``path`` lists, each side in the manifest's order; stderr names each
    split setting of ``cfg`` that differs from the manifest's. A row id not a
    pair of strings, or listed more than once, raises ParseError naming it."""
    try:
        with text_stream(_require(path, "split manifest")) as fh:
            manifest = json.load(fh)
        sides = [[_row_id(rid) for rid in manifest[key]]
                 for key in ("train_row_ids", "test_row_ids")]
        listed = Counter(rid for side in sides for rid in side)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path} is not a split manifest: {exc}") from exc
    if not all(sides):
        raise ParseError(f"{path} lists no train rows or no test rows")
    differ = [f"{name} {getattr(cfg, name)!r} (manifest {manifest.get(key)!r})"
              for name, key in SPLIT_KEYS.items() if getattr(cfg, name) != manifest.get(key)]
    if differ:
        print(f"warning: split settings differ from {path}: {', '.join(differ)}", file=sys.stderr)
    index = {rid: i for i, rid in enumerate(matrix.row_ids)}
    for rid, count in listed.items():
        if count > 1:
            raise ParseError(f"{path} lists row {list(rid)} {count} times")
        if rid not in index:
            raise ConfigError(f"{path} lists row {list(rid)}, which the features do not hold")
    return tuple(matrix.subset([index[rid] for rid in side]) for side in sides)


def stage_train(cfg: RunConfig, out_root: Path, features_path: Path | None = None) -> Path:
    out_dir = out_root / "models"
    matrix = _build_matrix(cfg, out_root, features_path)
    train, test = train_test_split(matrix, cfg.split_spec())
    if cfg.fold_count > train.n_rows:
        raise ConfigError(f"fold_count {cfg.fold_count} exceeds the {train.n_rows} training rows")
    folds = stratified_kfold(train.y, cfg.fold_count, cfg.seed)
    _check_class_balance(train, test, folds)
    bundles, rf_result, svm_result, diagnostics = train_models(cfg, matrix, train, folds)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, bundle in bundles.items():
        save_bundle(bundle, out_dir / f"{kind}.model")
    write_grid_csv(rf_result, out_dir / "rf_grid.csv")
    write_grid_csv(svm_result, out_dir / "svm_grid.csv")
    write_matrix_csv(matrix, out_dir / "matrix.csv")
    _write_json(out_dir / "split_manifest.json", {
        **{key: getattr(cfg, name) for name, key in SPLIT_KEYS.items()},
        "train_row_ids": [list(rid) for rid in train.row_ids],
        "test_row_ids": [list(rid) for rid in test.row_ids],
    })
    _write_manifest(cfg, "train", out_dir, **diagnostics)
    _log("train", rf_configs=len(rf_result.configs), svm_configs=len(svm_result.configs),
         rf_winner=rf_result.winner, selected=len(bundles["lr_selected"].selected_columns or []))
    return out_dir


def stage_evaluate(
    cfg: RunConfig,
    out_root: Path,
    features_path: Path | None = None,
    models_dir: Path | None = None,
) -> Path:
    out_dir = out_root / "eval"
    models_dir = models_dir or out_root / "models"
    _require(models_dir, "models directory")
    matrix = _build_matrix(cfg, out_root, features_path)
    train, test = _read_split_manifest(cfg, matrix, models_dir / "split_manifest.json")
    bundles = {}
    for kind in BUNDLE_KINDS:
        path = _require(models_dir / f"{kind}.model", f"{kind} model")
        try:
            bundles[kind] = load_bundle(path)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
        if bundles[kind].kind != kind:
            raise ParseError(f"{path} holds a {bundles[kind].kind} model, not {kind}")
    rows = build_report(bundles, train, test, cfg.threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    for row in rows:
        for side in SIDES:
            write_roc_csv(getattr(row, side).roc, out_dir / f"roc_{row.name}_{side}.csv")
    write_report_csv(rows, out_dir / "report.csv")
    _write_manifest(cfg, "evaluate", out_dir)
    _log("evaluate", models=len(rows), threshold=cfg.threshold)
    return out_dir


def run_all(cfg: RunConfig, out_root: Path) -> Path:
    out_root = Path(out_root)
    if not (cfg.medical and cfg.pharmacy and cfg.demographics):
        stage_generate(cfg, out_root)
    stage_episodes(cfg, out_root)
    stage_features(cfg, out_root)
    stage_train(cfg, out_root)
    stage_evaluate(cfg, out_root)
    return out_root
