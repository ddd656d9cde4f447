"""The benchmark's three workloads.

Each one makes its inputs from the benchmark seed in ``setup`` (repeatable,
timed as set-up), runs the timed part in ``run`` and checks the program's
outputs in ``check``. The program only ever receives generated files and
matrices, through public functions of readmit. Workloads with ``warm_up``
set run once untimed first: their repeats are short, and the first one
grows the heap. A repeat of ``pipeline_m`` is a third of a run, too long
to spend on that.

Why these three: ``etl_l`` is the only one where claims, episodes, features
and dataset do most of the work; ``pipeline_m`` is dominated by logistic
fits (forward selection) and the PCA eigensolver, and calls every layer;
``forest_l`` grows trees on 7,200 rows, so per-row forest cost dominates.
A change to one layer therefore has a workload that exercises it and one
that bypasses it.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from readmit import codes, dataset, episodes, features, pipeline, synth
from readmit.claims import (
    write_demographics, write_medical_claims, write_pharmacy_claims,
)
from readmit.models import gridsearch, persist

from spans import grid_trees, projected_hours

CHF_COLUMN = "comorb_CHF"
CHF_ICD9 = "4280"

# The paper's default forest grid over ten folds (README defaults).
DEFAULT_GRID_TREES = grid_trees(
    gridsearch.expand_grid(pipeline.DEFAULT_RF_GRID), n_folds=10)


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _svm_grid(cfg) -> dict:
    return {"C": list(cfg.svm_c_grid), "epochs": [cfg.svm_epochs]}


def _train_matrix(data, split: dataset.SplitSpec):
    """Training side of the encoded admissions of generated claims."""
    mappings = codes.load_code_mappings()
    labeled, _ = episodes.build_labeled_admissions(data.medical, mappings)
    rows = features.extract_features(labeled, data.medical, data.pharmacy,
                                     data.demographics, mappings)
    train, _ = dataset.train_test_split(dataset.one_hot_encode(rows, mappings), split)
    return train


def _grid_report_problems(models_dir: Path, cfg) -> list[str]:
    """One row per grid cell and exactly one winner in each grid report."""
    problems = []
    for file, grid in (("rf_grid.csv", cfg.rf_grid), ("svm_grid.csv", _svm_grid(cfg))):
        rows = _csv_rows(models_dir / file)[1:]
        expected = len(gridsearch.expand_grid(grid))
        winners = sum(row[-1] == "1" for row in rows)
        if len(rows) != expected or winners != 1:
            problems.append(f"{file}: {len(rows)} rows (want {expected}), {winners} winners")
    return problems


@dataclass
class Outcome:
    problems: list[str]
    digest: str | None = None


class EtlWorkload:
    """Claims to cross-validation folds: everything upstream of fitting."""

    name = "etl_l"
    warm_up = True
    n_users = 4000

    def setup(self, seed: int, work: Path):
        cfg = pipeline.RunConfig.from_dict({"seed": seed, "generator": {"n_users": self.n_users}})
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        data_dir = out / "data"
        data_dir.mkdir(parents=True)
        data = synth.generate(cfg.generator_config())
        write_medical_claims(data.medical, data_dir / "medical_claims.csv")
        write_pharmacy_claims(data.pharmacy, data_dir / "pharmacy_claims.csv")
        write_demographics(data.demographics, data_dir / "demographics.csv")
        return cfg, out, data

    def prepare(self, state):
        _, out, _ = state
        for stage_dir in ("episodes", "features"):
            shutil.rmtree(out / stage_dir, ignore_errors=True)

    def run(self, state):
        cfg, out, _ = state
        pipeline.stage_episodes(cfg, out)
        pipeline.stage_features(cfg, out)
        rows = features.read_features_csv(out / "features" / "features.csv")
        matrix = dataset.one_hot_encode(rows, codes.load_code_mappings())
        train, test = dataset.train_test_split(matrix, cfg.split_spec())
        folds = dataset.stratified_kfold(train.y, cfg.fold_count, cfg.seed)
        return matrix, train, test, folds

    def check(self, state, result) -> Outcome:
        _, out, data = state
        matrix, train, test, folds = result
        problems = []
        planted = sorted((p.user_id, p.start, p.end, p.readmitted_within_30d)
                         for p in data.planted)
        header, *rows = _csv_rows(out / "episodes" / "admissions.csv")
        recovered = sorted(
            (row["user_id"], date.fromisoformat(row["start"]),
             date.fromisoformat(row["end"]), row["readmitted_within_30d"] == "true")
            for row in (dict(zip(header, values)) for values in rows)
        )
        if recovered != planted:
            problems.append(f"{len(recovered)} admissions recovered, {len(planted)} planted; lists differ")
        if matrix.n_rows != len(planted) or int(matrix.y.sum()) != sum(p[3] for p in planted):
            problems.append(f"matrix has {matrix.n_rows} rows, {int(matrix.y.sum())} positive")
        if train.n_rows + test.n_rows != matrix.n_rows:
            problems.append("train and test do not partition the matrix")
        validation = sorted(int(i) for _, val in folds for i in val)
        if validation != list(range(train.n_rows)):
            problems.append("validation folds do not partition the training rows")
        return Outcome(problems)

    def details(self, state, run_s: float) -> dict:
        claim_rows = len(state[2].medical) + len(state[2].pharmacy)
        return {"users": self.n_users, "claim_rows": claim_rows,
                "claims_per_s": claim_rows / run_s}


class PipelineWorkload:
    """All stages from episodes to evaluate on claims ``stage_generate``
    wrote in set-up; the ``--out`` tree is byte-compared across repeats.

    The config is ``scripts/run_demo.py``'s at 300 users, with a stronger
    planted signal and a strict selection threshold, so that every seed
    selects exactly the planted column in two selection rounds: the work
    does not depend on the seed.
    """

    name = "pipeline_m"
    warm_up = False
    config = {
        "fold_count": 3,
        "lr_max_iter": 400,
        "selection_significance": 1e-5,
        "generator": {
            "n_users": 300, "readmission_fraction": 0.1, "mean_admissions_per_user": 2.0,
            "signals": [{"kind": "comorbidity", "value": CHF_ICD9,
                         "strength": 3.0, "carrier_rate": 0.5}],
        },
        "rf_grid": {"ntree": [60], "mtry": [20, 40], "nodesize": [7], "maxnodes": [64]},
        "svm_c_grid": [0.01, 0.1, 1.0],
    }

    def setup(self, seed: int, work: Path):
        cfg = pipeline.RunConfig.from_dict(dict(self.config, seed=seed))
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        pipeline.stage_generate(cfg, out)
        return cfg, out

    def prepare(self, state):
        _, out = state
        for stage_dir in ("episodes", "features", "models", "eval"):
            shutil.rmtree(out / stage_dir, ignore_errors=True)

    def run(self, state):
        cfg, out = state
        pipeline.stage_episodes(cfg, out)
        pipeline.stage_features(cfg, out)
        pipeline.stage_train(cfg, out)
        pipeline.stage_evaluate(cfg, out)

    def check(self, state, result) -> Outcome:
        cfg, out = state
        problems = _grid_report_problems(out / "models", cfg)
        report = _csv_rows(out / "eval" / "report.csv")[1:]
        if [row[0] for row in report] != list(persist.BUNDLE_KINDS):
            problems.append(f"report rows {[row[0] for row in report]}")
        for row in report:
            if not all(0.0 <= float(v) <= 1.0 for v in row[1:3]):
                problems.append(f"{row[0]} AUC outside [0, 1]: {row[1:3]}")
        selected = persist.load_bundle(out / "models" / "lr_selected.model").selected_columns
        if CHF_COLUMN not in (selected or []):
            problems.append(f"{CHF_COLUMN} not selected: {selected}")
        return Outcome(problems, tree_sha256(out))

    def details(self, state, run_s: float) -> dict:
        return {}


@contextmanager
def _capturing(module, attr: str):
    """Collect every value returned through ``module.attr``."""
    original = getattr(module, attr)
    returned = []

    def capture(*args, **kwargs):
        value = original(*args, **kwargs)
        returned.append(value)
        return value

    setattr(module, attr, capture)
    try:
        yield returned
    finally:
        setattr(module, attr, original)


class ForestWorkload:
    """One forest grid search on fold 0 of the default 10-fold split of the
    default-scale data."""

    name = "forest_l"
    warm_up = True
    n_users = 5000
    fold_count = 10
    # The default ntree ladder (500, 1000, 150) at 1/100 scale, rounded up,
    # on two (mtry, nodesize, maxnodes) triples of the default grid.
    grid = {"ntree": [5, 10, 2], "mtry": [20, 50], "nodesize": [7], "maxnodes": [300]}

    def setup(self, seed: int, work: Path):
        config = synth.GeneratorConfig(
            n_users=self.n_users, readmission_fraction=0.05,
            signals=(synth.SignalSpec("comorbidity", CHF_ICD9, math.log(3.0), 0.5),),
            seed=seed,
        )
        data = synth.generate(config)
        train = _train_matrix(data, dataset.SplitSpec(seed=seed))
        folds = dataset.stratified_kfold(train.y, self.fold_count, seed)
        return {"seed": seed, "train": train, "folds": folds[:1], "first_aucs": None}

    def prepare(self, state):
        pass

    def run(self, state):
        train = state["train"]
        with _capturing(gridsearch, "fit_random_forest") as forests:
            result = gridsearch.grid_search(gridsearch.rf_fold_auc, self.grid, train.X,
                                            train.y, state["folds"], state["seed"])
        return result, forests

    def check(self, state, result) -> Outcome:
        result, forests = result
        problems = []
        configs = gridsearch.expand_grid(self.grid)
        if len(forests) != len(configs) * len(state["folds"]):
            problems.append(f"{len(forests)} forests fitted for {len(configs)} cells")
        for forest in forests:
            for tree in forest.trees:
                leaves = tree.feature < 0
                if int(tree.n_samples[leaves].min()) < forest.nodesize:
                    problems.append(f"leaf below nodesize {forest.nodesize}")
                if int(leaves.sum()) > forest.maxnodes:
                    problems.append(f"{int(leaves.sum())} leaves above maxnodes {forest.maxnodes}")
            if abs(float(forest.importances.sum()) - 1.0) > 1e-9:
                problems.append(f"importances sum to {forest.importances.sum()!r}")
        aucs = result.fold_aucs.ravel().tolist()
        if not all(0.0 <= a <= 1.0 for a in aucs):
            problems.append(f"AUCs outside [0, 1]: {aucs}")
        if state["first_aucs"] is None:
            state["first_aucs"] = aucs
        elif aucs != state["first_aucs"]:
            problems.append("fold AUCs differ between repeats")
        return Outcome(problems)

    def details(self, state, run_s: float) -> dict:
        timed_trees = grid_trees(gridsearch.expand_grid(self.grid), len(state["folds"]))
        return {
            "train_shape": list(state["train"].X.shape),
            "timed_trees": timed_trees,
            "default_grid_trees": DEFAULT_GRID_TREES,
            "default_grid_proj_h": projected_hours(run_s, timed_trees, DEFAULT_GRID_TREES),
        }


WORKLOADS = {w.name: w for w in (EtlWorkload(), PipelineWorkload(), ForestWorkload())}
