import json
from pathlib import Path

import numpy as np
import pytest

from readmit.cli import main
from readmit.dataset import one_hot_encode, stratified_kfold, train_test_split
from readmit.errors import ConfigError
from readmit.models import fit_logistic
from readmit.models.persist import ModelBundle, load_bundle, save_bundle
from readmit.pipeline import RunConfig, train_models

SMALL_CONFIG = {
    "seed": 7,
    "fold_count": 3,
    "generator": {
        "n_users": 90,
        "readmission_fraction": 0.3,
        "mean_admissions_per_user": 1.5,
    },
    "rf_grid": {"ntree": [8, 12], "mtry": [10], "nodesize": [3], "maxnodes": [32]},
    "svm_c_grid": [0.01, 0.1],
    "lr_max_iter": 150,
}


def _rf_grid(**change) -> dict:
    return {"rf_grid": {**SMALL_CONFIG["rf_grid"], **change}}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "out"
    assert main(["all", "--config", str(config_path), "--out", str(out)]) == 0
    return {"config_path": config_path, "out": out}


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestRunConfig:
    def test_defaults_round_trip_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = RunConfig.from_json(path)
        assert cfg.seed == 0 and cfg.fold_count == 10
        assert len(cfg.svm_c_grid) == 9

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"sede": 3})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_json(path)

    def test_hash_is_stable_and_sensitive(self):
        a = RunConfig.from_dict({"seed": 1})
        b = RunConfig.from_dict({"seed": 1})
        c = RunConfig.from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestCliRuns:
    def test_all_produces_expected_tree(self, small_run):
        out = small_run["out"]
        assert (out / "data" / "medical_claims.csv").exists()
        assert (out / "episodes" / "admissions.csv").exists()
        assert (out / "features" / "features.csv").exists()
        for kind in ("lr_all", "lr_selected", "pca_lr", "pca_lr_selected",
                     "rf_best", "svm_best"):
            assert (out / "models" / f"{kind}.model").exists()
        assert (out / "models" / "rf_grid.csv").exists()
        report = (out / "eval" / "report.csv").read_text().splitlines()
        assert len(report) == 7  # header + six variants
        assert report[0] == ("type,train_auc,test_auc,train_specificity,"
                             "test_specificity,train_sensitivity,test_sensitivity")
        roc_files = sorted(p.name for p in (out / "eval").glob("roc_*.csv"))
        assert len(roc_files) == 12

    def test_manifests_written_per_stage(self, small_run):
        out = small_run["out"]
        for stage_dir in ("data", "episodes", "features", "models", "eval"):
            manifest = json.loads((out / stage_dir / "manifest.json").read_text())
            assert manifest["schema_version"] == 1
            assert manifest["seed"] == 7
            assert len(manifest["config_hash"]) == 64
            assert manifest["config"]["fold_count"] == 3  # full config rides along

    def test_train_manifest_reports_fits_and_selection_path(self, small_run):
        models = small_run["out"] / "models"
        manifest = json.loads((models / "manifest.json").read_text())
        assert set(manifest["lr_fits"]) == {"lr_all", "lr_selected", "pca_lr",
                                            "pca_lr_selected"}
        for fit in manifest["lr_fits"].values():
            assert fit["converged"] is True
            assert 0 < fit["n_iter"] <= SMALL_CONFIG["lr_max_iter"]
            assert fit["grad_max"] < 1e-6
        selection = manifest["selection"]["lr_selected"]
        assert selection["unconverged_fits"] == 0
        path = [step["column"] for step in selection["path"]]
        assert path == load_bundle(models / "lr_selected.model").selected_columns
        assert all(step["p_value"] < 0.05 and step["statistic"] > 3.84
                   for step in selection["path"])
        assert set(manifest["pca"]) == {"pca_lr", "pca_lr_selected"}
        for kind, facts in manifest["pca"].items():
            bundle = load_bundle(models / f"{kind}.model")
            assert facts["kept_columns"] == bundle.pca.kept_columns.size
            assert facts["components"] == bundle.pca.retained
            assert facts["variance_explained"] == pytest.approx(
                bundle.pca.explained[:bundle.pca.retained].sum(), abs=1e-12)
            assert 0.95 - 1e-12 <= facts["variance_explained"] <= 1.0 + 1e-12

    def test_rerun_is_byte_identical(self, small_run, tmp_path):
        out2 = tmp_path / "again"
        assert main(["all", "--config", str(small_run["config_path"]),
                     "--out", str(out2)]) == 0
        assert tree_bytes(small_run["out"]) == tree_bytes(out2)

    def test_staged_execution_equals_cmd_all(self, small_run, tmp_path):
        out2 = tmp_path / "staged"
        config = str(small_run["config_path"])
        for command in ("generate", "episodes", "features", "train", "evaluate"):
            assert main([command, "--config", config, "--out", str(out2)]) == 0
        assert tree_bytes(small_run["out"]) == tree_bytes(out2)

    def test_episodes_cli_reproduces_reference_admissions(self, worked_example_files, tmp_path):
        out = tmp_path / "worked"
        assert main(["episodes", "--medical", str(worked_example_files["medical"]),
                     "--out", str(out)]) == 0
        lines = (out / "episodes" / "admissions.csv").read_text().splitlines()
        assert lines == [
            "user_id,admission_id,start,end,is_ed,readmitted_within_30d,"
            "removed_readmission_count",
            "User1,A1,2017-05-01,2017-05-08,true,true,1",
            "User1,A2,2017-07-01,2017-07-03,false,false,0",
            "User2,A3,2018-01-03,2018-01-15,false,false,0",
        ]

    def test_train_writes_matrix_and_split_manifest(self, small_run):
        models = small_run["out"] / "models"
        manifest = json.loads((models / "split_manifest.json").read_text())
        train_ids = {tuple(r) for r in manifest["train_row_ids"]}
        test_ids = {tuple(r) for r in manifest["test_row_ids"]}
        assert not train_ids & test_ids
        header = (models / "matrix.csv").read_text().splitlines()[0]
        assert header.startswith("user_id,admission_id,comorb_CHF,")
        assert header.endswith(",target")

    def test_episodes_only_needs_medical(self, small_run, tmp_path):
        out2 = tmp_path / "episodes_only"
        assert main([
            "episodes", "--config", str(small_run["config_path"]),
            "--medical", str(small_run["out"] / "data" / "medical_claims.csv"),
            "--out", str(out2),
        ]) == 0
        produced = (out2 / "episodes" / "admissions.csv").read_bytes()
        reference = (small_run["out"] / "episodes" / "admissions.csv").read_bytes()
        assert produced == reference


class TestCliExitCodes:
    def test_missing_input_exit_3(self, tmp_path):
        assert main(["episodes", "--medical", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_schema_error_exit_4(self, tmp_path):
        bad = tmp_path / "medical_claims.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["episodes", "--medical", str(bad),
                     "--out", str(tmp_path / "o")]) == 4

    def test_bad_row_strict_exit_4_lenient_ok(self, tmp_path, worked_example_files):
        bad = tmp_path / "medical_claims.csv"
        good = worked_example_files["medical"].read_text()
        bad.write_text(good + "User3,CX,2017-99-01,2017-01-02,4280,00000,99231\n")
        assert main(["episodes", "--medical", str(bad), "--out", str(tmp_path / "o1")]) == 4
        assert main(["episodes", "--medical", str(bad), "--lenient",
                     "--out", str(tmp_path / "o2")]) == 0

    def test_empty_grid_exit_5(self, tmp_path, worked_example_files):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"rf_grid": {"ntree": []}}))
        features = tmp_path / "features.csv"
        features.write_text(
            "user_id,admission_id,comorbidities,gender,age_group,ethnicity,"
            "scheme_type,los_days,medication_categories,n_prev_admissions,"
            "n_prev_ed_admissions,admitting_diagnosis,n_prev_hospital_visits,"
            "procedure_categories,readmitted_within_30d\n"
            + "\n".join(
                f"U{i},A{i},,M,Touch,White,Noncore,1,,0,0,Others,0,,{'true' if i % 3 == 0 else 'false'}"
                for i in range(12)
            )
            + "\n"
        )
        assert main(["train", "--config", str(config_path),
                     "--features", str(features), "--out", str(tmp_path / "o")]) == 5

    def test_unknown_config_key_exit_5(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"nope": 1}))
        assert main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("bad", [
        {"fold_count": 1},
        {"fold_count": 2.5},
        {"lr_max_iter": 0},
        {"lr_tol": 0},
        {"lr_l2": -1e-4},
        {"selection_significance": 1.0},
        {"selection_significance": 0},
        {"train_fraction": 1},
        {"threshold": "x"},
        {"threshold": True},
        {"pca_variance_target": 0},
        {"pca_variance_target": 1.5},
        {"svm_epochs": 0},
        {"jobs": 0},
        {"svm_c_grid": []},
        {"svm_c_grid": [-1.0]},
        {"svm_c_grid": [True]},
        pytest.param(_rf_grid(mtry=[500]), id="rf_grid-mtry-above-width"),
        pytest.param(_rf_grid(mtry=[]), id="rf_grid-mtry-empty"),
        pytest.param(_rf_grid(ntree=[True]), id="rf_grid-ntree-bool"),
        pytest.param(_rf_grid(nodesize=[0]), id="rf_grid-nodesize-0"),
        pytest.param(_rf_grid(maxnodes=[2.5]), id="rf_grid-maxnodes-float"),
        pytest.param({"rf_grid": {"mtry": [5]}}, id="rf_grid-missing-keys"),
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_config_value_exit_5_before_any_work(self, tmp_path, bad, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert not out.exists()
        assert next(iter(bad)) in capsys.readouterr().err

    def test_non_finite_threshold_flag_exit_5(self, tmp_path):
        assert main(["all", "--threshold", "nan", "--out", str(tmp_path / "o")]) == 5

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])  # --out is required
        assert err.value.code == 2


class TestPersistence:
    def make_matrix(self, mappings, seed=0):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        from readmit.episodes import build_labeled_admissions
        from readmit.features import extract_features
        from readmit.synth import generate
        data = generate(cfg.generator_config())
        labeled, _ = build_labeled_admissions(data.medical, mappings)
        feats = extract_features(labeled, data.medical, data.pharmacy,
                                 data.demographics, mappings)
        return one_hot_encode(feats, mappings)

    def test_all_bundle_kinds_round_trip_scores(self, mappings, tmp_path):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        matrix = self.make_matrix(mappings)
        train, test = train_test_split(matrix, cfg.split_spec())
        folds = stratified_kfold(train.y, 3, cfg.seed)
        bundles, rf_result, svm_result, _ = train_models(cfg, matrix, train, folds)
        assert len(rf_result.configs) == 2 and len(svm_result.configs) == 2
        for kind, bundle in bundles.items():
            path = tmp_path / f"{kind}.model"
            save_bundle(bundle, path)
            loaded = load_bundle(path)
            assert loaded.kind == kind
            original = bundle.score(test.X, matrix.column_names)
            restored = loaded.score(test.X, matrix.column_names)
            assert np.array_equal(original, restored)

    def test_save_is_deterministic(self, mappings, tmp_path):
        matrix = self.make_matrix(mappings)
        model = fit_logistic(matrix.X, matrix.y, column_names=matrix.column_names)
        bundle = ModelBundle(kind="lr_all", column_names=matrix.column_names, lr=model)
        text_a = save_bundle(bundle, tmp_path / "a.model")
        text_b = save_bundle(bundle, tmp_path / "b.model")
        assert text_a == text_b

    def test_column_mismatch_rejected(self, mappings):
        matrix = self.make_matrix(mappings)
        model = fit_logistic(matrix.X, matrix.y)
        bundle = ModelBundle(kind="lr_all", column_names=matrix.column_names, lr=model)
        with pytest.raises(Exception):
            bundle.score(matrix.X, ["wrong"] * len(matrix.column_names))

    def test_select_after_pca_variant(self, mappings, tmp_path):
        overrides = dict(SMALL_CONFIG)
        overrides["select_after_pca"] = True
        cfg = RunConfig.from_dict(overrides)
        matrix = self.make_matrix(mappings)
        train, test = train_test_split(matrix, cfg.split_spec())
        folds = stratified_kfold(train.y, 3, cfg.seed)
        bundles, _, _, _ = train_models(cfg, matrix, train, folds)
        bundle = bundles["pca_lr_selected"]
        assert bundle.selected_columns is None          # selection happened in component space
        assert bundle.pca is not None
        scores = bundle.score(test.X, matrix.column_names)
        assert np.all((scores >= 0) & (scores <= 1))
        path = tmp_path / "pca_lr_selected.model"
        save_bundle(bundle, path)
        assert np.array_equal(load_bundle(path).score(test.X, matrix.column_names), scores)
