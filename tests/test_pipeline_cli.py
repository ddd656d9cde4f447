import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import date
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import readmit
from readmit.cli import main
from readmit.dataset import one_hot_encode, stratified_kfold, train_test_split
from readmit.errors import ConfigError, ParseError
from readmit.features import read_features_csv
from readmit.models.forest import RandomForestModel, Tree, fit_random_forest, rf_importances
from readmit.models.logistic import LogisticModel, fit_logistic
from readmit.models.pca import fit_pca
from readmit.models.persist import ModelBundle, load_bundle, save_bundle
from readmit.models.svm import LinearSvmModel
from readmit.pipeline import DEFAULT_GENERATOR, RunConfig, train_models

DEFAULT_CCS_MAP = Path(str(resources.files("readmit").joinpath("data", "ccs_map.csv")))

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


# A features.csv the reader and encoder accept; the malformed-file cases
# below each change one line of it.
GOOD_FEATURES_LINES = [
    "user_id,admission_id,comorbidities,gender,age_group,ethnicity,scheme_type,los_days,"
    "medication_categories,n_prev_admissions,n_prev_ed_admissions,admitting_diagnosis,"
    "n_prev_hospital_visits,procedure_categories,readmitted_within_30d",
    *(f"U{i},A{i},CHF,M,Touch,White,Noncore,1,00,0,0,Others,0,3;44,"
      f"{'true' if i % 3 == 0 else 'false'}" for i in range(12)),
]


def _rf_grid(**change) -> dict:
    return {"rf_grid": {**SMALL_CONFIG["rf_grid"], **change}}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "out"
    assert main(["all", "--config", str(config_path), "--out", str(out)]) == 0
    sha256 = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    return {"config_path": config_path, "out": out, "sha256": sha256}


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# sha256 of every file of the SMALL_CONFIG `all` tree, taken as soon as the run
# ends: the grid CSVs, manifests, matrix, split manifest and eval/ besides the
# model and ETL files that other tests pin.
SMALL_RUN_SHA256 = {
    "data/demographics.csv": "82e8adbd2fd03b83462304396cd9b1326914bce4cc2172f40815c0c1e40956b7",
    "data/manifest.json": "d848d7cebd4a0520e703547c0a80d1bd9890edb82f376b807fc261bd71508b53",
    "data/medical_claims.csv": "db3afbc28a9256627060f35427dfdde16526c241a77fd4946d5e6784bec5ae15",
    "data/pharmacy_claims.csv": "b9bf22cfc5141df1b55cad3eacf1e55100b0de053327d7943c37367aae73e941",
    "episodes/admissions.csv": "b9d81db446726725e43d691947782266621d784df98f6fa12593ba9d99a6de73",
    "episodes/manifest.json": "876d07827549e18b5fb16dc0a8120062d7b7e742aa00ed5de6bb9b7faddc78b8",
    "eval/manifest.json": "579b7af1b77c7475e2869af648f4379848880c2cebb0306a2e96198b8758ba2b",
    "eval/report.csv": "e466be09f0fe5a695ccb4d238846d9a76050ee6f072d5bc4727fb1622d20548a",
    "eval/roc_lr_all_test.csv": "4553b7a20f26f9d8da1b6ccc00ec1d537404ada6015eb64c1efefa0afed545f6",
    "eval/roc_lr_all_train.csv": "ec0d855f9acf20f32f8311e2b4bd52be2809096c860f7d682493603659da819c",
    "eval/roc_lr_selected_test.csv": "9e8913a3c591382c14bed609686e98ccfb798de26a83e6796f7d64f5aa778bdf",
    "eval/roc_lr_selected_train.csv": "94419260c74df77d8514f63abdb6ec55cac50d4a56e4f00cf37a4fb9366c333b",
    "eval/roc_pca_lr_selected_test.csv": "d0630fc83d181139c2d2751d5bed35ea9fd7af20948896af4393cd4bcdd02cf0",
    "eval/roc_pca_lr_selected_train.csv": "e3d55504dd11ea560e0023ef706cae73cba1f5207d1a983519b69fe78bb39192",
    "eval/roc_pca_lr_test.csv": "c900852cc9ff61e9ce8332e6b65d99105618d48bd9e31d63146737666bbd5039",
    "eval/roc_pca_lr_train.csv": "db43a3cce4eb7971c1ac4c71954e1ba2c0600e0286900664ce6d0caec2e73441",
    "eval/roc_rf_best_test.csv": "d4c5d8ac551ed778051263827aeb39d89c3722d0e513ee696b1980837c69eb9e",
    "eval/roc_rf_best_train.csv": "82436802412331cd14650f977bb055de3480e3e6d1a9831c2edae823e6e59d1a",
    "eval/roc_svm_best_test.csv": "d7356131ceef2c57ce105f4a6979fc4099fc7eabfc5fbf15c7930cbd8d4c4ef2",
    "eval/roc_svm_best_train.csv": "2c87b850e8e684ff2285153cf6b30f23f8d9c59c5db20c9d919b32d18d464a5a",
    "features/features.csv": "bbad1bd49f8b233570751b601e52483f609ec9316c79b3f1e053f02e2e317eb2",
    "features/manifest.json": "b43743353967ddfaf8596dcbf98fbf9e3438e61f99cf0e26b5727a9a4a0d2c23",
    "models/lr_all.model": "4f0340d34ab3368afe68ace44fd7fed621cbf25e3e97dc8dec07210120b29eed",
    "models/lr_selected.model": "28ced7f21e6517974a95ec4156a39a41bcb606de25e980340d1ddca005cb3af4",
    "models/manifest.json": "b62445e49d4edb2e6ec91eddc31c4140d3f18c17f76e155552ca3421ece3d822",
    "models/matrix.csv": "a74532fc28799be6a8e0098890d3a97a841166f8c5e5b73653e23e7f12ab8e6c",
    "models/pca_lr.model": "430badc73b5a8df98c6030813b1e2a91898d1a10615e933df155bce29466945c",
    "models/pca_lr_selected.model": "64309386e346dafe177e89994d3ba50c80ef8a49a5cbcf1ab5af72a1d5db62e1",
    "models/rf_best.model": "f3f4305576c2f4f92fc0908d300cee52445721a93e6983fc6989206f53242683",
    "models/rf_grid.csv": "e62890be9c7564d7ef6f87df9da003877a6795fe4adf773c07414d25cb933a88",
    "models/split_manifest.json": "c5a86ab2cd42c679c0220449cb49b225f49ae81b238ed5a994863f86a5e99681",
    "models/svm_best.model": "68b74211a4bc06cca99e2fb02d624dd410318975f576952e9f2044295d9b543b",
    "models/svm_grid.csv": "d31face82c1bb3685317097f1fec0f30862486ea492e7ec2bcafac0bd917d4d2",
}


# SMALL_CONFIG with a comorbidity and a medication signal and a user-level
# split, which SMALL_RUN_SHA256 does not exercise.
SIGNAL_CONFIG = {
    **SMALL_CONFIG,
    "user_level_split": True,
    "generator": {**SMALL_CONFIG["generator"], "signals": [
        {"kind": "comorbidity", "value": "4280", "strength": 2.0},
        {"kind": "medication", "value": "60", "strength": 1.0},
    ]},
}

# sha256 of every file of the SIGNAL_CONFIG `all` tree.
SIGNAL_RUN_SHA256 = {
    "data/demographics.csv": "82e8adbd2fd03b83462304396cd9b1326914bce4cc2172f40815c0c1e40956b7",
    "data/manifest.json": "554840bdc952403a7eb5345f7299045173da2971cbb84ccf19e2b942f66945ad",
    "data/medical_claims.csv": "1f94e52d4c1ff48bb7fcbf5791a9515d05b0c552465a12d76023c0a9f79ea646",
    "data/pharmacy_claims.csv": "bec295932057346f6736aecebc3801d816aee1ba36b8721a3134f6a9e9b4f55f",
    "episodes/admissions.csv": "8d0d4eddad0d37d1bc551a5840e1a4bd28033e0244cfea236ecd866f3923bc24",
    "episodes/manifest.json": "8bb78beb5d4e3fff0d46fb52c1b308bdb83a0828f93427ed40b02e6bd2405057",
    "eval/manifest.json": "22016ae609aa4c09b7cb6cba96bbe1fc466ac3e9a376e95b93cd07c634c76e13",
    "eval/report.csv": "10e24e841cf7e833d4d993789cd903472c54bd5f319a4beab75aa3d8845f7683",
    "eval/roc_lr_all_test.csv": "3dabc205ec895d0e4bfd045532365b3f8bbf2ed9a8abc7c6a92678f70a21263b",
    "eval/roc_lr_all_train.csv": "acfcc6bf2d95db4d37820474c4d5c3fd5564f891005c07bf9636987a42a9f948",
    "eval/roc_lr_selected_test.csv": "a8181cb50343afb881f990a08c9efe8c1dcc26a114080edadbc493db8447f523",
    "eval/roc_lr_selected_train.csv": "0c62a81a257be68951e157217d303472815cf063bd2ff3fe7e6d1125c15d86c6",
    "eval/roc_pca_lr_selected_test.csv": "5239daf5609c8929101865a78f93b7d8b253905d167ea4b9e7539179c12c3f3d",
    "eval/roc_pca_lr_selected_train.csv": "bd16ab602bd1b118eb3c31cae3d0cd45f1b56c345d7cabae6e05ff2ee057f54d",
    "eval/roc_pca_lr_test.csv": "e70c436dbed6a0b8e504e19bda9c2b26c52adb6a1215e28ee6202a7d1f46a2fd",
    "eval/roc_pca_lr_train.csv": "b54d16cdc6c39af9dab3547275d7a0f3e133d664712e2bde0021e62b7e5e1941",
    "eval/roc_rf_best_test.csv": "2213f83e565e117013c737622ab57e13392413d0cb30704e57028a7c0b5044a1",
    "eval/roc_rf_best_train.csv": "ec2c7ccd940133f2023958dba4c3fb5405c5dda2446b767a2b3a00ccdb088be0",
    "eval/roc_svm_best_test.csv": "29fc9817c3e6fd3002daf990097e92ae62c49f73cff882c661144411c34f3404",
    "eval/roc_svm_best_train.csv": "ba60a351893462bc6e5b0477d2a33937b47b443be4601d6472291f9aeffe6844",
    "features/features.csv": "62624cfe97f518f038a2f778e7bf5ab75f63155943bf20f7879a956fd47b22db",
    "features/manifest.json": "55eb7d0afea123349a9339d609298f9e65e687ac7b6a53061124ca066da44af3",
    "models/lr_all.model": "ca2f232a5368118341ca96942b261df1e53f9606b7b7212f77bcb057d3855e4a",
    "models/lr_selected.model": "279ca1a488997c4f3644b93959e050f3cfb561542d4b481380d27d55179a4896",
    "models/manifest.json": "8250475fd1154da40a3aa24da36b5d2e036113f50564638dc43a8a1def9099ea",
    "models/matrix.csv": "a61765f826a86463fbd46d4180ffa22d4ad1fd0afd6f00001fca39066a7b345b",
    "models/pca_lr.model": "857a2b1a328ce3e7523c722ac6c1894927b356c6a58afc94e3f2d49dd104e6e6",
    "models/pca_lr_selected.model": "53ca8810f3f28953879fb3c948ff3aeeb850b9614cdac93e573cc2dd92a920f1",
    "models/rf_best.model": "a4e7729d068ead9678baa873a0c47a8c9de0403fd07106f1bee9e36f0a9cfc22",
    "models/rf_grid.csv": "1bb44bca0b014766139b0698dac183a2220a7bf937db5efe8da31cef50c4ee06",
    "models/split_manifest.json": "f23ed06fd89b22d4386d71a263ae206524ff1b0d9497193f62749f6f2ce37a77",
    "models/svm_best.model": "fb0f44e4c65125c1869937151f5f144e7e787f975f2f60a6b094ca8adda67d09",
    "models/svm_grid.csv": "d0501a1d8bfa52988b30470c5c55cebd666ddae93fec621fac33c1a7fb985df5",
}


class TestRunConfig:
    def test_defaults_round_trip_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = RunConfig.from_json(path)
        assert cfg.seed == 0 and cfg.fold_count == 10
        assert len(cfg.svm_c_grid) == 9
        # A generator section without signals gets its own default list.
        path.write_text('{"generator": {"n_users": 10}}')
        RunConfig.from_json(path).generator["signals"].append({"kind": "medication"})
        assert RunConfig.from_json(path).generator["signals"] == [] == DEFAULT_GENERATOR["signals"]

    def test_readme_defaults_are_the_config_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"Defaults:\n\n```json\n(.*?)```", readme, re.S).group(1)
        defaults = json.loads(RunConfig().canonical_json())
        assert json.loads(block) == {k: v for k, v in defaults.items() if v is not None}

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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
# Values near valid generator values, so that some generator sections pass.
_NEAR = (st.integers(0, 3) | st.floats(0, 1)
         | st.sampled_from(["2015-06-01", "300", "0.1", "60", "4280"]))
_SIGNAL = st.dictionaries(st.sampled_from(["kind", "value", "strength", "carrier_rate"]),
                          _JSON | _NEAR | st.sampled_from(["comorbidity", "medication"]))
_GENERATOR = st.dictionaries(st.sampled_from([*DEFAULT_GENERATOR, "seed"]),
                             _JSON | _NEAR | st.lists(_SIGNAL, max_size=2))
_CONFIG = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)] + ["nope"]),
    _JSON | _GENERATOR, max_size=4) | st.fixed_dictionaries({"generator": _GENERATOR})


@given(_CONFIG)
def test_malformed_config_raises_only_config_error(raw):
    # A string mapping path names a file, which may be missing (exit 3).
    assume(not any(isinstance(raw.get(k), str) for k in ("comorbidity_map", "ccs_map")))
    try:
        cfg = RunConfig.from_dict(raw)
    except ConfigError:
        return
    # An accepted generator section is built uncoerced: each value is its
    # JSON value, of the same type, with dates parsed.
    def typed(values):
        return {k: (type(v), v) for k, v in values.items()}
    built = cfg.generator_config()
    for spec, signal in zip(built.signals, cfg.generator["signals"], strict=True):
        assert typed({k: getattr(spec, k) for k in signal}) == typed(signal)
    want = {k: date.fromisoformat(v) if k.endswith("_date") else v
            for k, v in cfg.generator.items() if k != "signals"}
    assert typed({k: getattr(built, k) for k in want}) == typed(want)


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

    def test_output_tree_bytes_are_pinned(self, small_run):
        assert small_run["sha256"] == SMALL_RUN_SHA256

    def test_signal_run_bytes_are_pinned(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SIGNAL_CONFIG))
        out = tmp_path / "out"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 0
        sha256 = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
        assert sha256 == SIGNAL_RUN_SHA256

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

    # An inpatient CPT (99231) in Arabic-Indic digits: str.isalnum() accepts it.
    NON_ASCII_CPT_ROW = "User3,C9,2017-01-01,2017-01-02,4280,00000,٩٩٢٣١\n"

    def test_non_ascii_cpt_strict_exit_4(self, tmp_path, worked_example_files, capsys):
        bad = tmp_path / "medical_claims.csv"
        bad.write_text(worked_example_files["medical"].read_text() + self.NON_ASCII_CPT_ROW)
        assert main(["episodes", "--medical", str(bad), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "line 9: bad CPT code" in err and "Traceback" not in err

    def test_non_ascii_cpt_lenient_skipped_and_counted(self, tmp_path, worked_example_files,
                                                       capsys):
        bad = tmp_path / "medical_claims.csv"
        bad.write_text(worked_example_files["medical"].read_text() + self.NON_ASCII_CPT_ROW)
        out = tmp_path / "o"
        assert main(["episodes", "--medical", str(bad), "--lenient", "--out", str(out)]) == 0
        assert "file=medical skipped=1" in capsys.readouterr().err
        admissions = (out / "episodes" / "admissions.csv").read_text().splitlines()[1:]
        assert admissions and not any(line.startswith("User3,") for line in admissions)

    @pytest.mark.parametrize("kind", ["medical", "ccs_map", "features"])
    def test_non_utf8_byte_exit_4_names_file_and_line(self, tmp_path, worked_example_files,
                                                       capsys, kind):
        # Two bytes that are not UTF-8 spliced into line 3 of a claims file, a
        # code map or features.csv, read through the stage that parses it.
        good = {"medical": worked_example_files["medical"].read_bytes(),
                "ccs_map": DEFAULT_CCS_MAP.read_bytes(),
                "features": "\n".join(GOOD_FEATURES_LINES).encode() + b"\n"}[kind]
        lines = good.splitlines(keepends=True)
        lines[2] = lines[2][:4] + b"\xff\xfe" + lines[2][4:]
        bad = tmp_path / f"{kind}.csv"
        bad.write_bytes(b"".join(lines))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL_CONFIG))
        out = ["--out", str(tmp_path / "o")]
        argv = {"medical": ["episodes", "--medical", str(bad), *out],
                "ccs_map": ["episodes", "--medical", str(worked_example_files["medical"]),
                            "--ccs-map", str(bad), *out],
                "features": ["train", "--config", str(config_path), "--features", str(bad),
                             *out]}[kind]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"error: {bad}: line 3: byte 0xff is not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind,code", [("config", 5), ("model", 4), ("split_manifest", 4)])
    def test_non_utf8_byte_in_json_or_model_names_file_and_line(self, small_run, tmp_path,
                                                                 capsys, kind, code):
        # Two bytes that are not UTF-8 spliced into line 3 of the config, of a
        # model file or of the split manifest, read by `readmit evaluate`.
        models = tmp_path / "models"
        shutil.copytree(small_run["out"] / "models", models)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL_CONFIG, indent=2))
        bad = {"config": config_path, "model": models / "lr_all.model",
               "split_manifest": models / "split_manifest.json"}[kind]
        lines = bad.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:4] + b"\xff\xfe" + lines[2][4:]
        bad.write_bytes(b"".join(lines))
        assert main(["evaluate", "--config", str(config_path),
                     "--features", str(small_run["out"] / "features" / "features.csv"),
                     "--models", str(models), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert f"error: {bad}: line 3: byte 0xff is not UTF-8" in err and "Traceback" not in err

    # A claims cell is stripped, so only the trailing space is read; Python
    # 3.11's date.fromisoformat would read the first two as calendar days.
    @pytest.mark.parametrize("text,code", [("20170101", 4), ("2017-W01-1", 4),
                                           ("2017-01-01 ", 0)])
    def test_claims_date_other_than_yyyy_mm_dd_exit_4(self, tmp_path, worked_example_files,
                                                      capsys, text, code):
        bad = tmp_path / "medical_claims.csv"
        bad.write_text(worked_example_files["medical"].read_text()
                       + f"User3,C9,{text},2017-01-02,4280,00000,99231\n")
        assert main(["episodes", "--medical", str(bad), "--out", str(tmp_path / "o")]) == code
        wanted = (f"error: {bad}: line 9: malformed service_start date {text!r} "
                  "(expected YYYY-MM-DD)")
        assert (wanted in capsys.readouterr().err) == (code == 4)

    def test_claims_row_error_names_file(self, tmp_path, worked_example_files, capsys):
        bad = tmp_path / "medical_claims.csv"
        bad.write_text(worked_example_files["medical"].read_text() + "User3,C9,2017-01-01\n")
        assert main(["episodes", "--medical", str(bad), "--out", str(tmp_path / "o")]) == 4
        assert f"error: {bad}: line 9: expected 7 fields, got 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("line, text, fragment", [
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,1,00,0", "line 4: expected 15 fields",
                     id="ten-fields"),
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,1,00,0,0,Others,0,3;44,false,x",
                     "line 4: expected 15 fields", id="extra-field"),
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,x,00,0,0,Others,0,3;44,false",
                     "line 4: los_days", id="los_days-x"),
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,١٢,00,0,0,Others,0,3;44,false",
                     "line 4: los_days", id="los_days-non-ascii"),
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,1,00,0,0,Others,0,3;44,yes",
                     "line 4: readmitted_within_30d", id="label-yes"),
        pytest.param(4, "U2,A2,CHF,X,Touch,White,Noncore,1,00,0,0,Others,0,3;44,false",
                     "admission U2/A2: gender", id="gender-X"),
        pytest.param(4, "U2,A2,CHF,M,Touch,White,Noncore,1,00,0,0,Others,0,3;999,false",
                     "admission U2/A2: procedure_categories value 999", id="unknown-ccs"),
        pytest.param(1, "user_id,admission_id,gender", "line 1: bad header", id="wrong-header"),
    ])
    def test_malformed_features_exit_4(self, tmp_path, capsys, line, text, fragment):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL_CONFIG))
        features = tmp_path / "features.csv"
        assert len(read_features_csv(io.StringIO("\n".join(GOOD_FEATURES_LINES)))) == 12
        lines = list(GOOD_FEATURES_LINES)
        lines[line - 1] = text
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(config_path), "--features", str(features),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"{features}: {fragment}" in err and "Traceback" not in err
        assert not (out / "models").exists()

    def test_features_file_without_rows_exit_4(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text(GOOD_FEATURES_LINES[0] + "\n")
        assert main(["train", "--features", str(features), "--out", str(tmp_path / "o")]) == 4
        assert f"error: {features}: holds no admissions" in capsys.readouterr().err

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
        pytest.param({"threshold": 10**400}, id="threshold-int-beyond-float"),
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
        {"seed": "x"},
        {"strict": "no"},
        {"ccs_map": 7},
        {"medical": 5},
        pytest.param({"generator": 5}, id="generator-not-object"),
        pytest.param({"generator": {"signals": [{"kind": "comorbidity"}]}},
                     id="generator-signal-missing-keys"),
        pytest.param({"generator": {"n_users": "x"}}, id="generator-n_users-text"),
        pytest.param({"generator": {"n_users": 0}}, id="generator-n_users-0"),
        *(pytest.param({"generator": {"n_users": n}}, id=f"generator-n_users-{n!r}")
          for n in ("300", True, 2.9)),
        pytest.param({"generator": {"readmission_fraction": "0.1"}},
                     id="generator-readmission_fraction-text"),
        pytest.param({"generator": {"signals": [{"kind": "comorbidity", "value": 4280,
                                                 "strength": 1.0}]}},
                     id="generator-signal-value-number"),
        pytest.param({"generator": {"noise_claim_rate": -3}}, id="generator-rate-negative"),
        pytest.param({"generator": {"signals": [{"kind": "comorbidity", "value": "4280",
                                                 "strength": 1.0}] * 13}},
                     id="generator-13-signals"),
        pytest.param({"generator": {"hospital_visit_rate": 1.5}}, id="generator-rate-above-1"),
        *(pytest.param({"generator": {"signals": [{**signal, "strength": 1.0}]}},
                       id="generator-signal-" + "-".join(f"{k}={v}" for k, v in signal.items()))
          for signal in ({"kind": "comorbidity", "value": "4280", "carrier_rte": 0.2},
                         {"kind": "medication", "value": "123"},
                         {"kind": "medication", "value": "ab"},
                         {"kind": "medication", "value": "7"},
                         {"kind": "comorbidity", "value": "00000"},
                         {"kind": "comorbidity", "value": "40;28"})),
        {"select_after_pca": False},
        pytest.param({"generator": {"start_date": "2015-02-30"}}, id="generator-start_date-feb-30"),
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_config_value_exit_5_before_any_work(self, tmp_path, bad, capsys):
        # Over SMALL_CONFIG, so a case that validation accepts fails in
        # seconds; a case's key replaces the base key whole.
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**SMALL_CONFIG, **bad}))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert not out.exists()
        assert next(iter(bad)) in capsys.readouterr().err

    def test_date_that_is_no_calendar_day_names_key_and_value(self):
        with pytest.raises(ConfigError, match=r"start_date .*'2015-02-30'"):
            RunConfig.from_dict({"generator": {"start_date": "2015-02-30"}})

    # Python 3.11's date.fromisoformat also reads the first two, as 2015-01-05
    # and 2014-12-29; 3.10 refuses both.
    @pytest.mark.parametrize("text", ["20150105", "2015-W01-1", "2015-01-05 "])
    def test_start_date_other_than_yyyy_mm_dd_exit_5(self, tmp_path, capsys, text):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**SMALL_CONFIG, "generator": {"start_date": text}}))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert not out.exists()
        assert f"start_date must be a YYYY-MM-DD date, got {text!r}" in capsys.readouterr().err

    def test_features_model_column_mismatch_exit_5(self, small_run, tmp_path, capsys):
        ccs_map = tmp_path / "ccs_map.csv"
        ccs_map.write_text(DEFAULT_CCS_MAP.read_text() + "99990,99991,999,Extra category\n")
        out = tmp_path / "o"
        assert self._evaluate(small_run, small_run["out"] / "models", out,
                              "--ccs-map", str(ccs_map)) == 5
        err = capsys.readouterr().err
        assert "proc_999" in err and "lr_all" in err and "Traceback" not in err
        assert not (out / "eval").exists()

    def test_truncated_model_file_exit_4(self, small_run, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(small_run["out"] / "models", models)
        text = (models / "lr_all.model").read_text()
        cut = text.index("[logistic.hyper]")
        (models / "lr_all.model").write_text(text[:text.index("\n", cut + 20)])
        assert main(["evaluate", "--config", str(small_run["config_path"]),
                     "--features", str(small_run["out"] / "features" / "features.csv"),
                     "--models", str(models), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "lr_all model" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "eval").exists()

    def test_model_file_cut_in_its_last_value_exit_4(self, small_run, tmp_path, capsys):
        # Cut inside the SVM's last standard deviation, the file's last value:
        # it parses, but the writer would write the value whole.
        models = tmp_path / "models"
        shutil.copytree(small_run["out"] / "models", models)
        path = models / "svm_best.model"
        text = path.read_text()
        cut = text.rindex("\n181 = ") + len("\n181 = 0")
        path.write_text(text[:cut])
        line = text[:cut].count("\n") + 1
        out = tmp_path / "o"
        assert self._evaluate(small_run, models, out) == 4
        err = capsys.readouterr().err
        assert f"error: {path}: svm_best model: line {line} reads '{text[cut - 7:cut]}'" in err
        assert "Traceback" not in err
        assert not (out / "eval").exists()

    def _evaluate(self, small_run, models, out, *flags):
        return main(["evaluate", "--config", str(small_run["config_path"]), *flags,
                     "--features", str(small_run["out"] / "features" / "features.csv"),
                     "--models", str(models), "--out", str(out)])

    def test_evaluate_reads_the_split_of_train(self, small_run, tmp_path):
        out = tmp_path / "o"
        assert self._evaluate(small_run, small_run["out"] / "models", out, "--seed", "8") == 0
        for path in sorted((small_run["out"] / "eval").glob("*.csv")):
            assert (out / "eval" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_evaluate_warns_of_each_split_setting_that_differs(self, small_run, tmp_path,
                                                                capsys):
        models = small_run["out"] / "models"
        assert self._evaluate(small_run, models, tmp_path / "same") == 0
        assert "warning" not in capsys.readouterr().err
        config_path = tmp_path / "other.json"
        config_path.write_text(json.dumps(
            {**SMALL_CONFIG, "train_fraction": 0.7, "user_level_split": True}))
        out = tmp_path / "other"
        assert main(["evaluate", "--config", str(config_path), "--seed", "8",
                     "--features", str(small_run["out"] / "features" / "features.csv"),
                     "--models", str(models), "--out", str(out)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert len(warnings) == 1
        for fragment in ("seed 8 (manifest 7)", "train_fraction 0.7 (manifest 0.8)",
                         "user_level_split True (manifest False)", "split_manifest.json"):
            assert fragment in warnings[0]
        for path in sorted((small_run["out"] / "eval").glob("*.csv")):
            assert (out / "eval" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("damage,code,message", [
        pytest.param(lambda path: path.unlink(), 3, "split manifest", id="missing"),
        pytest.param(lambda path: path.write_text(path.read_text().replace(
            '"test_row_ids": [', '"test_row_ids": [["U999999", "A999999"], ')),
            5, "U999999", id="row-not-in-features"),
        pytest.param(lambda path: path.write_text("{"), 4, "not a split manifest",
                     id="not-json"),
        pytest.param(lambda path: path.write_text(
            '{"train_row_ids": [["U000001", "A000001"]], "test_row_ids": []}'),
            4, "no test rows", id="empty-side"),
        pytest.param(lambda path: path.write_text(path.read_text().replace(
            '"test_row_ids": [', '"test_row_ids": [["U000027", ["A41"]], ')),
            4, "not a split manifest", id="row-id-not-text"),
        *(pytest.param(lambda path, entry=entry: path.write_text(path.read_text().replace(
            '"test_row_ids": [', f'"test_row_ids": [{entry}, ')), 4,
            f"is not a split manifest: row id {json.loads(entry)!r}", id=f"row-id-{name}")
          for name, entry in (("string", '"U000027"'), ("numbers", "[27, 101]"),
                              ("triple", '["U000070", "A101", "A102"]'))),
        pytest.param(lambda path: path.write_text(path.read_text().replace(
            '"test_row_ids": [', '"test_row_ids": [["U000070", "A101"], ')),
            4, "split_manifest.json lists row ['U000070', 'A101'] 2 times", id="row-on-both-sides"),
        pytest.param(lambda path: path.write_text(path.read_text().replace(
            '"train_row_ids": [', '"train_row_ids": [["U000070", "A101"], ')),
            4, "split_manifest.json lists row ['U000070', 'A101'] 2 times", id="row-listed-twice"),
    ])
    def test_evaluate_bad_split_manifest(self, small_run, tmp_path, capsys,
                                         damage, code, message):
        models = tmp_path / "models"
        shutil.copytree(small_run["out"] / "models", models)
        damage(models / "split_manifest.json")
        assert self._evaluate(small_run, models, tmp_path / "o") == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o" / "eval").exists()

    def test_single_class_fold_exit_5_before_models(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"fold_count": 10, "generator": {"n_users": 40}}))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert (out / "features" / "features.csv").exists()
        assert not (out / "models").exists()
        assert "readmitted" in capsys.readouterr().err

    def test_fold_count_above_training_rows_exit_5_before_models(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**SMALL_CONFIG, "fold_count": 1000}))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert (out / "features" / "features.csv").exists()
        assert not (out / "models").exists()
        err = capsys.readouterr().err
        assert re.search(r"fold_count 1000 exceeds the \d+ training rows", err)
        assert "Traceback" not in err

    def test_selection_keeping_no_column_exit_5_leaves_no_models(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({**SMALL_CONFIG, "selection_significance": 1e-300}))
        out = tmp_path / "o"
        assert main(["all", "--config", str(config_path), "--out", str(out)]) == 5
        assert "feature selection kept no columns" in capsys.readouterr().err
        assert (out / "features" / "features.csv").exists()
        assert not (out / "models").exists()

    def test_model_file_of_another_kind_exit_4(self, small_run, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(small_run["out"] / "models", models)
        shutil.copyfile(models / "svm_best.model", models / "lr_all.model")
        out = tmp_path / "o"
        assert self._evaluate(small_run, models, out) == 4
        err = capsys.readouterr().err
        assert f"{models / 'lr_all.model'} holds a svm_best model, not lr_all" in err
        assert "Traceback" not in err
        assert not (out / "eval").exists()

    @pytest.mark.parametrize("flag", ["--ccs-map", "--medical"])
    def test_directory_as_input_exit_3(self, flag, worked_example_files, tmp_path, capsys):
        flags = {"--medical": str(worked_example_files["medical"]), flag: str(tmp_path)}
        argv = ["episodes", "--out", str(tmp_path / "o")]
        for name, value in flags.items():
            argv += [name, value]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    def test_lenient_features_drop_users_without_demographics(self, worked_example_files,
                                                              tmp_path, capsys):
        demographics = worked_example_files["demographics"]
        demographics.write_text(demographics.read_text().replace("User1,M,25", "User1,M,old"))
        inputs = ["--medical", str(worked_example_files["medical"]),
                  "--pharmacy", str(worked_example_files["pharmacy"]),
                  "--demographics", str(demographics)]
        assert main(["features", *inputs, "--out", str(tmp_path / "strict")]) == 4
        out = tmp_path / "lenient"
        assert main(["features", "--lenient", *inputs, "--out", str(out)]) == 0
        users = {line.split(",")[0]
                 for line in (out / "features" / "features.csv").read_text().splitlines()[1:]}
        assert users == {"User2"}
        assert "admissions_dropped=2" in capsys.readouterr().err

    def test_strict_features_name_demographics_file_missing_a_user(self, worked_example_files,
                                                                    tmp_path, capsys):
        demographics = worked_example_files["demographics"]
        text = demographics.read_text()
        demographics.write_text(text.replace("User2,F,35,White,Medium Metro\n", ""))
        inputs = [f"--{name}={path}" for name, path in worked_example_files.items()]
        out = tmp_path / "strict"
        assert main(["features", *inputs, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"error: {demographics}: no demographics row for user 'User2'" in err
        assert "Traceback" not in err and not (out / "features" / "features.csv").exists()
        assert main(["features", "--lenient", *inputs, "--out", str(tmp_path / "lenient")]) == 0
        assert "users_without_demographics=1" in capsys.readouterr().err

    def test_lenient_features_skip_non_ascii_ndc(self, worked_example_files, mappings,
                                                 tmp_path, capsys):
        pharmacy = worked_example_files["pharmacy"]
        pharmacy.write_text(pharmacy.read_text() + "User1,P9,2017-05-06,\u0661\u0662345\n")
        inputs = [f"--{name}={path}" for name, path in worked_example_files.items()]
        assert main(["features", *inputs, "--out", str(tmp_path / "strict")]) == 4
        assert "line 5" in capsys.readouterr().err
        out = tmp_path / "lenient"
        assert main(["features", "--lenient", *inputs, "--out", str(out)]) == 0
        assert "file=pharmacy skipped=1" in capsys.readouterr().err
        features = read_features_csv(out / "features" / "features.csv")
        assert one_hot_encode(features, mappings).n_rows == len(features) == 3

    def test_evaluate_missing_models_dir_exit_3(self, small_run, tmp_path, capsys):
        out = tmp_path / "o"
        assert self._evaluate(small_run, tmp_path / "nowhere", out) == 3
        assert "models directory" in capsys.readouterr().err
        assert not (out / "eval").exists()

    def test_cli_runs_blas_at_one_thread(self, small_run, tmp_path):
        """A CLI run started with two BLAS threads writes the model files
        of the one-thread run."""
        src = str(Path(readmit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"))
        out = tmp_path / "o"
        subprocess.run([sys.executable, "-m", "readmit.cli", "train",
                        "--config", str(small_run["config_path"]),
                        "--features", str(small_run["out"] / "features" / "features.csv"),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        assert tree_bytes(out / "models") == tree_bytes(small_run["out"] / "models")

    def test_non_finite_threshold_flag_exit_5(self, tmp_path):
        assert main(["all", "--threshold", "nan", "--out", str(tmp_path / "o")]) == 5

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])  # --out is required
        assert err.value.code == 2


CLAIM_FILES = {"medical": "medical_claims.csv", "pharmacy": "pharmacy_claims.csv",
               "demographics": "demographics.csv"}
# Rows each claims file refuses, for one of its users: an impossible date, a
# short row, an NDC of 12 digits, a gender or an age out of range.
BAD_ROWS = {
    "medical": ["{},BAD1,2017-99-01,2017-01-02,4280,00000,99231", "{},BAD2"],
    "pharmacy": ["{},BAD3,2017-02-30,0002759701", "{},BAD4,2017-01-01,123456789012"],
    "demographics": ["{},X,30,White,Noncore", "{},F,-4,White,Noncore"],
}


class TestInputInvariances:
    """Harmless changes to SMALL_CONFIG's generated claims files leave every
    file the stages from episodes on write unchanged."""

    @staticmethod
    def _claims(small_run) -> dict[str, list[list[str]]]:
        data = small_run["out"] / "data"
        with contextlib.ExitStack() as stack:
            return {kind: list(csv.reader(stack.enter_context(open(data / name, newline=""))))
                    for kind, name in CLAIM_FILES.items()}

    @staticmethod
    def _run(small_run, claims, *flags) -> tuple[dict[str, bytes], str]:
        """The tree outside ``data/`` written from ``claims`` (kind -> rows,
        header first) by the stages from episodes on, and their stderr."""
        with tempfile.TemporaryDirectory() as tmp:
            out, err = Path(tmp), io.StringIO()
            (out / "data").mkdir()
            for kind, rows in claims.items():
                with open(out / "data" / CLAIM_FILES[kind], "w", newline="") as fh:
                    csv.writer(fh, lineterminator="\n").writerows(rows)
            with contextlib.redirect_stderr(err):
                for stage in ("episodes", "features", "train", "evaluate"):
                    assert main([stage, "--config", str(small_run["config_path"]),
                                 "--out", str(out), *flags]) == 0
            tree = {name: data for name, data in tree_bytes(out).items()
                    if not name.startswith("data/")}
        return tree, err.getvalue()

    @staticmethod
    def _digests(tree: dict[str, bytes]) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in tree.items()}

    def _expected(self, small_run) -> dict[str, str]:
        return {name: digest for name, digest in small_run["sha256"].items()
                if not name.startswith("data/")}

    @settings(max_examples=8)
    @given(data=st.data())
    def test_shuffled_rows_change_no_output(self, small_run, data):
        claims = {kind: [rows[0], *data.draw(st.permutations(rows[1:]), label=kind)]
                  for kind, rows in self._claims(small_run).items()}
        tree, _ = self._run(small_run, claims)
        assert self._digests(tree) == self._expected(small_run)

    @settings(max_examples=8)
    @given(data=st.data())
    def test_permuted_columns_change_no_output(self, small_run, data):
        claims = {}
        for kind, rows in self._claims(small_run).items():
            order = data.draw(st.permutations(range(len(rows[0]))), label=kind)
            claims[kind] = [[row[i] for i in order] for row in rows]
        tree, _ = self._run(small_run, claims)
        assert self._digests(tree) == self._expected(small_run)

    @settings(max_examples=8)
    @given(data=st.data())
    def test_lenient_run_skips_bad_rows_and_changes_only_manifests(self, small_run, data):
        claims = self._claims(small_run)
        users = [row[0] for row in claims["demographics"][1:]]
        skipped = dict.fromkeys(CLAIM_FILES, 0)
        for _ in range(data.draw(st.integers(1, 4), label="bad rows")):
            kind = data.draw(st.sampled_from(sorted(CLAIM_FILES)))
            row = data.draw(st.sampled_from(BAD_ROWS[kind])).format(
                data.draw(st.sampled_from(users)))
            at = data.draw(st.integers(1, len(claims[kind])))
            claims[kind].insert(at, row.split(","))
            skipped[kind] += 1
        tree, err = self._run(small_run, claims, "--lenient")
        expected = self._expected(small_run)
        assert tree.keys() == expected.keys()
        for name, digest in self._digests(tree).items():
            if name.endswith("/manifest.json"):
                # The config's strict flag, and so its hash, are the one change.
                got = json.loads(tree[name])
                want = json.loads((small_run["out"] / name).read_text())
                assert got["config"] == {**want["config"], "strict": False}
                assert {k: v for k, v in got.items() if k not in ("config", "config_hash")} \
                    == {k: v for k, v in want.items() if k not in ("config", "config_hash")}
            else:
                assert digest == expected[name], name
        for kind, count in skipped.items():
            assert (f"file={kind} skipped={count}" in err) == (count > 0), kind


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

    # sha256 of each saved model of one train_models run on SMALL_CONFIG.
    MODEL_SHA256 = {
        "lr_all": "4f0340d34ab3368afe68ace44fd7fed621cbf25e3e97dc8dec07210120b29eed",
        "lr_selected": "28ced7f21e6517974a95ec4156a39a41bcb606de25e980340d1ddca005cb3af4",
        "pca_lr": "430badc73b5a8df98c6030813b1e2a91898d1a10615e933df155bce29466945c",
        "pca_lr_selected": "64309386e346dafe177e89994d3ba50c80ef8a49a5cbcf1ab5af72a1d5db62e1",
        "rf_best": "f3f4305576c2f4f92fc0908d300cee52445721a93e6983fc6989206f53242683",
        "svm_best": "68b74211a4bc06cca99e2fb02d624dd410318975f576952e9f2044295d9b543b",
    }

    def test_saved_model_bytes_are_pinned(self, mappings):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        matrix = self.make_matrix(mappings)
        train, _ = train_test_split(matrix, cfg.split_spec())
        folds = stratified_kfold(train.y, 3, cfg.seed)
        bundles, _, _, _ = train_models(cfg, matrix, train, folds)
        digests = {}
        for kind, bundle in bundles.items():
            text = save_bundle(bundle, io.StringIO())
            assert save_bundle(load_bundle(io.StringIO(text)), io.StringIO()) == text
            digests[kind] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digests == self.MODEL_SHA256

    def test_loaded_forest_ranks_factors_by_column_name(self, mappings, tmp_path):
        matrix = self.make_matrix(mappings)
        model = fit_random_forest(matrix.X, matrix.y, ntree=5, mtry=10, nodesize=3,
                                  maxnodes=16, seed=3)
        save_bundle(ModelBundle(kind="rf_best", column_names=matrix.column_names, rf=model),
                    tmp_path / "rf_best.model")
        loaded = load_bundle(tmp_path / "rf_best.model")
        ranked = rf_importances(loaded.rf, loaded.column_names)
        assert ranked == rf_importances(model, matrix.column_names)
        assert sorted(name for name, _ in ranked) == sorted(matrix.column_names)
        assert ranked[0][1] > 0

    def test_save_is_deterministic(self, mappings, tmp_path):
        matrix = self.make_matrix(mappings)
        model = fit_logistic(matrix.X, matrix.y)
        bundle = ModelBundle(kind="lr_all", column_names=matrix.column_names, lr=model)
        text_a = save_bundle(bundle, tmp_path / "a.model")
        text_b = save_bundle(bundle, tmp_path / "b.model")
        assert text_a == text_b

    def test_column_mismatch_rejected(self, mappings):
        matrix = self.make_matrix(mappings)
        model = fit_logistic(matrix.X, matrix.y)
        bundle = ModelBundle(kind="lr_all", column_names=matrix.column_names, lr=model)
        columns = list(matrix.column_names)
        columns[3] = "wrong"
        with pytest.raises(ConfigError) as err:
            bundle.score(matrix.X, columns)
        assert "lr_all model at column 3: wrong in the features" in str(err.value)
        assert matrix.column_names[3] in str(err.value)
        with pytest.raises(ConfigError, match="column 1: none in the features"):
            bundle.score(matrix.X[:, :1], columns[:1])


def _lr_text() -> str:
    model = LogisticModel(weights=np.array([0.5, -1.0]), intercept=0.25, l2_penalty=1e-4,
                          converged=True, n_iter=3, final_nll=1.5)
    return save_bundle(ModelBundle(kind="lr_all", column_names=["a", "b"], lr=model),
                       io.StringIO())


def _rf_text() -> str:
    tree = Tree(feature=np.array([0, -1, -1], dtype=np.int32), threshold=np.array([0.5, 0, 0]),
                left=np.array([1, -1, -1], dtype=np.int32),
                right=np.array([2, -1, -1], dtype=np.int32),
                value=np.array([0.5, 0.0, 1.0]), n_samples=np.array([4, 2, 2], dtype=np.int32))
    model = RandomForestModel(trees=[tree], ntree=1, mtry=1, nodesize=1, maxnodes=2, seed=0,
                              importances=np.array([1.0, 0.0]))
    return save_bundle(ModelBundle(kind="rf_best", column_names=["a", "b"], rf=model),
                       io.StringIO())


def _pca_text() -> str:
    pca = fit_pca(np.array([[0, 1], [1, 0], [2, 2.5], [3, 1.5]]), 0.5)
    lr = LogisticModel(weights=np.ones(pca.retained), intercept=0.0, l2_penalty=0.0,
                       converged=True, n_iter=1, final_nll=1.0)
    return save_bundle(ModelBundle(kind="pca_lr", column_names=["a", "b"], pca=pca, lr=lr),
                       io.StringIO())


def _svm_text() -> str:
    model = LinearSvmModel(weights=np.array([0.5, -1.0]), intercept=0.25, C=0.1, epochs=5,
                           seed=0, means=np.array([1.0, 2.0]), stds=np.array([0.5, 1.5]))
    return save_bundle(ModelBundle(kind="svm_best", column_names=["a", "b"], svm=model),
                       io.StringIO())


@pytest.mark.parametrize("text,message", [
    pytest.param("readmit-model v1 lr_all\n", r"missing section \[columns\]", id="magic-only"),
    pytest.param(_lr_text().split("converged")[0], r"\[logistic.hyper\] has no key 'converged'",
                 id="cut-in-hyper"),
    pytest.param(_lr_text().split("[logistic.weights]")[0],
                 r"missing section \[logistic.weights\]", id="missing-array-section"),
    pytest.param(_lr_text().replace("readmit-model v1 lr_all", "readmit-model v1 pca_lr"),
                 r"missing section \[pca.hyper\]", id="missing-hyper-section"),
    pytest.param(_lr_text().replace("n_iter = 3\n", ""), r"has no key 'n_iter'",
                 id="missing-hyper-key"),
    pytest.param(_lr_text().replace("1 = -1.0\n", ""), r"parts do not fit its columns",
                 id="short-vector"),
    pytest.param(_lr_text().replace("1 = -1.0", "2 = -1.0"),
                 r"line 13 reads '2 = -1.0\\n', where the model writer puts '1 = -1.0\\n'",
                 id="vector-keys"),
    pytest.param(_lr_text().replace("\n", "\r\n"),
                 r"line 1 reads 'readmit-model v1 lr_all\\r\\n', "
                 r"where the model writer puts 'readmit-model v1 lr_all\\n'", id="crlf"),
    pytest.param(_lr_text().replace("0 = 0.5\n", "0 = 0.50\n"),
                 r"line 12 reads '0 = 0.50\\n', where the model writer puts '0 = 0.5\\n'",
                 id="written-another-way"),
    pytest.param(_lr_text().replace("[columns]", "stray\n[columns]"),
                 r"line 2 reads 'stray\\n', where the model writer puts '\[columns\]\\n'",
                 id="before-first-section"),
    pytest.param(_lr_text().replace("l2_penalty = 0.0001", "l2_penalty = x"),
                 r"\[logistic.hyper\] l2_penalty: bad value 'x'", id="bad-float"),
    pytest.param(_lr_text().replace("converged = 1", "converged = 2"),
                 r"\[logistic.hyper\] converged: bad value '2'", id="bad-bool"),
    pytest.param(_rf_text().replace("-1 0.0 -1 -1 0.0 2", "-1 0.0 -1"),
                 r"\[rf.tree.0\] node 1: 3 fields", id="node-fields"),
    pytest.param(_rf_text().replace("0 0.5 1 2", "0 0.5 1 3"),
                 r"\[rf.tree.0\] has no nodes or a child index outside", id="node-child"),
    pytest.param(_rf_text().replace("-1 0.0 -1 -1 0.0 2", "1 0.5 1 2 0.0 2"),
                 r"\[rf.tree.0\] .* or not after its node", id="node-child-cycle"),
    pytest.param(_rf_text().replace("0 0.5 1 2 0.5 4", "0 0.5 1 2 0.5 99999999999"),
                 r"\[rf.tree.0\] holds a value out of range for int32", id="node-overflow"),
    pytest.param(_rf_text().replace("ntree = 1", "ntree = 2"),
                 r"missing section \[rf.tree.1\]", id="missing-tree"),
    pytest.param(_pca_text().replace("retained = 1", "retained = 3"),
                 r"\[pca.hyper\] retained 3 outside 1..2", id="pca-retained"),
    pytest.param(_svm_text().split("1 = 1.5")[0],
                 r"the svm vectors differ in length: .*'stds': 1", id="svm-vectors-differ"),
    pytest.param(_pca_text().replace("1,0 = 0.7071067811865475\n", ""),
                 r"\[pca.components\] holds 1 values, not 2 x 1", id="pca-components-short"),
])
def test_malformed_model_file_is_parse_error(text, message):
    with pytest.raises(ParseError, match=message):
        load_bundle(io.StringIO(text))


@pytest.mark.parametrize("make", [_lr_text, _rf_text, _pca_text, _svm_text])
def test_model_file_cut_anywhere_is_parse_error(make):
    text = make()
    assert load_bundle(io.StringIO(text)).score(np.zeros((1, 2)), ["a", "b"]).shape == (1,)
    for cut in range(len(text)):
        with pytest.raises(ParseError):
            load_bundle(io.StringIO(text[:cut]))
