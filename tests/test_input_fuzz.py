"""Every kind of input the CLI reads, damaged at random, fails cleanly.

Each test damages one input kind (truncated, a byte spliced in, a header
field dropped or repeated, two lines swapped, or emptied) and runs the stage
that reads it through ``cli.main``. The exit code must be 0, 3, 4 or 5, no
traceback may appear, and a failure prints one ``error:`` line. That line
names the damaged file; at exit 5 it may instead name another input, a
config key or a model kind, as when a damaged column name in a model file
no longer matches the features.
"""

import dataclasses
import io
import json
from contextlib import redirect_stderr
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PINNED_FEATURES, WORKED_DEMOGRAPHICS, WORKED_MEDICAL, WORKED_PHARMACY
from readmit.claims import parse_demographics, parse_medical_claims, parse_pharmacy_claims
from readmit.cli import main
from readmit.codes import load_ccs_map, load_comorbidity_map
from readmit.errors import MappingError, ParseError
from readmit.features import read_features_csv, write_features_csv
from readmit.models.persist import BUNDLE_KINDS
from readmit.pipeline import RunConfig
from readmit.synth import GeneratorConfig, SignalSpec

MAPS = {name: Path(str(resources.files("readmit").joinpath("data", f"{name}.csv")))
        for name in ("comorbidity_map", "ccs_map")}
CLAIMS = {"medical": WORKED_MEDICAL, "pharmacy": WORKED_PHARMACY,
          "demographics": WORKED_DEMOGRAPHICS}
CONFIG = {
    "seed": 7,
    "fold_count": 3,
    "generator": {"n_users": 90, "readmission_fraction": 0.3, "mean_admissions_per_user": 1.5},
    "rf_grid": {"ntree": [8], "mtry": [10], "nodesize": [3], "maxnodes": [32]},
    "svm_c_grid": [0.1],
    "lr_max_iter": 150,
}
CONFIG_KEYS = [f.name for cls in (RunConfig, GeneratorConfig, SignalSpec)
               for f in dataclasses.fields(cls)]
FUZZ = settings(max_examples=40)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The worked example's claims files and a `readmit all` tree of a small
    generated run; ``damaged`` is where a test writes a damaged copy."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in CLAIMS.items():
        (root / f"{name}.csv").write_text(text)
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG, indent=2))
    out = root / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    (root / "damaged").mkdir()
    return {"root": root, "config": config, "out": out, "damaged": root / "damaged"}


@st.composite
def damaged(draw, data: bytes, csv: bool):
    """``data`` cut short, with one byte spliced in, with a header field (a
    line, unless ``csv``) dropped or repeated, with two lines swapped, or
    emptied."""
    lines = data.splitlines(keepends=True)
    how = draw(st.sampled_from(["truncate", "splice", "drop", "repeat", "swap", "empty"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "splice":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"\xff\x00\n\r,\";-.0e[]= ") | st.integers(0, 255))
        return data[:at] + bytes([byte]) + data[at:]
    if how == "empty":
        return b""
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        return b"".join(lines)
    items = lines[0].rstrip(b"\n").split(b",") if csv else lines
    k = i % len(items)
    items[k:k + 1] = [items[k]] * 2 if how == "repeat" else []
    if csv:
        lines[0] = b",".join(items) + b"\n"
    return b"".join(lines)


def check_fails_cleanly(argv, path: Path, data: bytes, inputs=(), names=()) -> None:
    """Run ``argv`` with ``data`` written to ``path``: exit 0, 3, 4 or 5, no
    traceback, and on failure one ``error:`` line naming ``path`` or another
    of the stage's ``inputs``, or at exit 5 one of ``names``."""
    path.write_bytes(data)
    with redirect_stderr(io.StringIO()) as stderr:
        code = main(argv)
    err = stderr.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code in (0, 3, 4, 5) and "Traceback" not in err, err
    assert len(errors) == (code != 0), err
    if code:
        named = (path, *inputs, *(names if code == 5 else ()))
        assert any(str(name) in errors[0] for name in named), errors[0]


@pytest.mark.parametrize("kind", CLAIMS)
@FUZZ
@given(data=st.data())
def test_damaged_claims_file_fails_cleanly(run, kind, data):
    path = run["damaged"] / f"{kind}.csv"
    inputs = {name: run["root"] / f"{name}.csv" for name in CLAIMS} | {kind: path}
    text = data.draw(damaged(CLAIMS[kind].encode(), csv=True))
    check_fails_cleanly(["features", *(f"--{name}={p}" for name, p in inputs.items()),
                         "--out", str(run["root"] / "o")], path, text, inputs.values())


@pytest.mark.parametrize("kind", MAPS)
@FUZZ
@given(data=st.data())
def test_damaged_code_map_fails_cleanly(run, kind, data):
    path = run["damaged"] / f"{kind}.csv"
    text = data.draw(damaged(MAPS[kind].read_bytes(), csv=True))
    check_fails_cleanly(["episodes", "--medical", str(run["root"] / "medical.csv"),
                         f"--{kind.replace('_', '-')}", str(path),
                         "--out", str(run["root"] / "o")], path, text, names=CONFIG_KEYS)


def _json_keys(data: bytes) -> list[str]:
    """Every object key of ``data`` if it is JSON, else none."""
    def keys(value):
        if isinstance(value, dict):
            return [*value, *(k for v in value.values() for k in keys(v))]
        return [k for v in value for k in keys(v)] if isinstance(value, list) else []
    try:
        return keys(json.loads(data))
    except ValueError:
        return []


@FUZZ
@given(data=st.data())
def test_damaged_config_fails_cleanly(run, data):
    path = run["damaged"] / "config.json"
    text = data.draw(damaged(run["config"].read_bytes(), csv=False))
    check_fails_cleanly(["episodes", "--config", str(path),
                         "--medical", str(run["root"] / "medical.csv"),
                         "--out", str(run["root"] / "o")], path, text,
                        names=[*CONFIG_KEYS, *_json_keys(text)])


def _evaluate(run, path: Path, data: bytes, features: Path | None = None) -> None:
    """``readmit evaluate`` of the tree with ``path``, a file of its models
    directory or a damaged features file, holding ``data``."""
    models, features = run["out"] / "models", features or run["out"] / "features" / "features.csv"
    original = path.read_bytes() if path.parent == models else None
    try:
        check_fails_cleanly(["evaluate", "--config", str(run["config"]),
                             "--features", str(features), "--models", str(models),
                             "--out", str(run["root"] / "o")], path, data,
                            names=[models / "split_manifest.json", *BUNDLE_KINDS])
    finally:
        if original is not None:
            path.write_bytes(original)


@FUZZ
@given(data=st.data())
def test_damaged_features_file_fails_cleanly(run, data):
    source = (run["out"] / "features" / "features.csv").read_bytes()
    path = run["damaged"] / "features.csv"
    _evaluate(run, path, data.draw(damaged(source, csv=True)), features=path)


def test_count_beyond_float_range_exit_4(run, capsys):
    """A count that passes as a decimal integer but no float can hold is
    refused like a level outside its domain: the file, the admission and
    the column are named."""
    path = run["damaged"] / "features.csv"
    header, first, rest = (run["out"] / "features" / "features.csv").read_text().split("\n", 2)
    cells = first.split(",")
    cells[header.split(",").index("los_days")] = "9" * 400
    path.write_text("\n".join([header, ",".join(cells), rest]))
    assert main(["train", "--config", str(run["config"]), "--features", str(path),
                 "--out", str(run["root"] / "o")]) == 4
    err = capsys.readouterr().err
    assert f"error: {path}: admission {cells[0]}/{cells[1]}: los_days" in err
    assert "Traceback" not in err


@FUZZ
@given(data=st.data())
def test_damaged_model_file_fails_cleanly(run, data):
    path = run["out"] / "models" / f"{data.draw(st.sampled_from(list(BUNDLE_KINDS)))}.model"
    _evaluate(run, path, data.draw(damaged(path.read_bytes(), csv=False)))


@FUZZ
@given(data=st.data())
def test_damaged_split_manifest_fails_cleanly(run, data):
    path = run["out"] / "models" / "split_manifest.json"
    _evaluate(run, path, data.draw(damaged(path.read_bytes(), csv=False)))


@pytest.mark.parametrize("read,text", [
    (parse_medical_claims, WORKED_MEDICAL),
    (parse_pharmacy_claims, WORKED_PHARMACY),
    (parse_demographics, WORKED_DEMOGRAPHICS),
    (load_comorbidity_map, MAPS["comorbidity_map"].read_text()),
    (load_ccs_map, MAPS["ccs_map"].read_text()),
    (read_features_csv, None),
], ids=["medical", "pharmacy", "demographics", "comorbidity_map", "ccs_map", "features"])
def test_repeated_header_column_is_parse_error(read, text, tmp_path):
    if text is None:
        features = io.StringIO()
        write_features_csv(PINNED_FEATURES, features)
        text = features.getvalue()
    header, rows = text.split("\n", 1)
    first = header.split(",")[0]
    path = tmp_path / "input.csv"
    path.write_text(f"{header},{first}\n{rows}")
    with pytest.raises((ParseError, MappingError),
                       match=f"line 1: bad header: column '{first}' repeated"):
        read(path)
