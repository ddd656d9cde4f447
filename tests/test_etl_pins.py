"""Byte pins of the generated claims and of the claims -> admissions ->
features path.

``stage_generate`` runs at two seeds, once with a comorbidity signal and
once with a medication signal, and the sha256 of each file it writes is
pinned. ``stage_episodes`` and ``stage_features`` run on generated claims
files at two seeds, and once in lenient mode on files with malformed rows
(a CPT code in non-ASCII digits among them) and with valid rows in
unusual spellings (decimal ICD-9 codes, padded dates, lower case CPT
codes). The sha256 of ``admissions.csv`` and ``features.csv`` and the
lenient parse's ``RowError`` list are pinned, so a change to how claims
are generated, parsed, grouped or featurised that moves one output byte
fails here.
"""

import hashlib

import pytest

from readmit.claims import (
    parse_medical_claims, parse_pharmacy_claims,
    write_demographics, write_medical_claims, write_pharmacy_claims,
)
from readmit.pipeline import RunConfig, stage_episodes, stage_features, stage_generate
from readmit.synth import generate
from readmit.textio import RowError

N_USERS = 600

# Appended to the generated medical claims file (after its last line).
EXTRA_MEDICAL = [
    "U000001,X1,2016-02-30,2016-03-01,4280,00000,99231",     # no such day
    "U000001,X2,2016-03-05,2016-03-01,4280,00000,99231",     # ends before it starts
    "U000001,X3,2016-03-01,2016-03-02,4280,00000,9923",      # 4-character CPT
    "U000001,X4,2016-03-01,2016-03-02,4280,00000,99231,9",   # 8 fields
    ",X5,2016-03-01,2016-03-02,4280,00000,99231",            # no user
    "U000002,X6,2016-03-01,2016-03-02,,00000,99231",         # no primary diagnosis
    "U000002,X7, 2016-06-01 ,2016-06-03,428.0, 250.40 ;V45.81;,٩٩٢٣١",  # non-ASCII CPT
    "U000002,X8,2016-06-02,2016-06-02,v4581,403.91,99283",
    "U000002,X9,2016-06-03,2016-06-04,e8889,586,0001f",
    "U000003,X10,2016-09-09,2016-09-12,41401,00000, 99233 ",
    "U000003,X11,2016-09-10,2016-09-10,41401,4280,27130",
    "U000002,X12, 2016-06-01 ,2016-06-03,428.0, 250.40 ;V45.81;,99231",
]
EXTRA_PHARMACY = [
    "U000002,Y1,2016-06-02,12345678901",                    # 11 digits
    "U000002,Y2,2016-06-02,12-345",                         # not numeric
    "U000002,Y3,06/02/2016,1234567890",                     # not ISO
    "U000002,Y4,2016-06-03,7",
]

PINS = {
    1: ("7ecdd529731834f3d5072b02641e71f4edfdafc6571cd86e4706db8d5556ee99",
        "b66bd80bbcb280d61e4704705c537a0e6155d71fba3dbaa197cdaaef6213e2ed"),
    2: ("a1277cf6c796fe71762e002799b4ca266494669f0641593613efb17cd6f5c590",
        "b2546e2d71cd770bfd88949441e019998af136ef7034be14850bb5cf84729f3e"),
    "lenient": ("5a36d4b91910537fcc5836b29e124dc87231efc4dfddea6ae58b002a6d65fb27",
                "ec8e529174eddde2c4c388c548ffb4f0cd560d8f2fb22a989f91d72838872b9a"),
}

# seed -> (planted signal, sha256 of each file in data/).
GENERATED_PINS = {
    1: ({"kind": "comorbidity", "value": "4280", "strength": 1.1}, {
        "demographics.csv": "5654eac59cde318ecd59d839284d3e45d11516da4e0f0b270d4d680495ad856c",
        "medical_claims.csv": "ffdc2138647df8ac534e0f774bbb8bebae8c134634c24d5ba19eb7f65ce92367",
        "pharmacy_claims.csv": "295ce6f5b663877b47ffb1cdf6f620e0c109085ca5850f8b096decdb2df36335",
    }),
    2: ({"kind": "medication", "value": "07", "strength": 1.1, "carrier_rate": 0.4}, {
        "demographics.csv": "20b70f5cc94e902129a436d1a1e556ac2b407b22d1a492535464e658fbf847d1",
        "medical_claims.csv": "51ef6461630c255817861fae3cba9e478f5bde674d48695d1366aa12e7352e21",
        "pharmacy_claims.csv": "ab46d3978336c2e2724fe6b7535ac83c39427e880c8732ab1fb5f74da613ac50",
    }),
}

LENIENT_ERRORS = {
    "medical": [
        (2905, "malformed service_start date '2016-02-30' (expected YYYY-MM-DD)"),
        (2906, "service_start 2016-03-05 after service_end 2016-03-01"),
        (2907, "bad CPT code '9923' (expected 5 characters)"),
        (2908, "expected 7 fields, got 8"),
        (2909, "missing user_id"),
        (2910, "missing primary_diagnosis"),
        (2911, "bad CPT code '٩٩٢٣١' (expected 5 characters)"),
    ],
    "pharmacy": [
        (1183, "NDC code '12345678901' longer than 10 digits"),
        (1184, "NDC code '12-345' is not numeric"),
        (1185, "malformed service date '06/02/2016' (expected YYYY-MM-DD)"),
    ],
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, seed: int, lenient: bool):
    cfg = RunConfig.from_dict({"seed": seed, "strict": not lenient,
                               "generator": {"n_users": N_USERS}})
    out = tmp_path / "out"
    data_dir = out / "data"
    data_dir.mkdir(parents=True)
    data = generate(cfg.generator_config())
    write_medical_claims(data.medical, data_dir / "medical_claims.csv")
    write_pharmacy_claims(data.pharmacy, data_dir / "pharmacy_claims.csv")
    write_demographics(data.demographics, data_dir / "demographics.csv")
    if lenient:
        for name, rows in (("medical_claims.csv", EXTRA_MEDICAL),
                           ("pharmacy_claims.csv", EXTRA_PHARMACY)):
            with open(data_dir / name, "a", encoding="utf-8", newline="") as fh:
                fh.write("".join(row + "\r\n" for row in rows))
    stage_episodes(cfg, out)
    stage_features(cfg, out)
    return out


@pytest.mark.parametrize("seed", sorted(GENERATED_PINS))
def test_generated_claims_are_pinned(tmp_path, seed):
    signal, pins = GENERATED_PINS[seed]
    cfg = RunConfig.from_dict({"seed": seed, "generator": {"n_users": 300, "signals": [signal]}})
    data_dir = stage_generate(cfg, tmp_path)
    assert {p.name: _sha256(p) for p in sorted(data_dir.glob("*.csv"))} == pins


@pytest.mark.parametrize("seed", [1, 2])
def test_strict_outputs_are_pinned(tmp_path, seed):
    out = _run(tmp_path, seed, lenient=False)
    digests = (_sha256(out / "episodes" / "admissions.csv"),
               _sha256(out / "features" / "features.csv"))
    assert digests == PINS[seed]


def test_lenient_outputs_and_row_errors_are_pinned(tmp_path):
    out = _run(tmp_path, 3, lenient=True)
    digests = (_sha256(out / "episodes" / "admissions.csv"),
               _sha256(out / "features" / "features.csv"))
    assert digests == PINS["lenient"]
    errors = {
        "medical": parse_medical_claims(out / "data" / "medical_claims.csv", strict=False).errors,
        "pharmacy": parse_pharmacy_claims(out / "data" / "pharmacy_claims.csv",
                                          strict=False).errors,
    }
    assert errors == {name: [RowError(*e) for e in rows]
                      for name, rows in LENIENT_ERRORS.items()}
