import hashlib
import io
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.claims import DemographicRecord, MedicalClaim, PharmacyClaim
from readmit.episodes import Episode, LabeledAdmission, build_labeled_admissions
from readmit.features import (
    FAMILIES, FEATURES_COLUMNS, AdmissionFeatures, admitting_diagnosis, age_group,
    count_previous_admissions, count_previous_ed_admissions, count_previous_hospital_visits,
    extract_comorbidities, extract_features, extract_medications,
    extract_procedures, length_of_stay, read_features_csv, write_features_csv,
)

from conftest import PINNED_FEATURES


def claim(cid, start, end, cpt="99231", user="U1", primary="4280", others=()):
    return MedicalClaim(
        user_id=user, claim_id=cid,
        service_start=date.fromisoformat(start), service_end=date.fromisoformat(end),
        primary_diagnosis=primary, other_diagnoses=tuple(others), cpt_code=cpt,
    )


def admission(start, end, claims, user="U1", aid="A1", is_ed=False, readmitted=False):
    return LabeledAdmission(
        user_id=user, admission_id=aid, episode_id="E1",
        start=date.fromisoformat(start), end=date.fromisoformat(end),
        member_claims=tuple(claims), is_ed_admission=is_ed,
        readmitted_within_30d=readmitted, removed_readmission_ids=(),
    )


class TestComorbidities:
    def test_worked_example_a1(self, mappings):
        a = admission("2017-05-01", "2017-05-08", [
            claim("C2", "2017-05-01", "2017-05-03", cpt="99281", primary="70890", others=["40201"]),
            claim("C3", "2017-05-04", "2017-05-08", cpt="61000", primary="04112", others=["09320"]),
        ])
        assert extract_comorbidities(a, mappings) == {"CHF", "Valvular"}

    def test_worked_example_a2(self, mappings):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-01", "2017-07-03", primary="37234", others=["34200"]),
        ])
        assert extract_comorbidities(a, mappings) == {"Paralysis"}

    def test_primary_diagnosis_not_consulted(self, mappings):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C1", "2017-07-01", "2017-07-03", primary="42800", others=[]),
        ])
        assert extract_comorbidities(a, mappings) == frozenset()

    def test_no_codes(self, mappings):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C1", "2017-07-01", "2017-07-03", others=[]),
        ])
        assert extract_comorbidities(a, mappings) == frozenset()


class TestAgeGroup:
    @pytest.mark.parametrize("age,group", [
        (0, "Touch"), (19, "Touch"), (20, "Millennials"), (25, "Millennials"),
        (36, "Millennials"), (37, "GenX"), (48, "GenX"), (49, "Boomers"),
        (67, "Boomers"), (68, "Swing"), (99, "Swing"),
    ])
    def test_bins(self, age, group):
        assert age_group(age) == group

    @given(st.integers(0, 200))
    def test_every_age_has_exactly_one_bin(self, age):
        assert age_group(age) in {"Touch", "Millennials", "GenX", "Boomers", "Swing"}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            age_group(-1)


class TestLengthOfStay:
    @pytest.mark.parametrize("start,end,days", [
        ("2017-05-01", "2017-05-08", 8),
        ("2017-07-01", "2017-07-03", 3),
        ("2018-01-03", "2018-01-15", 13),
        ("2018-01-03", "2018-01-03", 1),
    ])
    def test_inclusive_count(self, start, end, days):
        a = admission(start, end, [claim("C", start, end)])
        assert length_of_stay(a) == days


class TestMedications:
    def test_in_window_categories(self):
        a = admission("2017-05-01", "2017-05-08", [claim("C", "2017-05-01", "2017-05-08")])
        pharmacy = [
            PharmacyClaim("U1", "P1", date(2017, 5, 5), "0002759701"),
            PharmacyClaim("U1", "P2", date(2017, 5, 7), "5024204062"),
            PharmacyClaim("U1", "P9", date(2017, 6, 7), "9924204062"),  # out of window
        ]
        assert extract_medications(a, pharmacy) == {"00", "50"}

    def test_window_boundaries_inclusive(self):
        a = admission("2017-05-01", "2017-05-08", [claim("C", "2017-05-01", "2017-05-08")])
        pharmacy = [
            PharmacyClaim("U1", "P1", date(2017, 5, 1), "1100000000"),
            PharmacyClaim("U1", "P2", date(2017, 5, 8), "2200000000"),
            PharmacyClaim("U1", "P3", date(2017, 4, 30), "3300000000"),
            PharmacyClaim("U1", "P4", date(2017, 5, 9), "4400000000"),
        ]
        assert extract_medications(a, pharmacy) == {"11", "22"}

    def test_no_claims(self):
        a = admission("2017-07-01", "2017-07-03", [claim("C", "2017-07-01", "2017-07-03")])
        assert extract_medications(a, []) == frozenset()


class TestPreviousCounts:
    def make_history(self):
        first = admission("2017-05-01", "2017-05-08",
                          [claim("C2", "2017-05-01", "2017-05-03", cpt="99281")],
                          aid="A1", is_ed=True)
        second = admission("2017-07-01", "2017-07-03",
                           [claim("C5", "2017-07-01", "2017-07-03")], aid="A2")
        return [first, second]

    def test_previous_admissions(self):
        history = self.make_history()
        assert count_previous_admissions(history[0], history) == 0
        assert count_previous_admissions(history[1], history) == 1

    def test_previous_ed_admissions(self):
        history = self.make_history()
        assert count_previous_ed_admissions(history[0], history) == 0
        assert count_previous_ed_admissions(history[1], history) == 1

    def test_previous_hospital_visits_strict_boundary(self, mappings):
        a = admission("2017-07-01", "2017-07-03", [claim("C5", "2017-07-01", "2017-07-03")])
        visits = [
            claim("V1", "2017-06-01", "2017-06-01", cpt="99220"),
            claim("V2", "2017-07-01", "2017-07-01", cpt="99220"),  # same day: not before
            claim("V3", "2017-06-01", "2017-06-01", cpt="99211"),  # not a hospital visit
        ]
        assert count_previous_hospital_visits(a, visits, mappings) == 1


class TestAdmittingDiagnosis:
    def test_worked_example_a2(self):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-01", "2017-07-03", primary="37234"),
        ])
        assert admitting_diagnosis(a) == "Nervous system and sense organs"

    def test_tie_break_by_end_then_id(self):
        a = admission("2018-01-03", "2018-01-15", [
            claim("C7", "2018-01-03", "2018-01-15", primary="99529"),
            claim("C6", "2018-01-03", "2018-01-08", primary="78903"),
        ])
        assert admitting_diagnosis(a) == "Symptoms, signs and ill-defined conditions"

    def test_vcode_maps_to_health_status_chapter(self):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-01", "2017-07-03", primary="V4501"),
        ])
        assert admitting_diagnosis(a) == \
            "Factors influencing health status and contact with health services"

    def test_invalid_code_falls_back_to_others(self):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-01", "2017-07-03", primary="ZZZ"),
        ])
        assert admitting_diagnosis(a) == "Others"

    def test_no_claim_on_admission_day_degrades_to_others(self):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-02", "2017-07-03", primary="37234"),
        ])
        assert admitting_diagnosis(a) == "Others"


class TestProcedures:
    def test_ccs_lookup(self, mappings):
        a = admission("2017-05-01", "2017-05-08", [
            claim("C2", "2017-05-01", "2017-05-03", cpt="99281"),
            claim("C3", "2017-05-04", "2017-05-08", cpt="61000"),
        ])
        ids = extract_procedures(a, mappings)
        assert {mappings.ccs_labels[i] for i in ids} == {"Incision and excision of CNS"}

    def test_em_only_admission_has_none(self, mappings):
        a = admission("2017-07-01", "2017-07-03", [
            claim("C5", "2017-07-01", "2017-07-03", cpt="99231"),
        ])
        assert extract_procedures(a, mappings) == frozenset()


def test_worked_example_full_feature_tables(worked_example, mappings):
    labeled, _ = build_labeled_admissions(worked_example["medical"], mappings)
    feats = extract_features(labeled, worked_example["medical"],
                             worked_example["pharmacy"],
                             worked_example["demographics"], mappings)
    by_id = {f.admission_id: f for f in feats}
    assert by_id["A1"].comorbidities == {"CHF", "Valvular"}
    assert by_id["A2"].comorbidities == {"Paralysis"}
    assert by_id["A3"].comorbidities == {"Pulmonary"}
    assert [by_id[a].los_days for a in ("A1", "A2", "A3")] == [8, 3, 13]
    assert by_id["A1"].medication_categories == {"00", "50"}
    assert by_id["A2"].medication_categories == frozenset()
    assert by_id["A3"].medication_categories == {"60"}
    assert [by_id[a].n_prev_admissions for a in ("A1", "A2", "A3")] == [0, 1, 0]
    assert [by_id[a].n_prev_ed_admissions for a in ("A1", "A2", "A3")] == [0, 1, 0]
    assert [by_id[a].n_prev_hospital_visits for a in ("A1", "A2", "A3")] == [0, 0, 0]
    assert by_id["A2"].admitting_diagnosis == "Nervous system and sense organs"
    assert {mappings.ccs_labels[i] for i in by_id["A1"].procedure_categories} == \
        {"Incision and excision of CNS"}
    assert by_id["A2"].procedure_categories == frozenset()
    assert {mappings.ccs_labels[i] for i in by_id["A3"].procedure_categories} == \
        {"Gastric bypass and volume reduction"}
    assert by_id["A1"].gender == "M" and by_id["A1"].age_group == "Millennials"
    assert by_id["A3"].ethnicity == "White" and by_id["A3"].scheme_type == "MediumMetro"
    assert [by_id[a].readmitted_within_30d for a in ("A1", "A2", "A3")] == \
        [True, False, False]


@given(st.text(alphabet="0123456789VEZX.", min_size=0, max_size=6))
def test_totality_odd_codes_never_raise(mappings, code):
    a = admission("2017-07-01", "2017-07-03", [
        claim("C5", "2017-07-01", "2017-07-03", primary=code or "0", others=[code] if code else []),
    ])
    extract_comorbidities(a, mappings)
    admitting_diagnosis(a)
    extract_procedures(a, mappings)


def test_determinism_identical_users_identical_features(worked_example, mappings):
    feats1 = extract_features(*(lambda l, r: (l, worked_example["medical"],
                                              worked_example["pharmacy"],
                                              worked_example["demographics"], mappings))(
        *build_labeled_admissions(worked_example["medical"], mappings)))
    feats2 = extract_features(
        build_labeled_admissions(worked_example["medical"], mappings)[0],
        worked_example["medical"], worked_example["pharmacy"],
        worked_example["demographics"], mappings)
    assert feats1 == feats2


def test_features_csv_round_trip(worked_example, mappings, tmp_path):
    labeled, _ = build_labeled_admissions(worked_example["medical"], mappings)
    feats = extract_features(labeled, worked_example["medical"],
                             worked_example["pharmacy"],
                             worked_example["demographics"], mappings)
    path = tmp_path / "features.csv"
    write_features_csv(feats, path)
    assert read_features_csv(path) == feats


def test_schema_is_the_family_table():
    assert FEATURES_COLUMNS == [
        "user_id", "admission_id", *(family.field for family in FAMILIES),
        "readmitted_within_30d",
    ]
    assert FEATURES_COLUMNS == list(AdmissionFeatures._fields)


@pytest.mark.parametrize("make", [
    lambda: claim("C1", "2017-01-01", "2017-01-02", others=("25000",)),
    lambda: PharmacyClaim("U1", "P1", date(2017, 1, 1), "0002759701"),
    lambda: DemographicRecord("U1", "F", 70, "Asian", "Noncore"),
    lambda: Episode("U1", "E1", date(2017, 1, 1), date(2017, 1, 2),
                    (claim("C1", "2017-01-01", "2017-01-02"),)),
    lambda: admission("2017-01-01", "2017-01-02", [claim("C1", "2017-01-01", "2017-01-02")]),
    lambda: AdmissionFeatures("U1", "A1", frozenset({"CHF"}), "F", "Boomers", "Hispanic",
                              "Micropolitan", 12, frozenset({"07"}), 3, 1, "Others", 4,
                              frozenset({3}), True),
], ids=lambda make: type(make()).__name__)
def test_records_are_immutable_and_hashable(make):
    """What every per-row record keeps: no field can be set, equal records
    hash alike, and a record carries no ``__dict__``."""
    record = make()
    with pytest.raises(AttributeError):
        record.user_id = "U2"
    assert record.user_id == "U1"
    assert record is not make() and hash(record) == hash(make())
    assert not hasattr(record, "__dict__")


def test_features_csv_bytes_are_pinned():
    buffer = io.StringIO()
    write_features_csv(PINNED_FEATURES, buffer)
    text = buffer.getvalue()
    assert '3;44;152' in text and '"Endocrine, nutritional, metabolic, immunity disorders"' in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "fa1c97609fc5d3710ac4011a437a7ec6ff936f8713df04069b83ffa9713ad70e")
    assert read_features_csv(io.StringIO(text)) == PINNED_FEATURES
