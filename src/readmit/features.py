"""Per-admission predictor extraction.

Nine predictor families per retained admission: comorbidities, demographics
(gender, age group, ethnicity, scheme type), length of stay, in-window
medication categories, previous admission count, previous emergency
department admission count, admitting diagnosis body system, previous
hospital-visit claim count, and CCS procedure categories.

Window discipline: medication and procedure features come only from claims
dated within [start, end]; "previous" counts come only from events strictly
before the admission start. Unknown codes degrade to empty sets or
"Others", never to errors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .claims import DemographicRecord, MedicalClaim, PharmacyClaim
from .codes import CodeMappingConfig, OTHER_DIAGNOSIS, icd9_chapter
from .episodes import LabeledAdmission
from .errors import ReadmitError
from .textio import text_stream, write_csv

AGE_GROUPS: tuple[tuple[str, int, int | None], ...] = (
    ("Touch", 0, 20),
    ("Millennials", 20, 37),
    ("GenX", 37, 49),
    ("Boomers", 49, 68),
    ("Swing", 68, None),
)
AGE_GROUP_NAMES = tuple(name for name, _, _ in AGE_GROUPS)

MEDICATION_CATEGORIES = tuple(f"{i:02d}" for i in range(100))

FEATURES_COLUMNS = [
    "user_id", "admission_id", "comorbidities", "gender", "age_group",
    "ethnicity", "scheme_type", "los_days", "medication_categories",
    "n_prev_admissions", "n_prev_ed_admissions", "admitting_diagnosis",
    "n_prev_hospital_visits", "procedure_categories", "readmitted_within_30d",
]


@dataclass(frozen=True)
class AdmissionFeatures:
    user_id: str
    admission_id: str
    comorbidities: frozenset[str]
    gender: str
    age_group: str
    ethnicity: str
    scheme_type: str
    los_days: int
    medication_categories: frozenset[str]
    n_prev_admissions: int
    n_prev_ed_admissions: int
    admitting_diagnosis: str
    n_prev_hospital_visits: int
    procedure_categories: frozenset[int]
    readmitted_within_30d: bool


def extract_comorbidities(admission: LabeledAdmission, config: CodeMappingConfig) -> frozenset[str]:
    """Union of longest-prefix matches over the member claims' other
    diagnosis codes. Primary diagnosis codes are not consulted."""
    found: set[str] = set()
    for claim in admission.member_claims:
        for code in claim.other_diagnoses:
            found.update(config.comorbidities_for(code))
    return frozenset(found)


def age_group(age: int) -> str:
    if age < 0:
        raise ValueError(f"negative age {age}")
    for name, low, high in AGE_GROUPS:
        if high is None or age < high:
            return name
    raise AssertionError("unreachable: age bins cover [0, inf)")


def length_of_stay(admission: LabeledAdmission) -> int:
    """Inclusive day count: a same-day admission is a 1-day stay."""
    return (admission.end - admission.start).days + 1


def extract_medications(
    admission: LabeledAdmission, pharmacy_claims: list[PharmacyClaim]
) -> frozenset[str]:
    """Two-digit drug categories (leading NDC digits) of pharmacy claims
    dated inside the admission window."""
    return frozenset(
        p.ndc_code[:2]
        for p in pharmacy_claims
        if admission.start <= p.service_date <= admission.end
    )


def count_previous_admissions(
    admission: LabeledAdmission, user_admissions: list[LabeledAdmission]
) -> int:
    """Retained admissions starting strictly before this one; removed
    readmissions never count."""
    return sum(1 for a in user_admissions if a.start < admission.start)


def count_previous_ed_admissions(
    admission: LabeledAdmission, user_admissions: list[LabeledAdmission]
) -> int:
    return sum(
        1 for a in user_admissions if a.is_ed_admission and a.start < admission.start
    )


def admitting_diagnosis(admission: LabeledAdmission) -> str:
    """Body-system chapter of the primary diagnosis billed on the admission
    day; ties broken by (service_end, claim_id)."""
    day_claims = [c for c in admission.member_claims if c.service_start == admission.start]
    if not day_claims:
        return OTHER_DIAGNOSIS
    first = min(day_claims, key=lambda c: (c.service_end, c.claim_id))
    return icd9_chapter(first.primary_diagnosis)


def count_previous_hospital_visits(
    admission: LabeledAdmission,
    user_medical_claims: list[MedicalClaim],
    config: CodeMappingConfig,
) -> int:
    """Individual hospital-visit claims (not episodes) ending strictly
    before the admission start."""
    return sum(
        1
        for c in user_medical_claims
        if config.is_hospital_visit(c.cpt_code) and c.service_end < admission.start
    )


def extract_procedures(admission: LabeledAdmission, config: CodeMappingConfig) -> frozenset[int]:
    """CCS categories of member-claim CPTs; unmapped codes (including E&M
    codes) contribute nothing."""
    found: set[int] = set()
    for claim in admission.member_claims:
        ccs = config.ccs_category(claim.cpt_code)
        if ccs is not None:
            found.add(ccs)
    return frozenset(found)


def extract_all(
    admission: LabeledAdmission,
    user_admissions: list[LabeledAdmission],
    user_medical_claims: list[MedicalClaim],
    user_pharmacy_claims: list[PharmacyClaim],
    demographic: DemographicRecord,
    config: CodeMappingConfig,
) -> AdmissionFeatures:
    return AdmissionFeatures(
        user_id=admission.user_id,
        admission_id=admission.admission_id,
        comorbidities=extract_comorbidities(admission, config),
        gender=demographic.gender,
        age_group=age_group(demographic.age),
        ethnicity=demographic.ethnicity,
        scheme_type=demographic.scheme_type,
        los_days=length_of_stay(admission),
        medication_categories=extract_medications(admission, user_pharmacy_claims),
        n_prev_admissions=count_previous_admissions(admission, user_admissions),
        n_prev_ed_admissions=count_previous_ed_admissions(admission, user_admissions),
        admitting_diagnosis=admitting_diagnosis(admission),
        n_prev_hospital_visits=count_previous_hospital_visits(
            admission, user_medical_claims, config
        ),
        procedure_categories=extract_procedures(admission, config),
        readmitted_within_30d=admission.readmitted_within_30d,
    )


def extract_features(
    labeled: list[LabeledAdmission],
    medical_claims: list[MedicalClaim],
    pharmacy_claims: list[PharmacyClaim],
    demographics: list[DemographicRecord],
    config: CodeMappingConfig,
) -> list[AdmissionFeatures]:
    """Features for every retained admission, in input order."""
    demo_by_user = {d.user_id: d for d in demographics}
    medical_by_user: dict[str, list[MedicalClaim]] = {}
    for c in medical_claims:
        medical_by_user.setdefault(c.user_id, []).append(c)
    pharmacy_by_user: dict[str, list[PharmacyClaim]] = {}
    for p in pharmacy_claims:
        pharmacy_by_user.setdefault(p.user_id, []).append(p)
    admissions_by_user: dict[str, list[LabeledAdmission]] = {}
    for a in labeled:
        admissions_by_user.setdefault(a.user_id, []).append(a)

    out = []
    for a in labeled:
        demo = demo_by_user.get(a.user_id)
        if demo is None:
            raise ReadmitError(f"no demographics row for user {a.user_id!r}")
        out.append(extract_all(
            a,
            admissions_by_user[a.user_id],
            medical_by_user.get(a.user_id, []),
            pharmacy_by_user.get(a.user_id, []),
            demo,
            config,
        ))
    return out


def write_features_csv(features: list[AdmissionFeatures], dest):
    write_csv(dest, FEATURES_COLUMNS, (
        [f.user_id, f.admission_id,
         ";".join(sorted(f.comorbidities)),
         f.gender, f.age_group, f.ethnicity, f.scheme_type,
         str(f.los_days),
         ";".join(sorted(f.medication_categories)),
         str(f.n_prev_admissions), str(f.n_prev_ed_admissions),
         f.admitting_diagnosis,
         str(f.n_prev_hospital_visits),
         ";".join(str(i) for i in sorted(f.procedure_categories)),
         str(f.readmitted_within_30d).lower()]
        for f in features
    ))


def read_features_csv(source) -> list[AdmissionFeatures]:
    with text_stream(source, "r") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FEATURES_COLUMNS:
            raise ReadmitError(f"bad features.csv header: {header}")
        out = []
        for row in reader:
            if not row:
                continue
            rec = dict(zip(FEATURES_COLUMNS, row))
            out.append(AdmissionFeatures(
                user_id=rec["user_id"],
                admission_id=rec["admission_id"],
                comorbidities=frozenset(x for x in rec["comorbidities"].split(";") if x),
                gender=rec["gender"],
                age_group=rec["age_group"],
                ethnicity=rec["ethnicity"],
                scheme_type=rec["scheme_type"],
                los_days=int(rec["los_days"]),
                medication_categories=frozenset(
                    x for x in rec["medication_categories"].split(";") if x
                ),
                n_prev_admissions=int(rec["n_prev_admissions"]),
                n_prev_ed_admissions=int(rec["n_prev_ed_admissions"]),
                admitting_diagnosis=rec["admitting_diagnosis"],
                n_prev_hospital_visits=int(rec["n_prev_hospital_visits"]),
                procedure_categories=frozenset(
                    int(x) for x in rec["procedure_categories"].split(";") if x
                ),
                readmitted_within_30d=rec["readmitted_within_30d"] == "true",
            ))
        return out
