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

``FAMILIES`` is the one statement of the feature schema. The
``AdmissionFeatures`` record is built from it, and the features.csv reader
and writer and the design-matrix columns and encoder in ``dataset`` all walk
it.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, NamedTuple

from .claims import ETHNICITIES, GENDERS, SCHEME_TYPES, group_by_user
from .claims import DemographicRecord, MedicalClaim, PharmacyClaim
from .codes import ADMITTING_DIAGNOSIS_LEVELS, COMORBIDITY_NAMES, OTHER_DIAGNOSIS, icd9_chapter
from .codes import CodeMappingConfig, Memo
from .episodes import LabeledAdmission
from .textio import parse_table, write_csv

AGE_GROUPS: tuple[tuple[str, int, int | None], ...] = (
    ("Touch", 0, 20),
    ("Millennials", 20, 37),
    ("GenX", 37, 49),
    ("Boomers", 49, 68),
    ("Swing", 68, None),
)
AGE_GROUP_NAMES = tuple(name for name, _, _ in AGE_GROUPS)

MEDICATION_CATEGORIES = tuple(f"{i:02d}" for i in range(100))

# A count family is one numeric column named after its field. A one-of
# family holds one of its levels and a set family any subset of them; each
# level is an indicator column named by ``column_name``.
COUNT, ONE_OF, SET = "count", "one-of", "set"


def column_name(prefix: str, level) -> str:
    """Runs of characters other than ASCII letters and digits become ``_``."""
    return prefix + re.sub(r"[^0-9A-Za-z]+", "_", str(level)).strip("_")


def _decimal(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{text!r} is not a decimal number")
    return int(text)


class Family(NamedTuple):
    field: str                      # AdmissionFeatures field and features.csv column
    kind: str
    prefix: str = ""                # design-matrix prefix of a one-of or set family
    levels: tuple | Callable[[CodeMappingConfig], tuple] = ()   # or from the code maps
    read: Callable[[str], object] = str   # a count, or one level, from its text

    def domain(self, config: CodeMappingConfig) -> tuple:
        return self.levels(config) if callable(self.levels) else self.levels

    def columns(self, config: CodeMappingConfig) -> list[str]:
        if self.kind == COUNT:
            return [self.field]
        return [column_name(self.prefix, level) for level in self.domain(config)]

    def parse(self, cell: str):
        try:
            if self.kind == SET:
                return frozenset(map(self.read, filter(None, cell.split(";"))))
            return self.read(cell)
        except ValueError as exc:
            raise ValueError(f"{self.field}: {exc}") from None


# In features.csv column order, which is also the design-matrix column order.
FAMILIES: tuple[Family, ...] = (
    Family("comorbidities", SET, "comorb_", COMORBIDITY_NAMES),
    Family("gender", ONE_OF, "gender_", GENDERS),
    Family("age_group", ONE_OF, "age_", AGE_GROUP_NAMES),
    Family("ethnicity", ONE_OF, "ethnicity_", ETHNICITIES),
    Family("scheme_type", ONE_OF, "scheme_", SCHEME_TYPES),
    Family("los_days", COUNT, read=_decimal),
    Family("medication_categories", SET, "med_", MEDICATION_CATEGORIES),
    Family("n_prev_admissions", COUNT, read=_decimal),
    Family("n_prev_ed_admissions", COUNT, read=_decimal),
    Family("admitting_diagnosis", ONE_OF, "admitdx_", ADMITTING_DIAGNOSIS_LEVELS),
    Family("n_prev_hospital_visits", COUNT, read=_decimal),
    Family("procedure_categories", SET, "proc_", CodeMappingConfig.ccs_ids, _decimal),
)

# The two ids, one field per family typed by its kind, then the label.
AdmissionFeatures = NamedTuple("AdmissionFeatures", [
    ("user_id", str), ("admission_id", str),
    *((f.field, {COUNT: int, ONE_OF: str, SET: frozenset}[f.kind]) for f in FAMILIES),
    ("readmitted_within_30d", bool),
])
FEATURES_COLUMNS = list(AdmissionFeatures._fields)


def extract_comorbidities(admission: LabeledAdmission, config: CodeMappingConfig) -> frozenset[str]:
    """Union of longest-prefix matches over the member claims' other
    diagnosis codes. Primary diagnosis codes are not consulted."""
    return frozenset(name for claim in admission.member_claims
                     for code in claim.other_diagnoses for name in config.comorbidities_for(code))


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
    return frozenset(p.ndc_code[:2] for p in pharmacy_claims
                     if admission.start <= p.service_date <= admission.end)


def count_previous_admissions(
    admission: LabeledAdmission, user_admissions: list[LabeledAdmission]
) -> int:
    """Retained admissions starting strictly before this one; removed
    readmissions never count."""
    return sum(1 for a in user_admissions if a.start < admission.start)


def count_previous_ed_admissions(
    admission: LabeledAdmission, user_admissions: list[LabeledAdmission]
) -> int:
    return sum(1 for a in user_admissions if a.is_ed_admission and a.start < admission.start)


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
    return sum(1 for c in user_medical_claims
               if config.is_hospital_visit(c.cpt_code) and c.service_end < admission.start)


def extract_procedures(admission: LabeledAdmission, config: CodeMappingConfig) -> frozenset[int]:
    """CCS categories of member-claim CPTs; unmapped codes (including E&M
    codes) contribute nothing."""
    return frozenset(config.ccs_category(c.cpt_code) for c in admission.member_claims) - {None}


def extract_features(
    labeled: list[LabeledAdmission],
    medical_claims: list[MedicalClaim],
    pharmacy_claims: list[PharmacyClaim],
    demographics: list[DemographicRecord],
    config: CodeMappingConfig,
) -> list[AdmissionFeatures]:
    """Features for every retained admission, in input order; code lookups are memoised."""
    config = config.memoized()
    demo_by_user = {d.user_id: d for d in demographics}
    visits_by_user = group_by_user(
        c for c in medical_claims if config.is_hospital_visit(c.cpt_code))
    pharmacy_by_user, admissions_by_user = group_by_user(pharmacy_claims), group_by_user(labeled)

    out = []
    for a in labeled:
        demo = demo_by_user[a.user_id]
        out.append(AdmissionFeatures(
            user_id=a.user_id,
            admission_id=a.admission_id,
            comorbidities=extract_comorbidities(a, config),
            gender=demo.gender,
            age_group=age_group(demo.age),
            ethnicity=demo.ethnicity,
            scheme_type=demo.scheme_type,
            los_days=length_of_stay(a),
            medication_categories=extract_medications(a, pharmacy_by_user.get(a.user_id, [])),
            n_prev_admissions=count_previous_admissions(a, admissions_by_user[a.user_id]),
            n_prev_ed_admissions=count_previous_ed_admissions(a, admissions_by_user[a.user_id]),
            admitting_diagnosis=admitting_diagnosis(a),
            n_prev_hospital_visits=count_previous_hospital_visits(
                a, visits_by_user.get(a.user_id, []), config),
            procedure_categories=extract_procedures(a, config),
            readmitted_within_30d=a.readmitted_within_30d,
        ))
    return out


def _label(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"readmitted_within_30d: {cell!r} is neither true nor false")
    return cell == "true"


def write_features_csv(features: list[AdmissionFeatures], dest):
    """One row per admission; the csv module writes the counts in decimal."""
    values = attrgetter(*FEATURES_COLUMNS[:-1])
    sets = [FEATURES_COLUMNS.index(family.field) for family in FAMILIES if family.kind == SET]

    def row(f: AdmissionFeatures) -> list:
        cells = [*values(f), "true" if f.readmitted_within_30d else "false"]
        for j in sets:
            # ascending order of the levels' values, so procedure ids sort as numbers
            cells[j] = ";".join(map(str, sorted(cells[j])))
        return cells

    write_csv(dest, FEATURES_COLUMNS, map(row, features))


def _features_row():
    families = [Memo(family.parse) for family in FAMILIES]   # cells repeat down a column

    def parse(cells) -> AdmissionFeatures:
        user_id, admission_id, *values, label = cells
        return AdmissionFeatures(user_id, admission_id,
                                 *[memo[cell] for memo, cell in zip(families, values)],
                                 _label(label))
    return parse


def read_features_csv(source) -> list[AdmissionFeatures]:
    """A bad header, a row of the wrong width or a cell its column cannot
    read raises ParseError with the line; the encoder checks the levels."""
    return parse_table(source, FEATURES_COLUMNS, _features_row(), strict=True).records
