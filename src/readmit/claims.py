"""Typed records for the three input datasets and their CSV parsers.

All parsers are deterministic and order-preserving. In strict mode (the
default) the first bad row raises :class:`ParseError`; in lenient mode bad
rows are skipped and reported in ``ParseResult.errors``.

A row costs the csv module, the checks and one ``tuple.__new__`` for its
named-tuple record. Repeated dates, users and codes are checked once per
distinct text, in a ``Memo`` that lives for one ``parse_*`` call only.
"""

from __future__ import annotations

import re
from datetime import date
from functools import partial
from typing import NamedTuple

from .codes import Memo, normalize_icd9
from .textio import ParseResult, parse_table, write_csv

GENDERS = ("M", "F")
ETHNICITIES = ("White", "Asian", "Hispanic", "Black")
SCHEME_TYPES = (
    "LargeCentralMetro", "LargeFringeMetro", "MediumMetro",
    "SmallMetro", "Micropolitan", "Noncore",
)
_ETHNICITY = {e.lower(): e for e in ETHNICITIES}
_SCHEME = {s.lower(): s for s in SCHEME_TYPES}

NO_DIAGNOSIS_SENTINEL = "00000"
_ISO_DAY = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII).fullmatch


class MedicalClaim(NamedTuple):
    user_id: str
    claim_id: str
    service_start: date
    service_end: date
    primary_diagnosis: str              # normalized: no decimal point
    other_diagnoses: tuple[str, ...]    # empty when the source row was "00000"
    cpt_code: str


class PharmacyClaim(NamedTuple):
    user_id: str
    claim_id: str
    service_date: date
    ndc_code: str                       # exactly 10 digits, zero-padded


class DemographicRecord(NamedTuple):
    user_id: str
    gender: str
    age: int
    ethnicity: str
    scheme_type: str


MEDICAL_COLUMNS = list(MedicalClaim._fields)
PHARMACY_COLUMNS = list(PharmacyClaim._fields)
DEMOGRAPHICS_COLUMNS = list(DemographicRecord._fields)


def iso_date(text: str) -> date:
    """The day ``text`` writes as ``YYYY-MM-DD`` (Python 3.11 reads week dates too)."""
    if not _ISO_DAY(text):
        raise ValueError(f"{text!r} is not YYYY-MM-DD")
    return date.fromisoformat(text)


def _parse_date(text: str, what: str) -> date:
    try:
        return iso_date(text.strip())
    except ValueError:
        raise ValueError(f"malformed {what} date {text.strip()!r} (expected YYYY-MM-DD)")


def _required(value: str, what: str) -> str:
    value = value.strip()
    if not value:
        raise ValueError(f"missing {what}")
    return value


def group_by_user(records) -> dict[str, list]:
    """``records`` grouped by ``user_id``, each group in input order."""
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.user_id, []).append(record)
    return groups


def _cpt_code(text: str) -> str:
    cpt = text.strip().upper()
    if len(cpt) != 5 or not (cpt.isascii() and cpt.isalnum()):
        raise ValueError(f"bad CPT code {text.strip()!r} (expected 5 characters)")
    return cpt


def _medical_row():
    """A row parser memoising all but claim ids and primary codes (rarely repeated)."""
    starts = Memo(partial(_parse_date, what="service_start"))
    ends = Memo(partial(_parse_date, what="service_end"))
    users, cpts = Memo(partial(_required, what="user_id")), Memo(_cpt_code)
    others = Memo(lambda text: tuple(code for code in map(normalize_icd9, text.split(";"))
                                     if code and code != NO_DIAGNOSIS_SENTINEL))

    def parse(cells) -> MedicalClaim:
        user_id, claim_id, start, end, primary, other_diagnoses, cpt = cells
        start, end = starts[start], ends[end]
        if start > end:
            raise ValueError(f"service_start {start} after service_end {end}")
        other_diagnoses, cpt = others[other_diagnoses], cpts[cpt]
        return MedicalClaim(users[user_id], _required(claim_id, "claim_id"), start, end,
                            normalize_icd9(_required(primary, "primary_diagnosis")),
                            other_diagnoses, cpt)
    return parse


def _pharmacy_row(cells) -> PharmacyClaim:
    user_id, claim_id, service_date, ndc = cells
    ndc = ndc.strip()
    if not (ndc.isascii() and ndc.isdigit()):
        raise ValueError(f"NDC code {ndc!r} is not numeric")
    if len(ndc) > 10:
        raise ValueError(f"NDC code {ndc!r} longer than 10 digits")
    return PharmacyClaim(_required(user_id, "user_id"), _required(claim_id, "claim_id"),
                         _parse_date(service_date, "service"), ndc.zfill(10))


def _demographic_row(seen: set[str], cells) -> DemographicRecord:
    """A user's record, unless ``seen`` already holds the user; adds it."""
    user_id, gender_text, age_text, ethnicity_text, scheme_text = cells
    gender = gender_text.strip().upper()
    if gender not in GENDERS:
        raise ValueError(f"gender {gender_text.strip()!r} not in {GENDERS}")
    try:
        age = int(age_text.strip())
    except ValueError:
        raise ValueError(f"age {age_text.strip()!r} is not an integer")
    if age < 0:
        raise ValueError(f"negative age {age}")
    ethnicity = _ETHNICITY.get(ethnicity_text.strip().lower())
    if ethnicity is None:
        raise ValueError(f"ethnicity {ethnicity_text.strip()!r} not in {ETHNICITIES}")
    scheme = _SCHEME.get(scheme_text.strip().replace(" ", "").lower())
    if scheme is None:
        raise ValueError(f"scheme_type {scheme_text.strip()!r} not in {SCHEME_TYPES}")
    user_id = _required(user_id, "user_id")
    if user_id in seen:
        raise ValueError(f"duplicate demographics row for user {user_id!r}")
    seen.add(user_id)
    return DemographicRecord(user_id, gender, age, ethnicity, scheme)


def parse_medical_claims(source, strict: bool = True) -> ParseResult:
    return parse_table(source, MEDICAL_COLUMNS, _medical_row(), strict)


def parse_pharmacy_claims(source, strict: bool = True) -> ParseResult:
    return parse_table(source, PHARMACY_COLUMNS, _pharmacy_row, strict)


def parse_demographics(source, strict: bool = True) -> ParseResult:
    return parse_table(source, DEMOGRAPHICS_COLUMNS, partial(_demographic_row, set()), strict)


def _other_diagnoses_field(record: MedicalClaim) -> str:
    if NO_DIAGNOSIS_SENTINEL in record.other_diagnoses:
        raise ValueError(
            f"claim {record.claim_id}: other diagnosis {NO_DIAGNOSIS_SENTINEL} is the "
            "no-diagnosis marker and would be read back as no diagnosis"
        )
    return ";".join(record.other_diagnoses) or NO_DIAGNOSIS_SENTINEL


def write_medical_claims(records, dest):
    """Raises ValueError for a record whose other diagnoses hold the
    no-diagnosis marker, which the parser drops."""
    write_csv(dest, MEDICAL_COLUMNS, (
        [r.user_id, r.claim_id, r.service_start.isoformat(), r.service_end.isoformat(),
         r.primary_diagnosis, _other_diagnoses_field(r), r.cpt_code]
        for r in records
    ))


def write_pharmacy_claims(records, dest):
    """A record's fields are its row, in header order; a date is written ISO."""
    write_csv(dest, PHARMACY_COLUMNS, records)


def write_demographics(records, dest):
    write_csv(dest, DEMOGRAPHICS_COLUMNS, records)
