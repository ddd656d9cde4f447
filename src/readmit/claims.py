"""Typed records for the three input datasets and their CSV parsers.

All parsers are deterministic and order-preserving. In strict mode (the
default) the first bad row raises :class:`ParseError`; in lenient mode bad
rows are skipped and reported in ``ParseResult.errors``.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .codes import normalize_icd9
from .errors import ParseError
from .textio import text_stream, write_csv

GENDERS = ("M", "F")
ETHNICITIES = ("White", "Asian", "Hispanic", "Black")
SCHEME_TYPES = (
    "LargeCentralMetro", "LargeFringeMetro", "MediumMetro",
    "SmallMetro", "Micropolitan", "Noncore",
)

MEDICAL_COLUMNS = [
    "user_id", "claim_id", "service_start", "service_end",
    "primary_diagnosis", "other_diagnoses", "cpt_code",
]
PHARMACY_COLUMNS = ["user_id", "claim_id", "service_date", "ndc_code"]
DEMOGRAPHICS_COLUMNS = ["user_id", "gender", "age", "ethnicity", "scheme_type"]

NO_DIAGNOSIS_SENTINEL = "00000"


@dataclass(frozen=True)
class MedicalClaim:
    user_id: str
    claim_id: str
    service_start: date
    service_end: date
    primary_diagnosis: str              # normalized: no decimal point
    other_diagnoses: tuple[str, ...]    # empty when the source row was "00000"
    cpt_code: str


@dataclass(frozen=True)
class PharmacyClaim:
    user_id: str
    claim_id: str
    service_date: date
    ndc_code: str                       # exactly 10 digits, zero-padded


@dataclass(frozen=True)
class DemographicRecord:
    user_id: str
    gender: str
    age: int
    ethnicity: str
    scheme_type: str


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass
class ParseResult:
    """Parsed records plus, in lenient mode, the rows that were skipped."""

    records: list
    errors: list[RowError]


@contextmanager
def _text_input(source):
    """``source`` as a text stream: a path through ``text_stream``, a text
    stream as is, bytes or a byte stream decoded as UTF-8. A byte stream's
    wrapper is detached on exit, so the caller's stream stays open."""
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    elif not isinstance(source, (str, Path)):
        if not hasattr(source, "read"):
            raise TypeError(f"unsupported source {type(source)!r}")
        if isinstance(source.read(0), bytes):
            wrapper = io.TextIOWrapper(source, encoding="utf-8", newline="")
            try:
                yield wrapper
            finally:
                wrapper.detach()
            return
    with text_stream(source) as fh:
        yield fh


def _parse_date(text: str, what: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"malformed {what} date {text.strip()!r} (expected YYYY-MM-DD)")


def _required(value: str, what: str) -> str:
    value = value.strip()
    if not value:
        raise ValueError(f"missing {what}")
    return value


def parse_table(source, columns, row_parser, strict, hook=None) -> ParseResult:
    with _text_input(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file, expected header row", line=0)
        index = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        extra = [c for c in index if c not in columns]
        if missing or extra:
            raise ParseError(
                f"bad header: missing columns {missing}, unexpected {extra}", line=1
            )
        records, errors = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
                record = row_parser({c: row[index[c]] for c in columns})
                if hook is not None:
                    hook(record)
            except ValueError as exc:
                if strict:
                    raise ParseError(str(exc), line=lineno) from exc
                errors.append(RowError(lineno, str(exc)))
                continue
            records.append(record)
        return ParseResult(records, errors)


def _medical_row(fields: dict[str, str]) -> MedicalClaim:
    start = _parse_date(fields["service_start"], "service_start")
    end = _parse_date(fields["service_end"], "service_end")
    if start > end:
        raise ValueError(f"service_start {start} after service_end {end}")
    others = []
    for part in fields["other_diagnoses"].split(";"):
        code = normalize_icd9(part)
        if code and code != NO_DIAGNOSIS_SENTINEL:
            others.append(code)
    cpt = fields["cpt_code"].strip().upper()
    if len(cpt) != 5 or not cpt.isalnum():
        raise ValueError(f"bad CPT code {fields['cpt_code'].strip()!r} (expected 5 characters)")
    return MedicalClaim(
        user_id=_required(fields["user_id"], "user_id"),
        claim_id=_required(fields["claim_id"], "claim_id"),
        service_start=start,
        service_end=end,
        primary_diagnosis=normalize_icd9(_required(fields["primary_diagnosis"], "primary_diagnosis")),
        other_diagnoses=tuple(others),
        cpt_code=cpt,
    )


def _pharmacy_row(fields: dict[str, str]) -> PharmacyClaim:
    ndc = fields["ndc_code"].strip()
    if not ndc.isdigit():
        raise ValueError(f"NDC code {ndc!r} is not numeric")
    if len(ndc) > 10:
        raise ValueError(f"NDC code {ndc!r} longer than 10 digits")
    return PharmacyClaim(
        user_id=_required(fields["user_id"], "user_id"),
        claim_id=_required(fields["claim_id"], "claim_id"),
        service_date=_parse_date(fields["service_date"], "service"),
        ndc_code=ndc.zfill(10),
    )


def _demographic_row(fields: dict[str, str]) -> DemographicRecord:
    gender = fields["gender"].strip().upper()
    if gender not in GENDERS:
        raise ValueError(f"gender {fields['gender'].strip()!r} not in {GENDERS}")
    try:
        age = int(fields["age"].strip())
    except ValueError:
        raise ValueError(f"age {fields['age'].strip()!r} is not an integer")
    if age < 0:
        raise ValueError(f"negative age {age}")
    eth_raw = fields["ethnicity"].strip()
    ethnicity = next((e for e in ETHNICITIES if e.lower() == eth_raw.lower()), None)
    if ethnicity is None:
        raise ValueError(f"ethnicity {eth_raw!r} not in {ETHNICITIES}")
    scheme_raw = fields["scheme_type"].strip().replace(" ", "").lower()
    scheme = next((s for s in SCHEME_TYPES if s.lower() == scheme_raw), None)
    if scheme is None:
        raise ValueError(f"scheme_type {fields['scheme_type'].strip()!r} not in {SCHEME_TYPES}")
    return DemographicRecord(
        user_id=_required(fields["user_id"], "user_id"),
        gender=gender,
        age=age,
        ethnicity=ethnicity,
        scheme_type=scheme,
    )


def parse_medical_claims(source, strict: bool = True) -> ParseResult:
    return parse_table(source, MEDICAL_COLUMNS, _medical_row, strict)


def parse_pharmacy_claims(source, strict: bool = True) -> ParseResult:
    return parse_table(source, PHARMACY_COLUMNS, _pharmacy_row, strict)


def parse_demographics(source, strict: bool = True) -> ParseResult:
    seen: set[str] = set()

    def check_unique(record: DemographicRecord):
        if record.user_id in seen:
            raise ValueError(f"duplicate demographics row for user {record.user_id!r}")
        seen.add(record.user_id)

    return parse_table(source, DEMOGRAPHICS_COLUMNS, _demographic_row, strict, hook=check_unique)


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
    write_csv(dest, PHARMACY_COLUMNS, (
        [r.user_id, r.claim_id, r.service_date.isoformat(), r.ndc_code] for r in records
    ))


def write_demographics(records, dest):
    write_csv(dest, DEMOGRAPHICS_COLUMNS, (
        [r.user_id, r.gender, str(r.age), r.ethnicity, r.scheme_type] for r in records
    ))
