"""Code systems and mapping tables: CPT service sets, the comorbidity
ICD-9 prefix map, the CCS procedure map, and ICD-9 body-system chapters.

The comorbidity and CCS maps load from editable CSV files; the package
ships defaults under ``readmit/data``. The shipped CCS file is a small
excerpt of the full AHRQ table (see README for how to replace it).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .errors import MappingError, ParseError
from .textio import parse_table

# Category names, in the order used for feature columns.
COMORBIDITY_NAMES: tuple[str, ...] = (
    "CHF", "Valvular", "PHTN", "PVD", "HTN", "HTNcx", "Paralysis",
    "NeuroOther", "Pulmonary", "DM", "DMcx", "Hypothyroid", "Renal",
    "Liver", "PUD", "HIV", "Lymphoma", "Mets", "Tumor", "Rheumatic",
    "Coagulopathy", "Obesity", "WeightLoss", "FluidsLytes", "BloodLoss",
    "Anemia", "Alcohol", "Drugs", "Psychoses", "Depression",
)

# Evaluation & management CPT ranges that identify service settings.
INPATIENT_CPT_RANGES: tuple[tuple[int, int], ...] = (
    (99224, 99226), (99231, 99236), (99281, 99285), (99291, 99292),
)
ED_CPT_RANGES: tuple[tuple[int, int], ...] = ((99281, 99285),)
HOSPITAL_VISIT_CPT_RANGES: tuple[tuple[int, int], ...] = (
    (99218, 99223), (99251, 99254),
)
# Discharge E&M codes (99217, 99238-99239) are not used: they are billed
# too rarely to anchor admission detection.

# ICD-9 numeric chapters (inclusive 3-digit category ranges).
ICD9_CHAPTERS: tuple[tuple[int, int, str], ...] = (
    (1, 139, "Infectious and parasitic disease"),
    (140, 239, "Neoplasms"),
    (240, 279, "Endocrine, nutritional, metabolic, immunity disorders"),
    (280, 289, "Blood and blood-forming organs"),
    (290, 319, "Mental disorders"),
    (320, 389, "Nervous system and sense organs"),
    (390, 459, "Circulatory system"),
    (460, 519, "Respiratory system"),
    (520, 579, "Digestive system"),
    (580, 629, "Genitourinary system"),
    (630, 679, "Complications of pregnancy, childbirth and the puerperium"),
    (680, 709, "Skin and subcutaneous tissue"),
    (710, 739, "Musculoskeletal system"),
    (740, 759, "Congenital anomalies"),
    (760, 779, "Certain conditions originating in the perinatal period"),
    (780, 799, "Symptoms, signs and ill-defined conditions"),
    (800, 999, "Injury and poisoning"),
)
VCODE_CHAPTER = "Factors influencing health status and contact with health services"
OTHER_DIAGNOSIS = "Others"

# 18 named groups plus the fallback, in declared column order.
ADMITTING_DIAGNOSIS_LEVELS: tuple[str, ...] = tuple(
    name for _, _, name in ICD9_CHAPTERS
) + (VCODE_CHAPTER, OTHER_DIAGNOSIS)


class Memo(dict):
    """``fn(key)`` per distinct key, kept as long as the memo is; raising keys are not."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def normalize_icd9(code: str) -> str:
    """Strip the decimal point and whitespace: '402.01' -> '40201'."""
    return code.strip().upper().replace(".", "")


def icd9_chapter(code: str) -> str:
    """Body-system chapter for a normalized ICD-9 code.

    V-codes map to the health-status chapter; E-codes and anything that
    does not parse as a 3-digit category fall back to "Others".
    """
    code = normalize_icd9(code)
    if code.startswith("V"):
        return VCODE_CHAPTER
    head = code[:3]
    if len(head) == 3 and head.isdigit():
        n = int(head)
        for low, high, name in ICD9_CHAPTERS:
            if low <= n <= high:
                return name
    return OTHER_DIAGNOSIS


def _validate_ranges(ranges, what: str):
    ordered = tuple(sorted(ranges))
    for low, high in ordered:
        if low > high:
            raise MappingError(f"{what}: empty range {low}-{high}")
    for (l1, h1), (l2, _) in zip(ordered, ordered[1:]):
        if l2 <= h1:
            raise MappingError(f"{what}: overlapping ranges {l1}-{h1} and {l2}-...")
    return ordered


def cpt_in_ranges(cpt: str, ranges: tuple[tuple[int, int], ...]) -> bool:
    if not cpt.isdigit():
        return False
    n = int(cpt)
    return any(low <= n <= high for low, high in ranges)


@dataclass(frozen=True)
class CodeMappingConfig:
    """Validated code maps shared read-only across the pipeline."""

    comorbidity_map: dict[str, tuple[str, ...]]   # icd9 prefix -> category names
    ccs_ranges: tuple[tuple[int, int, int], ...]  # (cpt_low, cpt_high, ccs_id), sorted
    ccs_labels: dict[int, str]

    def comorbidities_for(self, icd9_code: str) -> tuple[str, ...]:
        """Longest-prefix lookup; equal-length ties all apply."""
        code = normalize_icd9(icd9_code)
        for length in range(min(len(code), 5), 0, -1):
            hit = self.comorbidity_map.get(code[:length])
            if hit is not None:
                return hit
        return ()

    def ccs_category(self, cpt: str) -> int | None:
        if not cpt.isdigit():
            return None
        n = int(cpt)
        i = bisect_right(self.ccs_ranges, n, key=itemgetter(0)) - 1
        if i >= 0:
            low, high, ccs_id = self.ccs_ranges[i]
            if low <= n <= high:
                return ccs_id
        return None

    def ccs_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.ccs_labels))

    def is_inpatient(self, cpt: str) -> bool:
        return cpt_in_ranges(cpt, INPATIENT_CPT_RANGES)

    def is_ed(self, cpt: str) -> bool:
        return cpt_in_ranges(cpt, ED_CPT_RANGES)

    def is_hospital_visit(self, cpt: str) -> bool:
        return cpt_in_ranges(cpt, HOSPITAL_VISIT_CPT_RANGES)

    def memoized(self) -> "CodeMappingConfig":
        """A copy that answers each per-code lookup once per distinct code."""
        copy = replace(self)
        for name in ("comorbidities_for", "ccs_category",
                     "is_inpatient", "is_ed", "is_hospital_visit"):
            object.__setattr__(copy, name, Memo(getattr(self, name)).__getitem__)
        return copy


def _default_path(name: str) -> Path:
    return Path(str(resources.files("readmit").joinpath("data", name)))


def _read_map(path, columns: list[str]):
    """The cells of each row of the map file at ``path`` in ``columns``
    order, the columns found by header name; a bad header or a row of the
    wrong width raises MappingError naming the file and the line."""
    try:
        rows = parse_table(path, columns, tuple, strict=True).records
    except ParseError as exc:
        raise MappingError(f"{path}: {exc}") from None
    if not rows:
        raise MappingError(f"{path}: map file has no data rows")
    return rows


def load_comorbidity_map(path=None) -> dict[str, tuple[str, ...]]:
    path = path or _default_path("comorbidity_map.csv")
    mapping: dict[str, tuple[str, ...]] = {}
    for row in _read_map(path, ["icd9_prefix", "comorbidity"]):
        prefix, name = normalize_icd9(row[0]), row[1].strip()
        if name not in COMORBIDITY_NAMES:
            raise MappingError(f"{path}: unknown comorbidity name {name!r}")
        if not prefix:
            raise MappingError(f"{path}: empty ICD-9 prefix")
        current = mapping.get(prefix, ())
        if name not in current:
            mapping[prefix] = current + (name,)
    return mapping


def load_ccs_map(path=None):
    path = path or _default_path("ccs_map.csv")
    ranges: list[tuple[int, int, int]] = []
    labels: dict[int, str] = {}
    for row in _read_map(path, ["cpt_low", "cpt_high", "ccs_id", "ccs_label"]):
        try:
            low, high, ccs_id = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise MappingError(f"{path}: non-numeric bounds in {row!r}") from exc
        label = row[3].strip()
        if not label:
            raise MappingError(f"{path}: missing label for CCS {ccs_id}")
        if labels.setdefault(ccs_id, label) != label:
            raise MappingError(f"{path}: CCS {ccs_id} has conflicting labels")
        ranges.append((low, high, ccs_id))
    _validate_ranges([(lo, hi) for lo, hi, _ in ranges], str(path))
    ranges.sort()
    return tuple(ranges), labels


def load_code_mappings(comorbidity_path=None, ccs_path=None) -> CodeMappingConfig:
    """Build a validated :class:`CodeMappingConfig`; paths default to the
    shipped data files."""
    return CodeMappingConfig(load_comorbidity_map(comorbidity_path), *load_ccs_map(ccs_path))
