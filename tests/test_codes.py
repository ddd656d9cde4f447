import pytest

from readmit.codes import (
    COMORBIDITY_NAMES, ED_CPT_RANGES, HOSPITAL_VISIT_CPT_RANGES,
    INPATIENT_CPT_RANGES, icd9_chapter, load_code_mappings,
)
from readmit.errors import MappingError


def ranges_as_set(ranges):
    return {c for low, high in ranges for c in range(low, high + 1)}


def test_default_inpatient_set_matches_declared_ranges(mappings):
    expected = set(range(99231, 99237)) | set(range(99224, 99227)) \
        | set(range(99281, 99286)) | set(range(99291, 99293))
    assert ranges_as_set(INPATIENT_CPT_RANGES) == expected
    assert mappings.is_inpatient("99281")
    assert mappings.is_inpatient("99236")
    assert not mappings.is_inpatient("99211")


def test_default_hospital_visit_set(mappings):
    expected = set(range(99218, 99224)) | set(range(99251, 99255))
    assert ranges_as_set(HOSPITAL_VISIT_CPT_RANGES) == expected
    assert mappings.is_hospital_visit("99220")


def test_default_ed_and_discharge_sets(mappings):
    assert ranges_as_set(ED_CPT_RANGES) == set(range(99281, 99286))
    # discharge codes are not used: no setting treats them as a service
    for cpt in ("99217", "99238", "99239"):
        assert not (mappings.is_inpatient(cpt) or mappings.is_ed(cpt)
                    or mappings.is_hospital_visit(cpt))


def test_comorbidity_names_count():
    assert len(COMORBIDITY_NAMES) == 30
    assert COMORBIDITY_NAMES[0] == "CHF" and COMORBIDITY_NAMES[-1] == "Depression"


def test_standard_map_worked_example_codes(mappings):
    assert mappings.comorbidities_for("40201") == ("CHF",)
    assert mappings.comorbidities_for("402.01") == ("CHF",)
    assert mappings.comorbidities_for("09320") == ("Valvular",)
    assert mappings.comorbidities_for("34200") == ("Paralysis",)
    assert mappings.comorbidities_for("49001") == ("Pulmonary",)


def test_longest_prefix_wins(mappings):
    # 402 alone is complicated hypertension; the 5-digit heart-failure
    # codes must shadow it.
    assert mappings.comorbidities_for("40200") == ("HTNcx",)
    assert mappings.comorbidities_for("40201") == ("CHF",)
    # 3341 is paralysis even though 334 is other-neuro.
    assert mappings.comorbidities_for("33410") == ("Paralysis",)
    assert mappings.comorbidities_for("33400") == ("NeuroOther",)


def test_equal_length_ties_return_both(mappings):
    assert set(mappings.comorbidities_for("40403")) == {"CHF", "Renal"}
    assert set(mappings.comorbidities_for("4255")) == {"CHF", "Alcohol"}


def test_unmapped_code_has_no_comorbidity(mappings):
    assert mappings.comorbidities_for("78650") == ()
    assert mappings.comorbidities_for("ZZZ") == ()


def test_custom_comorbidity_file(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("icd9_prefix,comorbidity\n4020,CHF\n")
    config = load_code_mappings(comorbidity_path=path)
    assert config.comorbidities_for("40201") == ("CHF",)
    assert config.comorbidities_for("40210") == ()


def test_unknown_comorbidity_name_rejected(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("icd9_prefix,comorbidity\n428,HeartFailure\n")
    with pytest.raises(MappingError):
        load_code_mappings(comorbidity_path=path)


def test_map_row_of_wrong_width_names_file_and_line(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("icd9_prefix,comorbidity\n4020,CHF\n428,CHF,extra\n")
    with pytest.raises(MappingError) as err:
        load_code_mappings(comorbidity_path=path)
    assert str(path) in str(err.value) and "line 3" in str(err.value)


def test_map_columns_found_by_header_name(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("comorbidity,icd9_prefix\nCHF,4020\n")
    assert load_code_mappings(comorbidity_path=path).comorbidities_for("40201") == ("CHF",)


def test_empty_map_file_rejected(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("icd9_prefix,comorbidity\n")
    with pytest.raises(MappingError):
        load_code_mappings(comorbidity_path=path)


def test_overlapping_ccs_ranges_rejected(tmp_path):
    path = tmp_path / "ccs.csv"
    path.write_text(
        "cpt_low,cpt_high,ccs_id,ccs_label\n"
        "61000,61055,1,Incision and excision of CNS\n"
        "61050,61100,2,Other\n"
    )
    with pytest.raises(MappingError):
        load_code_mappings(ccs_path=path)


def test_ccs_lookup(mappings):
    assert mappings.ccs_labels[mappings.ccs_category("61000")] == "Incision and excision of CNS"
    assert mappings.ccs_labels[mappings.ccs_category("43888")] == "Gastric bypass and volume reduction"
    assert mappings.ccs_category("99231") is None
    assert mappings.ccs_category("0001U") is None


@pytest.mark.parametrize("code,chapter", [
    ("37234", "Nervous system and sense organs"),
    ("04112", "Infectious and parasitic disease"),
    ("18619", "Neoplasms"),
    ("99529", "Injury and poisoning"),
    ("68250", "Skin and subcutaneous tissue"),
    ("78903", "Symptoms, signs and ill-defined conditions"),
    ("V4501", "Factors influencing health status and contact with health services"),
    ("E8120", "Others"),
    ("ZZZ", "Others"),
    ("99", "Others"),
])
def test_icd9_chapters(code, chapter):
    assert icd9_chapter(code) == chapter


def _oracle_codes():
    """Every 5-digit code, then alphanumeric, padded, short, long and
    non-ASCII-digit codes (``int`` reads Arabic-Indic and fullwidth digits)."""
    yield from (f"{n:05d}" for n in range(100000))
    yield from ("0001U", "0001f", "9923A", "V4581", "E8889", "402.01", " 99231", "99231 ",
                "099231", "9923", "", "٩٩٢٣١", "٠٠٠٠١", "９９２８１", "２７１３０", "4280", "42")


@pytest.mark.parametrize("ccs_path", [None, "custom"])
def test_memoized_lookups_match_the_maps_for_every_code(tmp_path, ccs_path):
    if ccs_path == "custom":
        ccs_path = tmp_path / "ccs.csv"
        ccs_path.write_text("cpt_low,cpt_high,ccs_id,ccs_label\n"
                            "00000,00000,7,Zero\n99230,99232,8,Inside inpatient\n"
                            "99281,99281,9,One ED code\n27130,27130,10,Hip\n")
    config = load_code_mappings(ccs_path=ccs_path)
    memoized = config.memoized()

    # Oracles independent of the code under test: range scans, and the
    # longest map prefix of the normalized code (checked on every 37th code).
    def in_ranges(code, ranges):
        return code.isdigit() and any(low <= int(code) <= high for low, high in ranges)

    def ccs_scan(code):
        hits = [ccs for low, high, ccs in config.ccs_ranges
                if code.isdigit() and low <= int(code) <= high]
        return hits[0] if hits else None

    def longest_prefix(code):
        code = code.strip().upper().replace(".", "")
        prefixes = [p for p in config.comorbidity_map if len(p) <= 5 and code.startswith(p)]
        return config.comorbidity_map[max(prefixes, key=len)] if prefixes else ()

    for _ in range(2):   # the first pass fills the memos, the second reads them
        for i, code in enumerate(_oracle_codes()):
            assert memoized.is_inpatient(code) == in_ranges(code, INPATIENT_CPT_RANGES), code
            assert memoized.is_ed(code) == in_ranges(code, ED_CPT_RANGES), code
            assert memoized.is_hospital_visit(code) == in_ranges(
                code, HOSPITAL_VISIT_CPT_RANGES), code
            assert memoized.ccs_category(code) == config.ccs_category(code) == ccs_scan(code)
            assert memoized.comorbidities_for(code) == config.comorbidities_for(code), code
            if i % 37 == 0 or not code.isascii() or not code.isdigit():
                assert memoized.comorbidities_for(code) == longest_prefix(code), code
    assert memoized.is_inpatient("\u0669\u0669\u0662\u0663\u0661")   # Arabic-Indic 99231
    assert memoized.comorbidities_for("402.01") == ("CHF",)
    if ccs_path is not None:
        assert [memoized.ccs_category(c) for c in ("00000", "99231", "٩٩٢٨١", "27131")] \
            == [7, 8, 9, None]
