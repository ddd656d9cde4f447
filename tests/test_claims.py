import io
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from readmit.claims import (
    NO_DIAGNOSIS_SENTINEL, DemographicRecord, MedicalClaim, PharmacyClaim,
    parse_demographics, parse_medical_claims, parse_pharmacy_claims,
    write_demographics, write_medical_claims, write_pharmacy_claims,
)
from readmit.errors import ParseError
from readmit.textio import RowError

MED_HEADER = "user_id,claim_id,service_start,service_end,primary_diagnosis,other_diagnoses,cpt_code\n"


def test_medical_row_with_one_other_diagnosis():
    src = MED_HEADER + "User1,C2,2017-05-01,2017-05-03,70890,40201,99281\n"
    claim, = parse_medical_claims(io.StringIO(src)).records
    assert claim.claim_id == "C2"
    assert claim.primary_diagnosis == "70890"
    assert claim.other_diagnoses == ("40201",)
    assert claim.service_start == date(2017, 5, 1)


def test_medical_sentinel_other_diagnoses_is_empty():
    src = MED_HEADER + "User1,C4,2017-05-21,2017-06-09,186.19,00000,99231\n"
    claim, = parse_medical_claims(io.StringIO(src)).records
    assert claim.other_diagnoses == ()
    assert claim.primary_diagnosis == "18619"


def test_medical_decimal_codes_normalized():
    src = MED_HEADER + "User1,C1,2017-04-01,2017-04-01,682.50,786.50;V42.2,99211\n"
    claim, = parse_medical_claims(io.StringIO(src)).records
    assert claim.primary_diagnosis == "68250"
    assert claim.other_diagnoses == ("78650", "V422")


def test_medical_empty_file_gives_empty_list():
    assert parse_medical_claims(io.StringIO(MED_HEADER)).records == []


@pytest.mark.parametrize("row,fragment", [
    ("User1,C1,2017-13-01,2017-04-01,682.50,00000,99211", "malformed"),
    ("User1,C1,2017-04-05,2017-04-01,682.50,00000,99211", "after"),
    ("User1,C1,2017-04-01,2017-04-01,682.50,00000,992", "CPT"),
    (",C1,2017-04-01,2017-04-01,682.50,00000,99211", "user_id"),
])
def test_medical_bad_rows_strict(row, fragment):
    with pytest.raises(ParseError) as err:
        parse_medical_claims(io.StringIO(MED_HEADER + row + "\n"))
    assert fragment in str(err.value)
    assert err.value.line == 2


def test_medical_lenient_skips_and_counts():
    src = MED_HEADER + (
        "User1,C1,2017-04-01,2017-04-01,682.50,00000,99211\n"
        "User1,C2,bad-date,2017-04-01,682.50,00000,99211\n"
        "User1,C3,2017-05-01,2017-05-02,70890,00000,99281\n"
    )
    result = parse_medical_claims(io.StringIO(src), strict=False)
    assert [c.claim_id for c in result.records] == ["C1", "C3"]
    assert len(result.errors) == 1 and result.errors[0].line == 3


def test_missing_column_is_file_error():
    src = "user_id,claim_id,service_start,service_end,primary_diagnosis,cpt_code\n"
    with pytest.raises(ParseError) as err:
        parse_medical_claims(io.StringIO(src))
    assert "other_diagnoses" in str(err.value)


def test_pharmacy_row_and_padding():
    src = "user_id,claim_id,service_date,ndc_code\nUser1,P1,2017-05-05,0002759701\nUser1,P2,2017-05-06,2759701\n"
    records = parse_pharmacy_claims(io.StringIO(src)).records
    assert records[0].ndc_code == "0002759701"
    assert records[1].ndc_code == "0002759701"


def test_pharmacy_non_numeric_ndc_rejected():
    src = "user_id,claim_id,service_date,ndc_code\nUser1,P1,2017-05-05,00027X9701\n"
    with pytest.raises(ParseError):
        parse_pharmacy_claims(io.StringIO(src))


# Arabic-Indic digits: str.isdigit() accepts them, an NDC may not.
NON_ASCII_NDC = "\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669\u0660"
NON_ASCII_NDC_SRC = ("user_id,claim_id,service_date,ndc_code\n"
                     f"User1,P1,2017-05-05,{NON_ASCII_NDC}\nUser1,P2,2017-05-06,2759701\n")


def test_pharmacy_non_ascii_ndc_rejected_strict():
    with pytest.raises(ParseError) as err:
        parse_pharmacy_claims(io.StringIO(NON_ASCII_NDC_SRC))
    assert err.value.line == 2 and "NDC code" in str(err.value)


def test_pharmacy_non_ascii_ndc_skipped_and_counted_lenient():
    result = parse_pharmacy_claims(io.StringIO(NON_ASCII_NDC_SRC), strict=False)
    assert [r.claim_id for r in result.records] == ["P2"]
    assert result.errors == [RowError(2, f"NDC code {NON_ASCII_NDC!r} is not numeric")]


def test_demographics_worked_rows():
    src = ("user_id,gender,age,ethnicity,scheme_type\n"
           "User1,M,25,Asian,Large Central Metro\n")
    record, = parse_demographics(io.StringIO(src)).records
    assert record == DemographicRecord("User1", "M", 25, "Asian", "LargeCentralMetro")


@pytest.mark.parametrize("row,fragment", [
    ("User1,M,-1,Asian,Noncore", "age"),
    ("User1,M,25,Martian,Noncore", "ethnicity"),
    ("User1,X,25,Asian,Noncore", "gender"),
    ("User1,M,25,Asian,Downtown", "scheme_type"),
])
def test_demographics_bad_rows(row, fragment):
    src = "user_id,gender,age,ethnicity,scheme_type\n" + row + "\n"
    with pytest.raises(ParseError) as err:
        parse_demographics(io.StringIO(src))
    assert fragment in str(err.value)


def test_demographics_duplicate_user_names_user():
    src = ("user_id,gender,age,ethnicity,scheme_type\n"
           "User1,M,25,Asian,Noncore\nUser1,F,30,White,Noncore\n")
    with pytest.raises(ParseError) as err:
        parse_demographics(io.StringIO(src))
    assert "User1" in str(err.value)


def test_demographics_duplicate_user_lenient_keeps_first_row():
    src = ("user_id,gender,age,ethnicity,scheme_type\n"
           "User1,M,25,Asian,Noncore\nUser1,F,30,White,Noncore\nUser2,F,40,White,Noncore\n")
    result = parse_demographics(io.StringIO(src), strict=False)
    assert [(r.user_id, r.age) for r in result.records] == [("User1", 25), ("User2", 40)]
    assert result.errors == [RowError(3, "duplicate demographics row for user 'User1'")]


# A record whose quoted user_id spans lines 2-3, so the bad gender is on
# physical line 4 although it is the file's third record.
MULTILINE_DEMOGRAPHICS = ('user_id,gender,age,ethnicity,scheme_type\n'
                          '"User\n1",M,25,Asian,Noncore\nUser2,X,30,White,Noncore\n')


def test_strict_error_names_the_physical_line():
    with pytest.raises(ParseError) as err:
        parse_demographics(io.StringIO(MULTILINE_DEMOGRAPHICS))
    assert err.value.line == 4 and str(err.value).startswith("line 4: gender 'X'")


def test_lenient_error_names_the_physical_line():
    result = parse_demographics(io.StringIO(MULTILINE_DEMOGRAPHICS), strict=False)
    assert [r.user_id for r in result.records] == ["User\n1"]
    assert result.errors == [RowError(4, "gender 'X' not in ('M', 'F')")]


def test_medical_line_after_blank_and_multiline_records():
    src = MED_HEADER + (
        "\n"
        'User1,C1,2017-04-01,2017-04-01,682.50,"786.50;\n401.9",99211\n'
        "User1,C2,2017-04-02,2017-04-01,682.50,00000,99211\n"
    )
    result = parse_medical_claims(io.StringIO(src), strict=False)
    assert result.records[0].other_diagnoses == ("78650", "4019")
    assert result.errors == [RowError(5, "service_start 2017-04-02 after service_end 2017-04-01")]


icd9_codes = st.one_of(
    st.from_regex(r"[0-9]{3,5}", fullmatch=True),
    st.from_regex(r"V[0-9]{2,4}", fullmatch=True),
    st.from_regex(r"E[0-9]{3,4}", fullmatch=True),
)
dates = st.dates(min_value=date(2010, 1, 1), max_value=date(2020, 12, 31))
ids = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)


@st.composite
def medical_claims(draw):
    start = draw(dates)
    end = draw(st.dates(min_value=start, max_value=date(2021, 6, 30)))
    return MedicalClaim(
        user_id=draw(ids),
        claim_id=draw(ids),
        service_start=start,
        service_end=end,
        primary_diagnosis=draw(icd9_codes),
        # 00000 marks "no other diagnosis" in the file format, so it is never
        # one of a claim's other diagnoses; the writer refuses it.
        other_diagnoses=tuple(draw(st.lists(
            icd9_codes.filter(lambda code: code != NO_DIAGNOSIS_SENTINEL), max_size=3))),
        cpt_code=draw(st.from_regex(r"[0-9]{5}", fullmatch=True)),
    )


@given(st.lists(medical_claims(), max_size=20))
def test_medical_round_trip(records):
    buffer = io.StringIO()
    write_medical_claims(records, buffer)
    reparsed = parse_medical_claims(io.StringIO(buffer.getvalue()))
    assert reparsed.records == records


def test_medical_writer_refuses_sentinel_other_diagnosis():
    claim = MedicalClaim(
        user_id="User1", claim_id="C1", service_start=date(2017, 4, 1),
        service_end=date(2017, 4, 1), primary_diagnosis="68250",
        other_diagnoses=("40201", NO_DIAGNOSIS_SENTINEL), cpt_code="99211",
    )
    with pytest.raises(ValueError, match="C1"):
        write_medical_claims([claim], io.StringIO())


@given(st.lists(st.builds(
    PharmacyClaim,
    user_id=ids, claim_id=ids, service_date=dates,
    ndc_code=st.from_regex(r"[0-9]{10}", fullmatch=True),
), max_size=20))
def test_pharmacy_round_trip(records):
    buffer = io.StringIO()
    write_pharmacy_claims(records, buffer)
    assert parse_pharmacy_claims(io.StringIO(buffer.getvalue())).records == records


@given(st.lists(st.builds(
    DemographicRecord,
    user_id=ids,
    gender=st.sampled_from(["M", "F"]),
    age=st.integers(0, 110),
    ethnicity=st.sampled_from(["White", "Asian", "Hispanic", "Black"]),
    scheme_type=st.sampled_from([
        "LargeCentralMetro", "LargeFringeMetro", "MediumMetro",
        "SmallMetro", "Micropolitan", "Noncore",
    ]),
    ), max_size=20, unique_by=lambda r: r.user_id))
def test_demographics_round_trip(records):
    buffer = io.StringIO()
    write_demographics(records, buffer)
    assert parse_demographics(io.StringIO(buffer.getvalue())).records == records


def test_parsing_is_order_preserving(worked_example):
    claim_ids = [c.claim_id for c in worked_example["medical"]]
    assert claim_ids == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]
