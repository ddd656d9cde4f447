import io

import pytest
from hypothesis import HealthCheck, settings

from readmit.claims import (
    parse_demographics, parse_medical_claims, parse_pharmacy_claims,
)
from readmit.codes import load_code_mappings
from readmit.features import AdmissionFeatures
from readmit.models.persist import ModelBundle, save_bundle

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The seven medical claims, three pharmacy claims, and two demographics rows
# of the worked example that the whole pipeline must reproduce.
WORKED_MEDICAL = """user_id,claim_id,service_start,service_end,primary_diagnosis,other_diagnoses,cpt_code
User1,C1,2017-04-01,2017-04-01,682.50,786.50,99211
User1,C2,2017-05-01,2017-05-03,70890,40201,99281
User1,C3,2017-05-04,2017-05-08,041.12,09320,61000
User1,C4,2017-05-21,2017-06-09,186.19,00000,99231
User1,C5,2017-07-01,2017-07-03,37234,34200,99231
User2,C6,2018-01-03,2018-01-08,78903,49001,99231
User2,C7,2018-01-03,2018-01-15,995.29,00000,43888
"""

WORKED_PHARMACY = """user_id,claim_id,service_date,ndc_code
User1,P1,2017-05-05,0002759701
User1,P2,2017-05-07,5024204062
User2,P3,2018-01-04,6057541121
"""

WORKED_DEMOGRAPHICS = """user_id,gender,age,ethnicity,scheme_type
User1,M,25,Asian,Large Central Metro
User2,F,35,White,Medium Metro
"""

# Hand-built feature rows whose features.csv and matrix.csv bytes are pinned:
# several comorbidities and medications, procedure ids that sort differently
# as numbers and as text, an admitting diagnosis with a comma, both labels.
PINNED_FEATURES = [
    AdmissionFeatures(
        user_id="U1", admission_id="A1",
        comorbidities=frozenset({"Renal", "CHF", "DMcx"}), gender="F",
        age_group="Boomers", ethnicity="Hispanic", scheme_type="Micropolitan",
        los_days=12, medication_categories=frozenset({"50", "07", "00"}),
        n_prev_admissions=3, n_prev_ed_admissions=1,
        admitting_diagnosis="Endocrine, nutritional, metabolic, immunity disorders",
        n_prev_hospital_visits=4, procedure_categories=frozenset({152, 3, 44}),
        readmitted_within_30d=True,
    ),
    AdmissionFeatures(
        user_id="U2", admission_id="A2",
        comorbidities=frozenset(), gender="M",
        age_group="Touch", ethnicity="Black", scheme_type="LargeCentralMetro",
        los_days=1, medication_categories=frozenset({"99"}),
        n_prev_admissions=0, n_prev_ed_admissions=0,
        admitting_diagnosis="Others", n_prev_hospital_visits=0,
        procedure_categories=frozenset(), readmitted_within_30d=False,
    ),
]


def rf_model_text(model) -> str:
    """The text ``save_bundle`` writes for ``model`` as an rf_best bundle
    over columns c0, c1, ...; equal texts mean equal forests."""
    names = [f"c{j}" for j in range(model.importances.size)]
    return save_bundle(ModelBundle(kind="rf_best", column_names=names, rf=model), io.StringIO())


@pytest.fixture(scope="session")
def mappings():
    return load_code_mappings()


@pytest.fixture()
def worked_example():
    return {
        "medical": parse_medical_claims(io.StringIO(WORKED_MEDICAL)).records,
        "pharmacy": parse_pharmacy_claims(io.StringIO(WORKED_PHARMACY)).records,
        "demographics": parse_demographics(io.StringIO(WORKED_DEMOGRAPHICS)).records,
    }


@pytest.fixture()
def worked_example_files(tmp_path):
    med = tmp_path / "medical_claims.csv"
    med.write_text(WORKED_MEDICAL)
    pharm = tmp_path / "pharmacy_claims.csv"
    pharm.write_text(WORKED_PHARMACY)
    demo = tmp_path / "demographics.csv"
    demo.write_text(WORKED_DEMOGRAPHICS)
    return {"medical": med, "pharmacy": pharm, "demographics": demo}
