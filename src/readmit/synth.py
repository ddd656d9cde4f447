"""Seeded synthetic claims generator.

Writes the three raw input CSVs (never features), so every run exercises
the full pipeline. Admission claim clusters honor the 10-day episode gap
and the 30-day readmission window by construction, which lets the episode
builder recover the planted admissions and labels exactly. Readmission
events are drawn from a logistic link over planted claim-level features
(e.g. a specific comorbidity code injected into other_diagnoses); the
intercept is calibrated so the expected readmission rate matches the
configured target regardless of signal strengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .claims import (
    ETHNICITIES, GENDERS, NO_DIAGNOSIS_SENTINEL, SCHEME_TYPES, DemographicRecord,
    MedicalClaim, PharmacyClaim,
)
from .codes import normalize_icd9
from .episodes import GAP_DAYS, WINDOW_DAYS
from .errors import ConfigError
from .seeding import GENERATOR_STREAM, rng_for

# CPT pools for constructing claims.
_INPATIENT_NON_ED = [str(c) for c in (99224, 99225, 99226, 99231, 99232,
                                      99233, 99234, 99235, 99236, 99291, 99292)]
_ED_CPTS = [str(c) for c in range(99281, 99286)]
_OFFICE_CPTS = [str(c) for c in range(99211, 99216)]
_HOSPITAL_VISIT_CPTS = [str(c) for c in (99218, 99219, 99220, 99251, 99252)]
_PROCEDURE_CPTS = ["61000", "43888", "27130", "27440", "31500", "44950",
                   "47562", "63015", "70450", "33510"]

_WORST_CASE_LOS = 14
_SPACING_MAX = 70        # widest draw for the post-admission quiet gap
MAX_SIGNALS = 12         # calibrate_intercept's time doubles with each signal


@dataclass(frozen=True)
class SignalSpec:
    """Links one planted claim-level feature to readmission log-odds.

    ``kind`` is "comorbidity" (``value`` is an ICD-9 code injected into
    other_diagnoses) or "medication" (``value`` is a 2-digit NDC prefix).
    ``strength`` is the log odds-ratio carried by the feature; carriers are
    drawn per admission with probability ``carrier_rate``. A value must survive
    the claims files: a medication prefix is two ASCII digits, a comorbidity
    code holds no ``;`` and does not normalise to empty or ``00000``.
    """

    kind: str
    value: str
    strength: float
    carrier_rate: float = 0.5

    def __post_init__(self):
        if self.kind not in ("comorbidity", "medication"):
            raise ConfigError(f"unknown signal kind {self.kind!r}")
        if self.kind == "medication" and not (
                len(self.value) == 2 and self.value.isascii() and self.value.isdigit()):
            raise ConfigError(f"medication signal value {self.value!r} is not two digits")
        if self.kind == "comorbidity" and (
                ";" in self.value or normalize_icd9(self.value) in ("", NO_DIAGNOSIS_SENTINEL)):
            raise ConfigError(f"comorbidity signal value {self.value!r} is not an ICD-9 code "
                              "the claims files can carry")
        if not 0.0 < self.carrier_rate < 1.0:
            raise ConfigError("carrier_rate must be in (0, 1)")


@dataclass(frozen=True)
class GeneratorConfig:
    n_users: int = 5000
    start_date: date = date(2015, 1, 1)
    end_date: date = date(2019, 12, 31)
    mean_admissions_per_user: float = 2.0
    readmission_fraction: float = 0.0465
    signals: tuple[SignalSpec, ...] = ()
    noise_claim_rate: float = 0.3       # stray office-visit claims per admission
    hospital_visit_rate: float = 0.15   # stray hospital-visit claims per admission
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if not 0.0 < self.readmission_fraction < 1.0:
            raise ConfigError("readmission_fraction must be in (0, 1)")
        if self.mean_admissions_per_user < 1.0:
            raise ConfigError("mean_admissions_per_user must be at least 1")
        if len(self.signals) > MAX_SIGNALS:
            raise ConfigError(f"at most {MAX_SIGNALS} signals, got {len(self.signals)}")
        for name in ("noise_claim_rate", "hospital_visit_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        span = (self.end_date - self.start_date).days
        if span <= _WORST_CASE_LOS:
            raise ConfigError("date range shorter than the worst-case stay")
        k_max = int(np.ceil(self.mean_admissions_per_user))
        needed = 200 + k_max * (_WORST_CASE_LOS + WINDOW_DAYS + _SPACING_MAX + 40)
        if span < needed:
            raise ConfigError(
                f"date range of {span} days cannot fit {k_max} admissions per user;"
                f" need at least {needed}"
            )


@dataclass(frozen=True)
class PlantedAdmission:
    """Ground truth for one retained (index) admission."""

    user_id: str
    start: date
    end: date
    is_ed: bool
    readmitted_within_30d: bool
    carriers: tuple[bool, ...] = ()


@dataclass
class SyntheticData:
    medical: list[MedicalClaim]
    pharmacy: list[PharmacyClaim]
    demographics: list[DemographicRecord]
    planted: list[PlantedAdmission]
    removed_spans: list[tuple[str, date, date]] = field(default_factory=list)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else float(np.exp(x) / (1.0 + np.exp(x)))


def calibrate_intercept(config: GeneratorConfig) -> float:
    """Bisect the link intercept so the expected per-index readmission
    probability equals f/(1-f), making the expected removed/total rate f."""
    target = config.readmission_fraction / (1.0 - config.readmission_fraction)
    if target >= 1.0:
        raise ConfigError("readmission_fraction too high to realize")
    signals = config.signals

    def expected_rate(a: float) -> float:
        total, k = 0.0, len(signals)
        for mask in range(2 ** k):
            prob, logit = 1.0, a
            for j, sig in enumerate(signals):
                if mask >> j & 1:
                    prob *= sig.carrier_rate
                    logit += sig.strength
                else:
                    prob *= 1.0 - sig.carrier_rate
            total += prob * _sigmoid(logit)
        return total

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if expected_rate(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _random_icd9(rng) -> str:
    code = f"{rng.integers(1, 1000):03d}"
    if rng.random() < 0.7:
        code += f"{rng.integers(0, 100):02d}"
    return code


def _random_ndc(rng) -> str:
    return "".join(str(d) for d in rng.integers(0, 10, 10))


def _admission_claims(rng, user_id, claim_counter, start, end, is_ed, extra_dx):
    """Claim chain covering [start, end]: consecutive claims touch, so the
    10-day rule always groups them into one episode."""
    span = (end - start).days
    n_claims = 1 if span == 0 else int(rng.integers(1, min(3, span + 1) + 1))
    cuts = sorted(int(c) for c in rng.integers(0, span + 1, n_claims - 1)) if n_claims > 1 else []
    bounds = [0, *cuts, span]
    claims = []
    for i in range(n_claims):
        c_start = start + timedelta(days=bounds[i])
        c_end = start + timedelta(days=bounds[i + 1])
        if i == 0:
            cpt = _ED_CPTS[rng.integers(0, len(_ED_CPTS))] if is_ed \
                else _INPATIENT_NON_ED[rng.integers(0, len(_INPATIENT_NON_ED))]
        elif rng.random() < 0.3:
            cpt = _PROCEDURE_CPTS[rng.integers(0, len(_PROCEDURE_CPTS))]
        else:
            cpt = _INPATIENT_NON_ED[rng.integers(0, len(_INPATIENT_NON_ED))]
        others = [_random_icd9(rng)] if rng.random() < 0.5 else []
        if i == 0:
            others += extra_dx   # planted codes ride on the first claim: the feature always fires
        claims.append(MedicalClaim(
            user_id=user_id,
            claim_id=f"{user_id}-C{next(claim_counter)}",
            service_start=c_start,
            service_end=c_end,
            primary_diagnosis=_random_icd9(rng),
            other_diagnoses=tuple(others),
            cpt_code=cpt,
        ))
    return claims


def generate(config: GeneratorConfig) -> SyntheticData:
    intercept = calibrate_intercept(config)
    base = int(config.mean_admissions_per_user)
    frac = config.mean_admissions_per_user - base
    # Stray claims: (rate, earliest day after last_end, end-day choices, CPT pool).
    # One end-day choice draws integers(0, 1), which takes nothing from the stream.
    strays = ((config.noise_claim_rate, GAP_DAYS, 2, _OFFICE_CPTS),
              (config.hospital_visit_rate, 16, 1, _HOSPITAL_VISIT_CPTS))

    data = SyntheticData([], [], [], [])
    for u in range(config.n_users):
        user_id = f"U{u:06d}"
        rng = rng_for(config.seed, GENERATOR_STREAM, u)
        claim_counter = iter(range(1, 10_000))
        pharmacy_counter = iter(range(1, 10_000))

        data.demographics.append(DemographicRecord(
            user_id=user_id,
            gender=GENDERS[rng.integers(0, len(GENDERS))],
            age=int(rng.integers(0, 90)),
            ethnicity=ETHNICITIES[rng.integers(0, len(ETHNICITIES))],
            scheme_type=SCHEME_TYPES[rng.integers(0, len(SCHEME_TYPES))],
        ))

        n_admissions = base + (1 if rng.random() < frac else 0)
        cursor = config.start_date + timedelta(days=int(rng.integers(0, 180)))
        for _ in range(n_admissions):
            start = cursor
            end = start + timedelta(days=int(rng.integers(0, _WORST_CASE_LOS + 1)))
            is_ed = bool(rng.random() < 0.3)

            carriers = tuple(bool(rng.random() < s.carrier_rate) for s in config.signals)
            carried = [s for s, carrier in zip(config.signals, carriers) if carrier]
            extra_dx = [s.value for s in carried if s.kind == "comorbidity"]
            data.medical.extend(_admission_claims(
                rng, user_id, claim_counter, start, end, is_ed, extra_dx
            ))

            prefixes = [""] * int(rng.integers(0, 3))
            prefixes += [s.value for s in carried if s.kind == "medication"]
            span = (end - start).days
            for prefix in prefixes:
                data.pharmacy.append(PharmacyClaim(
                    user_id=user_id,
                    claim_id=f"{user_id}-P{next(pharmacy_counter)}",
                    service_date=start + timedelta(days=int(rng.integers(0, span + 1))),
                    ndc_code=prefix + _random_ndc(rng)[len(prefix):],
                ))

            logit = intercept + sum(s.strength for s in carried)
            readmitted = bool(rng.random() < _sigmoid(logit))
            data.planted.append(PlantedAdmission(
                user_id=user_id, start=start, end=end, is_ed=is_ed,
                readmitted_within_30d=readmitted, carriers=carriers,
            ))

            last_end = end
            if readmitted:
                r_start = end + timedelta(days=int(rng.integers(GAP_DAYS, WINDOW_DAYS + 1)))
                r_end = r_start + timedelta(days=int(rng.integers(0, 8)))
                data.medical.extend(_admission_claims(
                    rng, user_id, claim_counter, r_start, r_end,
                    bool(rng.random() < 0.3), [],
                ))
                data.removed_spans.append((user_id, r_start, r_end))
                last_end = r_end

            # Quiet zone: beyond the 30-day window of the index admission
            # and at least an episode gap away from every claim so far.
            next_start = max(end + timedelta(days=WINDOW_DAYS + 1),
                             last_end + timedelta(days=GAP_DAYS))
            next_start += timedelta(days=int(rng.integers(10, _SPACING_MAX + 1)))

            for rate, offset, stay, cpts in strays:
                if rng.random() < rate:
                    t = last_end + timedelta(days=offset + int(rng.integers(0, 5)))
                    # A stray ends at most a day after t, an episode gap before next_start.
                    if (next_start - t).days > GAP_DAYS:
                        data.medical.append(MedicalClaim(
                            user_id=user_id,
                            claim_id=f"{user_id}-C{next(claim_counter)}",
                            service_start=t,
                            service_end=t + timedelta(days=int(rng.integers(0, stay))),
                            primary_diagnosis=_random_icd9(rng),
                            other_diagnoses=(),
                            cpt_code=cpts[rng.integers(0, len(cpts))],
                        ))
            cursor = next_start
    return data
