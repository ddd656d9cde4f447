import io
from datetime import date

import numpy as np
import pytest

from readmit.claims import (
    write_demographics, write_medical_claims, write_pharmacy_claims,
)
from readmit.episodes import build_labeled_admissions, readmission_rate
from readmit.errors import ConfigError
from readmit.synth import GeneratorConfig, SignalSpec, calibrate_intercept, generate


def small_config(**overrides):
    base = dict(n_users=150, seed=5, readmission_fraction=0.1)
    base.update(overrides)
    return GeneratorConfig(**base)


def csv_bytes(data):
    out = []
    for writer, rows in ((write_medical_claims, data.medical),
                         (write_pharmacy_claims, data.pharmacy),
                         (write_demographics, data.demographics)):
        buffer = io.StringIO()
        writer(rows, buffer)
        out.append(buffer.getvalue())
    return out


def test_same_seed_byte_identical_files():
    config = small_config()
    assert csv_bytes(generate(config)) == csv_bytes(generate(config))


def test_different_seed_differs():
    a = csv_bytes(generate(small_config()))
    b = csv_bytes(generate(small_config(seed=6)))
    assert a != b


def test_round_trip_labels_exact(mappings):
    config = small_config(signals=(SignalSpec("comorbidity", "4280", 1.1),))
    data = generate(config)
    labeled, removed = build_labeled_admissions(data.medical, mappings)
    planted = sorted(
        (p.user_id, p.start, p.end, p.is_ed, p.readmitted_within_30d)
        for p in data.planted
    )
    recovered = sorted(
        (a.user_id, a.start, a.end, a.is_ed_admission, a.readmitted_within_30d)
        for a in labeled
    )
    assert planted == recovered
    assert sorted(data.removed_spans) == sorted(
        (e.user_id, e.start, e.end) for e in removed
    )


def test_realized_rate_concentrates_on_target(mappings):
    config = GeneratorConfig(n_users=2500, mean_admissions_per_user=2.0,
                             readmission_fraction=0.05, seed=9)
    data = generate(config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    assert len(data.planted) == 5000
    assert abs(readmission_rate(labeled) - 0.05) <= 0.01


def test_calibration_with_signal_preserves_target_rate(mappings):
    config = GeneratorConfig(n_users=2500, mean_admissions_per_user=2.0,
                             readmission_fraction=0.05, seed=10,
                             signals=(SignalSpec("comorbidity", "4280", np.log(3.0)),))
    data = generate(config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    assert abs(readmission_rate(labeled) - 0.05) <= 0.01


def test_calibrated_intercept_hits_per_admission_target():
    config = small_config(signals=(
        SignalSpec("comorbidity", "4280", 1.0986, carrier_rate=0.5),
        SignalSpec("medication", "60", -0.5, carrier_rate=0.3),
    ))
    a = calibrate_intercept(config)
    target = config.readmission_fraction / (1 - config.readmission_fraction)
    total = 0.0
    for carrier_a in (0, 1):
        for carrier_b in (0, 1):
            p = (0.5 if carrier_a else 0.5) * (0.3 if carrier_b else 0.7)
            logit = a + carrier_a * 1.0986 + carrier_b * -0.5
            total += p / (1 + np.exp(-logit))
    assert abs(total - target) < 1e-9


def test_medication_signal_lands_in_window(mappings):
    config = small_config(signals=(SignalSpec("medication", "60", 2.0, carrier_rate=0.9),))
    data = generate(config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    planted_carriers = sum(p.carriers[0] for p in data.planted)
    assert planted_carriers > 0
    in_window = 0
    by_user = {}
    for p in data.pharmacy:
        by_user.setdefault(p.user_id, []).append(p)
    for adm, truth in zip(sorted(labeled, key=lambda a: (a.user_id, a.start)),
                          sorted(data.planted, key=lambda p: (p.user_id, p.start))):
        cats = {p.ndc_code[:2] for p in by_user.get(adm.user_id, [])
                if adm.start <= p.service_date <= adm.end}
        if truth.carriers[0]:
            assert "60" in cats
            in_window += 1
    assert in_window == planted_carriers


def test_each_planted_signal_has_its_own_carrier():
    # Two identical signals: each admission carries the code once per signal
    # it carries, not twice per the last signal's draw.
    signal = SignalSpec("comorbidity", "4280", 1.0)
    data = generate(GeneratorConfig(n_users=200, seed=3, signals=(signal, signal)))
    counts = {}
    for claim in data.medical:
        key = (claim.user_id, claim.service_start)
        counts[key] = counts.get(key, 0) + claim.other_diagnoses.count("4280")
    assert {p.carriers for p in data.planted} >= {(True, False), (False, True)}
    assert [counts[p.user_id, p.start] for p in data.planted] == [
        sum(p.carriers) for p in data.planted]


def test_zero_signal_feature_target_association_is_null(mappings):
    """Permutation check: with no signal the planted-style feature column is
    independent of the label, so its observed association is typical of the
    permutation distribution."""
    config = GeneratorConfig(n_users=800, readmission_fraction=0.2, seed=21)
    data = generate(config)
    labeled, _ = build_labeled_admissions(data.medical, mappings)
    y = np.array([a.readmitted_within_30d for a in labeled], dtype=float)
    p_values = []
    rng = np.random.default_rng(33)
    for name in ("CHF", "Pulmonary", "DM", "HTN", "Renal"):
        x = np.array([
            any(name in mappings.comorbidities_for(code)
                for c in a.member_claims for code in c.other_diagnoses)
            for a in labeled
        ], dtype=float)
        if x.sum() == 0:
            continue
        observed = abs(np.corrcoef(x, y)[0, 1])
        null = np.array([
            abs(np.corrcoef(x, rng.permutation(y))[0, 1]) for _ in range(200)
        ])
        p_values.append((null >= observed).mean())
    assert p_values, "expected at least one comorbidity column to occur"
    assert min(p_values) > 0.005
    assert 0.2 < float(np.mean(p_values)) < 0.8


def test_infeasible_date_range_rejected():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_users=10, start_date=date(2017, 1, 1),
                        end_date=date(2017, 1, 10))


def test_invalid_fraction_rejected():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_users=10, readmission_fraction=0.0)


def test_unknown_signal_kind_rejected():
    with pytest.raises(ConfigError):
        SignalSpec("diagnosis", "428", 1.0)


def test_more_than_twelve_signals_rejected():
    """Calibration sums over all 2^k carrier patterns of k signals on each
    bisection step, so the generator refuses more than 12."""
    signals = (SignalSpec("comorbidity", "4280", 1.0),) * 13
    GeneratorConfig(n_users=10, signals=signals[:12])
    with pytest.raises(ConfigError, match="at most 12 signals, got 13"):
        GeneratorConfig(n_users=10, signals=signals)
