"""Tests for the host-speed factor the benchmark divides its times by."""

import pytest

from hostspeed import REFERENCE_S, SHARE, HostSpeed


def test_factor_is_the_median_sample_over_the_reference_time():
    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_S, REFERENCE_S, 5 * REFERENCE_S]
    assert speed.factor() == pytest.approx(2.0)


def test_sample_times_the_kernel_once_with_nothing_to_match():
    speed = HostSpeed()
    speed.sample()
    assert len(speed.samples) == 1 and speed.samples[0] > 0


def test_sample_spends_its_share_of_the_measured_work():
    speed = HostSpeed()
    speed.sample(after_s=1.0)
    assert sum(speed.samples) >= SHARE * 1.0
    # It stops at the first kernel that reaches the share.
    assert sum(speed.samples[:-1]) < SHARE * 1.0
