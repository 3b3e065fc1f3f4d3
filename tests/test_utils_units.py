"""Tests for dB / unit conversion helpers."""

import numpy as np
import pytest

from repro.utils.units import db_to_amplitude_ratio, power_ratio_to_db


def test_power_ratio_roundtrip():
    assert power_ratio_to_db(10.0 ** (13.0 / 10.0)) == pytest.approx(13.0)


def test_amplitude_ratio_roundtrip():
    assert 20.0 * np.log10(db_to_amplitude_ratio(-7.5)) == pytest.approx(-7.5)


def test_db_to_amplitude_ratio_known_values():
    assert db_to_amplitude_ratio(20.0) == pytest.approx(10.0)
    assert db_to_amplitude_ratio(6.0) == pytest.approx(1.995, rel=1e-3)


def test_power_and_amplitude_conventions_differ():
    # A factor of 10 in amplitude is 20 dB but a factor of 10 in power is 10 dB.
    assert db_to_amplitude_ratio(2 * power_ratio_to_db(10.0)) == pytest.approx(10.0)


def test_power_ratio_to_db_handles_arrays():
    values = np.array([1.0, 10.0, 100.0])
    out = power_ratio_to_db(values)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [0.0, 10.0, 20.0])


def test_power_ratio_to_db_clamps_zero():
    # Zero power should not produce -inf or raise.
    assert np.isfinite(power_ratio_to_db(0.0))
