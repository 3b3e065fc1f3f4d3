"""Tests for dB / unit conversion helpers."""

import numpy as np
import pytest

from repro.utils.units import (
    db_to_amplitude_ratio,
    power_ratio_to_db,
    signal_power,
    snr_db,
)


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


def test_signal_power_of_unit_sine():
    t = np.linspace(0, 1, 48000, endpoint=False)
    sine = np.sin(2 * np.pi * 100 * t)
    assert signal_power(sine) == pytest.approx(0.5, rel=1e-3)


def test_signal_power_empty_is_zero():
    assert signal_power(np.array([])) == 0.0


def test_snr_db_of_equal_power_signals_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(10000)
    b = rng.standard_normal(10000)
    assert snr_db(a, b) == pytest.approx(0.0, abs=0.2)


def test_snr_db_scales_with_amplitude():
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(10000)
    signal = 10.0 * rng.standard_normal(10000)
    assert snr_db(signal, noise) == pytest.approx(20.0, abs=0.3)
