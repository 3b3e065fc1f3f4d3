"""Tests for spectrum estimation helpers."""

import numpy as np
import pytest

from repro.dsp.spectrum import (
    band_power,
    band_power_db,
    frequency_response_from_probe,
)


def _tone(freq, fs=48000, duration=0.2, amplitude=1.0):
    t = np.arange(int(fs * duration)) / fs
    return amplitude * np.sin(2 * np.pi * freq * t)


def test_band_power_captures_in_band_tone():
    tone = _tone(2500)
    inside = band_power(tone, 48000, 1000, 4000)
    outside = band_power(tone, 48000, 5000, 10000)
    assert inside > 100 * outside
    assert inside == pytest.approx(0.5, rel=0.05)


def test_band_power_of_empty_signal_is_zero():
    assert band_power(np.array([]), 48000, 1000, 4000) == 0.0


def test_band_power_rejects_bad_band():
    with pytest.raises(ValueError):
        band_power(_tone(2000), 48000, 4000, 1000)


def test_band_power_db_monotone_in_amplitude():
    quiet = band_power_db(_tone(2000, amplitude=0.1), 48000, 1000, 4000)
    loud = band_power_db(_tone(2000, amplitude=1.0), 48000, 1000, 4000)
    assert loud - quiet == pytest.approx(20.0, abs=0.5)


def test_frequency_response_from_probe_recovers_attenuation():
    rng = np.random.default_rng(0)
    probe = rng.standard_normal(48000)
    attenuated = 0.1 * probe
    freqs = np.array([1000.0, 2000.0, 3000.0])
    response = frequency_response_from_probe(probe, attenuated, 48000, freqs)
    np.testing.assert_allclose(response, -20.0, atol=1.0)
