"""Tests for Doppler resampling."""

import numpy as np
import pytest

from repro.dsp.resample import (
    SOUND_SPEED_WATER_M_S,
    apply_doppler,
    doppler_factor,
)


def test_doppler_factor_static_is_unity():
    assert doppler_factor(0.0) == pytest.approx(1.0)


def test_doppler_factor_sign_convention():
    assert doppler_factor(1.5) > 1.0   # approaching compresses
    assert doppler_factor(-1.5) < 1.0  # receding dilates


def test_doppler_factor_magnitude_for_human_speeds():
    # 2 m/s relative speed over 1500 m/s sound speed: ~0.13 %.
    factor = doppler_factor(2.0)
    assert factor == pytest.approx(1.0 + 2.0 / SOUND_SPEED_WATER_M_S)


def test_doppler_factor_rejects_supersonic():
    with pytest.raises(ValueError):
        doppler_factor(2000.0)


def test_apply_doppler_identity():
    x = np.sin(np.linspace(0, 20, 1000))
    np.testing.assert_allclose(apply_doppler(x, 1.0), x)


def test_apply_doppler_shifts_tone_frequency():
    fs = 48000
    t = np.arange(fs) / fs
    tone = np.sin(2 * np.pi * 4000 * t)
    shifted = apply_doppler(tone, doppler_factor(2.0))
    spectrum = np.abs(np.fft.rfft(shifted * np.hanning(shifted.size)))
    freqs = np.fft.rfftfreq(shifted.size, 1 / fs)
    peak = freqs[np.argmax(spectrum)]
    expected = 4000 * doppler_factor(2.0)
    assert abs(peak - expected) < 3.0
    assert abs(peak - 4000) > 2.0  # the shift (≈5.3 Hz) is visible


def test_apply_doppler_preserves_length():
    x = np.random.default_rng(0).standard_normal(5000)
    assert apply_doppler(x, 1.001).size == x.size

