"""Tests for FIR filter design and application."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.filters import FIRBandpassFilter, design_bandpass_fir, design_fir_from_response


def _tone(freq, fs=48000, duration=0.2):
    t = np.arange(int(fs * duration)) / fs
    return np.sin(2 * np.pi * freq * t)


def test_bandpass_design_passes_in_band_and_rejects_out_of_band():
    taps = design_bandpass_fir(1000, 4000, 48000)
    w, h = sp_signal.freqz(taps, worN=4096, fs=48000)
    gain = np.abs(h)
    assert gain[np.argmin(np.abs(w - 2500))] > 0.9
    assert gain[np.argmin(np.abs(w - 200))] < 0.05
    assert gain[np.argmin(np.abs(w - 8000))] < 0.05


def test_bandpass_design_forces_odd_taps():
    # The paper's 128-order filter: 129 taps, odd for type-I linear phase.
    taps = design_bandpass_fir(1000, 4000, 48000)
    assert taps.size == 129


def test_bandpass_design_rejects_invalid_edges():
    with pytest.raises(ValueError):
        design_bandpass_fir(4000, 1000, 48000)
    with pytest.raises(ValueError):
        design_bandpass_fir(1000, 30000, 48000)


def test_filter_attenuates_out_of_band_tone():
    filt = FIRBandpassFilter()
    in_band = filt.apply(_tone(2500))
    out_band = filt.apply(_tone(300))
    assert np.std(in_band) > 10 * np.std(out_band)


def test_filter_delay_compensation_preserves_alignment():
    filt = FIRBandpassFilter()
    x = _tone(2000, duration=0.05)
    y = filt.apply(x)
    assert y.size == x.size
    # Cross-correlation peak should sit at (nearly) zero lag.
    corr = np.correlate(y, x, mode="full")
    lag = np.argmax(corr) - (x.size - 1)
    assert abs(lag) <= 1


def test_filter_output_length_matches_input():
    filt = FIRBandpassFilter()
    x = np.random.default_rng(0).standard_normal(1000)
    assert filt.apply(x).size == x.size


def test_design_fir_from_response_matches_target_gain():
    freqs = np.array([500.0, 1000.0, 2000.0, 4000.0, 8000.0])
    gains = np.array([-20.0, -3.0, 0.0, -3.0, -20.0])
    taps = design_fir_from_response(freqs, gains, 48000, 257)
    w, h = sp_signal.freqz(taps, worN=8192, fs=48000)
    gain_db = 20 * np.log10(np.maximum(np.abs(h), 1e-9))
    at_2k = gain_db[np.argmin(np.abs(w - 2000))]
    at_500 = gain_db[np.argmin(np.abs(w - 500))]
    assert at_2k == pytest.approx(0.0, abs=1.5)
    assert at_500 < -10.0


def test_design_fir_from_response_validates_inputs():
    with pytest.raises(ValueError):
        design_fir_from_response(np.array([1000.0]), np.array([0.0]), 48000)
    with pytest.raises(ValueError):
        design_fir_from_response(np.array([2000.0, 1000.0]), np.array([0.0, 0.0]), 48000)


def test_group_delay_property():
    filt = FIRBandpassFilter()
    assert filt.group_delay_samples == (filt.num_taps - 1) // 2
