"""Tests for LFM chirp generation."""

import numpy as np
import pytest

from repro.dsp.chirp import lfm_chirp


def test_chirp_length_and_amplitude():
    chirp = lfm_chirp(1000, 5000, 0.5, 48000)
    assert chirp.size == 24000
    assert np.max(np.abs(chirp)) <= 1.0 + 1e-9


def test_chirp_energy_concentrated_in_swept_band():
    fs = 48000
    chirp = lfm_chirp(1000, 4000, 0.5, fs)
    spectrum = np.abs(np.fft.rfft(chirp)) ** 2
    freqs = np.fft.rfftfreq(chirp.size, 1 / fs)
    in_band = spectrum[(freqs >= 900) & (freqs <= 4100)].sum()
    assert in_band / spectrum.sum() > 0.95


def test_downward_chirp_allowed():
    chirp = lfm_chirp(4000, 1000, 0.1, 48000)
    assert chirp.size == 4800


def test_chirp_rejects_bad_duration_and_rate():
    with pytest.raises(ValueError):
        lfm_chirp(1000, 2000, 0.0, 48000)
    with pytest.raises(ValueError):
        lfm_chirp(1000, 2000, 1.0, 0.0)
    with pytest.raises(ValueError):
        lfm_chirp(-10, 2000, 1.0, 48000)
