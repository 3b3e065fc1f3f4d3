"""Tests for ambient noise synthesis."""

import numpy as np
import pytest

from repro.channel.noise import AmbientNoiseModel, spectral_shape_db
from repro.dsp.spectrum import band_power


def test_generate_length_and_determinism():
    model = AmbientNoiseModel(level_db=-40.0)
    a = model.generate(4800, 48000.0, rng=5)
    b = model.generate(4800, 48000.0, rng=5)
    assert a.size == 4800
    np.testing.assert_array_equal(a, b)


def test_generate_zero_samples():
    assert AmbientNoiseModel().generate(0, 48000.0).size == 0


def test_overall_level_matches_request():
    model = AmbientNoiseModel(level_db=-30.0, impulsive_rate_hz=0.0)
    noise = model.generate(96000, 48000.0, rng=1)
    rms_db = 20 * np.log10(np.sqrt(np.mean(noise ** 2)))
    assert rms_db == pytest.approx(-30.0, abs=1.0)


def test_level_difference_between_models():
    quiet = AmbientNoiseModel(level_db=-45.0).generate(48000, 48000.0, rng=2)
    loud = AmbientNoiseModel(level_db=-36.0).generate(48000, 48000.0, rng=2)
    ratio_db = 20 * np.log10(np.std(loud) / np.std(quiet))
    assert ratio_db == pytest.approx(9.0, abs=1.0)


def test_low_frequency_emphasis():
    """Noise below 1 kHz must be stronger than between 1-4 kHz (Fig. 4)."""
    model = AmbientNoiseModel(level_db=-40.0, impulsive_rate_hz=0.0)
    noise = model.generate(96000, 48000.0, rng=3)
    low = band_power(noise, 48000.0, 100.0, 1000.0)
    mid = band_power(noise, 48000.0, 1000.0, 4000.0)
    high = band_power(noise, 48000.0, 8000.0, 16000.0)
    assert low > mid
    assert mid > high


def test_spectral_shape_db_features():
    freqs = np.array([200.0, 2500.0, 10000.0])
    shape = spectral_shape_db(freqs)
    assert shape[0] > shape[1] > shape[2]


def test_impulsive_component_adds_spikes():
    base = AmbientNoiseModel(level_db=-40.0, impulsive_rate_hz=0.0)
    spiky = AmbientNoiseModel(level_db=-40.0, impulsive_rate_hz=20.0)
    calm = base.generate(48000, 48000.0, rng=4)
    bursty = spiky.generate(48000, 48000.0, rng=4)
    # Both draw the same stationary noise first, so the difference is the
    # transients alone: short bursts that rise well above the noise floor.
    spikes = bursty - calm
    assert 0 < np.count_nonzero(spikes) < 0.1 * spikes.size
    assert np.max(np.abs(spikes)) > 3 * np.std(calm)


def test_invalid_sample_rate_rejected():
    with pytest.raises(ValueError):
        AmbientNoiseModel().generate(100, 0.0)
