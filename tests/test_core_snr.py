"""Tests for per-subcarrier channel / SNR estimation."""

import numpy as np
import pytest

from repro.core.preamble import PreambleDetector, PreambleGenerator
from repro.core.snr import ChannelEstimate, estimate_channel_and_snr


@pytest.fixture(scope="module")
def generator():
    return PreambleGenerator()


def _received_preamble(generator, noise_std, rng, gain=1.0, notch_bin=None):
    """Build a received preamble: optional per-bin gain/notch plus noise."""
    config = generator.ofdm_config
    waveform = generator.waveform() * gain
    if notch_bin is not None:
        # Remove one subcarrier from the waveform in the frequency domain.
        detector = PreambleDetector(generator)
        symbols = detector.extract_symbols(waveform, 0)
        spectra = np.fft.rfft(symbols, axis=1)
        spectra[:, notch_bin] *= 0.01
        symbols = np.fft.irfft(spectra, n=config.symbol_length, axis=1)
        return symbols + noise_std * rng.standard_normal(symbols.shape)
    detector = PreambleDetector(generator)
    received = waveform + noise_std * rng.standard_normal(waveform.size)
    return detector.extract_symbols(received, 0)


def test_estimate_shape_and_fields(generator, rng):
    symbols = _received_preamble(generator, 0.01, rng)
    estimate = estimate_channel_and_snr(symbols, generator.reference_bin_values,
                                        generator.ofdm_config)
    assert isinstance(estimate, ChannelEstimate)
    assert estimate.num_bins == 60
    assert estimate.snr_db.shape == (60,)
    assert estimate.response.shape == (60,)
    assert estimate.noise_power.shape == (60,)


def test_high_snr_for_clean_preamble(generator, rng):
    symbols = _received_preamble(generator, 1e-4, rng)
    estimate = estimate_channel_and_snr(symbols, generator.reference_bin_values,
                                        generator.ofdm_config)
    assert np.min(estimate.snr_db) > 30.0


def test_snr_tracks_noise_level(generator, rng):
    quiet = _received_preamble(generator, 0.01, rng)
    loud = _received_preamble(generator, 0.1, rng)
    config = generator.ofdm_config
    ref = generator.reference_bin_values
    snr_quiet = np.median(estimate_channel_and_snr(quiet, ref, config).snr_db)
    snr_loud = np.median(estimate_channel_and_snr(loud, ref, config).snr_db)
    # 10x noise amplitude = 20 dB SNR difference.
    assert snr_quiet - snr_loud == pytest.approx(20.0, abs=3.0)


def test_notched_bin_has_low_snr(generator, rng):
    notch_bin = 40
    symbols = _received_preamble(generator, 0.01, rng, notch_bin=notch_bin)
    estimate = estimate_channel_and_snr(symbols, generator.reference_bin_values,
                                        generator.ofdm_config)
    offset = notch_bin - generator.ofdm_config.first_data_bin
    others = np.delete(estimate.snr_db, offset)
    assert estimate.snr_db[offset] < np.median(others) - 15.0


def test_channel_gain_is_recovered(generator, rng):
    symbols = _received_preamble(generator, 1e-4, rng, gain=0.25)
    estimate = estimate_channel_and_snr(symbols, generator.reference_bin_values,
                                        generator.ofdm_config)
    assert np.median(np.abs(estimate.response)) == pytest.approx(0.25, rel=0.05)


def test_snr_for_band_slicing(generator, rng):
    symbols = _received_preamble(generator, 0.01, rng)
    estimate = estimate_channel_and_snr(symbols, generator.reference_bin_values,
                                        generator.ofdm_config)
    config = generator.ofdm_config
    band = estimate.snr_for_band(config.first_data_bin + 5, config.first_data_bin + 14)
    assert band.size == 10
    np.testing.assert_allclose(band, estimate.snr_db[5:15])


def test_input_validation(generator):
    config = generator.ofdm_config
    with pytest.raises(ValueError):
        estimate_channel_and_snr(np.zeros((8, 10)), generator.reference_bin_values, config)
    with pytest.raises(ValueError):
        estimate_channel_and_snr(np.zeros((8, config.symbol_length)), np.ones(10), config)
