"""Tests for the two-tone feedback symbol codec."""

import numpy as np
import pytest

from repro.core.config import OFDMConfig
from repro.core.feedback import FeedbackCodec


@pytest.fixture(scope="module")
def codec():
    return FeedbackCodec()


CONFIG = OFDMConfig()


def test_encode_length(codec):
    symbol = codec.encode(25, 70)
    assert symbol.size == CONFIG.extended_symbol_length


def test_encode_concentrates_power_in_two_bins(codec):
    symbol = codec.encode(25, 70)
    spectrum = np.abs(np.fft.rfft(symbol[CONFIG.cyclic_prefix_length:])) ** 2
    in_tones = spectrum[25] + spectrum[70]
    assert in_tones / spectrum.sum() > 0.98


def test_encode_single_bin_band(codec):
    symbol = codec.encode(33, 33)
    spectrum = np.abs(np.fft.rfft(symbol[CONFIG.cyclic_prefix_length:])) ** 2
    assert spectrum[33] / spectrum.sum() > 0.98


def test_encode_swaps_reversed_bins(codec):
    np.testing.assert_allclose(codec.encode(70, 25), codec.encode(25, 70))


def test_encode_rejects_out_of_band_bins(codec):
    with pytest.raises(ValueError):
        codec.encode(5, 40)
    with pytest.raises(ValueError):
        codec.encode(25, 200)


def test_decode_clean_symbol(codec, rng):
    symbol = codec.encode(22, 61)
    received = np.concatenate([np.zeros(500), symbol, np.zeros(500)])
    received += 1e-4 * rng.standard_normal(received.size)
    result = codec.decode(received)
    assert result.found
    assert result.start_bin == 22
    assert result.end_bin == 61
    assert result.peak_power_ratio > 0.5


def test_decode_with_noise_and_attenuation(codec, rng):
    symbol = 0.05 * codec.encode(30, 75)
    received = np.concatenate([np.zeros(800), symbol, np.zeros(400)])
    received += 0.005 * rng.standard_normal(received.size)
    result = codec.decode(received)
    assert result.found
    assert result.start_bin == 30
    assert result.end_bin == 75


def test_decode_pure_noise_not_found_or_weak(codec, rng):
    received = 0.01 * rng.standard_normal(6000)
    result = codec.decode(received)
    # White noise spreads energy over all 60 bins, so the top-2 ratio stays low.
    assert not result.found


def test_decode_respects_search_window(codec, rng):
    # Candidate starts end one symbol past the round trip at max_range_m.
    window_end = int(2.0 * 30.0 / 1500.0 * 48000) + codec.ofdm_config.extended_symbol_length
    symbol = codec.encode(40, 50)
    for lead, inside in ((window_end - 200, True), (window_end + 2000, False)):
        received = np.concatenate([np.zeros(lead), symbol, np.zeros(200)])
        received += 1e-5 * rng.standard_normal(received.size)
        result = codec.decode(received)
        if inside:
            assert result.found and result.start_bin == 40
        else:
            # The symbol starts after the window, so either nothing is
            # found or the quality ratio is poor.
            assert (not result.found) or result.peak_power_ratio < 0.5


def test_decode_empty_window(codec):
    result = codec.decode(np.zeros(10))
    assert not result.found
