"""Tests for the FSK SoS beacon mode."""

import numpy as np
import pytest

from repro.core.beacon import SUPPORTED_RATES_BPS, FSKBeacon


def test_supported_rates():
    assert SUPPORTED_RATES_BPS == (5, 10, 20)


@pytest.mark.parametrize("rate,expected_duration", [(5, 0.2), (10, 0.1), (20, 0.05)])
def test_symbol_durations_match_paper(rate, expected_duration):
    beacon = FSKBeacon(bit_rate_bps=rate)
    assert beacon.symbol_duration_s == pytest.approx(expected_duration)
    assert beacon.samples_per_symbol == int(48000 * expected_duration)


def test_unsupported_rate_rejected():
    with pytest.raises(ValueError):
        FSKBeacon(bit_rate_bps=7)


def test_tone_frequencies_must_be_in_band():
    assert 1500.0 <= FSKBeacon.F0_HZ < FSKBeacon.F1_HZ <= 4000.0


def test_encode_length_and_rms():
    beacon = FSKBeacon(bit_rate_bps=10)
    waveform = beacon.encode([1, 0, 1])
    assert waveform.size == 3 * beacon.samples_per_symbol
    assert np.sqrt(np.mean(waveform ** 2)) == pytest.approx(1.0, rel=1e-3)


def test_encode_validates_bits():
    beacon = FSKBeacon()
    with pytest.raises(ValueError):
        beacon.encode([])
    with pytest.raises(ValueError):
        beacon.encode([0, 2])


def test_clean_roundtrip_all_rates(rng):
    for rate in SUPPORTED_RATES_BPS:
        beacon = FSKBeacon(bit_rate_bps=rate)
        bits = rng.integers(0, 2, 8)
        received = beacon.encode(bits) + 0.01 * rng.standard_normal(8 * beacon.samples_per_symbol)
        result = beacon.decode(received, 8)
        np.testing.assert_array_equal(result.bits, bits)
        assert np.all(result.confidence > 10.0)


def test_roundtrip_in_strong_noise(rng):
    beacon = FSKBeacon(bit_rate_bps=5)
    bits = rng.integers(0, 2, 6)
    waveform = beacon.encode(bits)
    # 0 dB broadband SNR: the long symbols still give a large per-tone margin.
    received = waveform + rng.standard_normal(waveform.size)
    result = beacon.decode(received, 6)
    np.testing.assert_array_equal(result.bits, bits)


def test_decode_validates_length():
    beacon = FSKBeacon()
    with pytest.raises(ValueError):
        beacon.decode(np.zeros(100), 6)


def test_sos_roundtrip(rng):
    beacon = FSKBeacon(bit_rate_bps=20)
    for user_id in (0, 1, 42, 63):
        waveform = beacon.encode_sos(user_id)
        noisy = waveform + 0.05 * rng.standard_normal(waveform.size)
        decoded_id, result = beacon.decode_sos(noisy)
        assert decoded_id == user_id
        assert result.bits.size == 6


def test_sos_rejects_wide_ids():
    with pytest.raises(ValueError):
        FSKBeacon().encode_sos(64)
    with pytest.raises(ValueError):
        FSKBeacon().encode_sos(-1)
