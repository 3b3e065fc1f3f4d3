"""Tests for the AquaModem facade."""

import numpy as np
import pytest

from repro.core.adaptation import selection_from_bins
from repro.core.modem import AquaModem


@pytest.fixture(scope="module")
def static_modem():
    return AquaModem()


def test_build_preamble_and_header_layout(static_modem):
    header = static_modem.build_preamble_and_header(receiver_id=7)
    config = static_modem.ofdm_config
    assert header.preamble_length == 8 * config.extended_symbol_length
    assert header.waveform.size == header.preamble_length + config.extended_symbol_length
    assert header.receiver_id == 7


def test_detect_and_decode_own_header(static_modem, rng):
    header = static_modem.build_preamble_and_header(receiver_id=23)
    received = np.concatenate([np.zeros(2000), header.waveform, np.zeros(1000)])
    received += 1e-4 * rng.standard_normal(received.size)
    detection = static_modem.detect_preamble(received)
    assert detection.detected
    decoded_id = static_modem.decode_header(received, detection.start_index)
    assert decoded_id.value == 23


def test_estimate_snr_and_select_band_clean_signal(static_modem, rng):
    header = static_modem.build_preamble_and_header(receiver_id=1)
    received = np.concatenate([np.zeros(500), header.waveform, np.zeros(500)])
    received += 1e-4 * rng.standard_normal(received.size)
    detection = static_modem.detect_preamble(received)
    estimate = static_modem.estimate_snr(received, detection.start_index)
    band = static_modem.select_band(estimate)
    # A clean, flat channel should admit (nearly) the full band.
    assert band.num_bins >= 55
    assert band.satisfied


def test_feedback_roundtrip_through_modem(static_modem, rng):
    band = selection_from_bins(25, 60, static_modem.ofdm_config)
    feedback = static_modem.build_feedback(band)
    received = np.concatenate([np.zeros(300), feedback, np.zeros(300)])
    received += 1e-4 * rng.standard_normal(received.size)
    decoded = static_modem.decode_feedback(received)
    assert decoded.found
    recovered = static_modem.band_from_feedback(decoded)
    assert recovered.start_bin == 25
    assert recovered.end_bin == 60


def test_band_from_feedback_requires_found(static_modem):
    from repro.core.feedback import FeedbackDecodeResult

    with pytest.raises(ValueError):
        static_modem.band_from_feedback(FeedbackDecodeResult(False, -1, -1, -1, 0.0))


def test_encode_decode_data_through_modem(static_modem, rng):
    band = selection_from_bins(30, 59, static_modem.ofdm_config)
    payload = rng.integers(0, 2, 16)
    packet = static_modem.encode_data(payload, band)
    decoded = static_modem.decode_data(packet.waveform, band)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_decode_data_uses_protocol_payload_size_by_default(static_modem):
    assert static_modem.protocol_config.payload_bits == 16


def test_ack_roundtrip(static_modem, rng):
    ack = static_modem.build_ack()
    assert static_modem.decode_ack(ack + 1e-4 * rng.standard_normal(ack.size))
    assert not static_modem.decode_ack(rng.standard_normal(ack.size))


def test_ack_survives_a_weaker_interfering_tone(static_modem):
    # An ACK tone plus a half-amplitude interfering tone: the ACK bin holds
    # 1 / (1 + 0.25) = 80 % of the in-band energy, above the 0.2 threshold.
    mixed = static_modem.build_ack() + 0.5 * static_modem.tone_codec.encode_id(5)
    assert static_modem.decode_ack(mixed)


def test_bitrate_for_band(static_modem):
    band = selection_from_bins(20, 23, static_modem.ofdm_config)  # 4 bins
    assert static_modem.bitrate_for_band(band) == pytest.approx(133.33, rel=1e-3)


def test_data_burst_length_matches_encoder(static_modem, rng):
    band = selection_from_bins(30, 45, static_modem.ofdm_config)
    payload = rng.integers(0, 2, 16)
    packet = static_modem.encode_data(payload, band)
    assert static_modem.decoder.expected_length(16, band) == packet.waveform.size


def test_filter_received_removes_out_of_band_noise(static_modem, rng):
    t = np.arange(48000) / 48000.0
    low_tone = np.sin(2 * np.pi * 200 * t)
    filtered = static_modem.filter_received(low_tone)
    assert np.std(filtered) < 0.1 * np.std(low_tone)


def test_modem_with_custom_configuration():
    from repro.core.config import OFDMConfig

    modem = AquaModem(ofdm_config=OFDMConfig().with_subcarrier_spacing(25.0))
    assert modem.ofdm_config.num_data_bins == 120
    assert modem.preamble_generator.reference_bin_values.size == 120
