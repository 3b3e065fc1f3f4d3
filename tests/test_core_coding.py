"""Tests for the data encoding / decoding pipeline."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.core.adaptation import selection_from_bins
from repro.core.coding import DataDecoder, DataEncoder
from repro.core.config import OFDMConfig


CONFIG = OFDMConfig()
FULL_BAND = selection_from_bins(CONFIG.first_data_bin, CONFIG.last_data_bin, CONFIG)
NARROW_BAND = selection_from_bins(30, 45, CONFIG)


@pytest.fixture(scope="module")
def encoder():
    return DataEncoder()


@pytest.fixture(scope="module")
def decoder():
    return DataDecoder()


def _payload(rng, bits=16):
    return rng.integers(0, 2, bits)


def test_encoded_packet_dimensions(encoder):
    payload = np.ones(16, dtype=int)
    packet = encoder.encode(payload, FULL_BAND)
    assert packet.num_payload_bits == 16
    assert packet.num_coded_bits == 24
    assert packet.num_data_symbols == 1  # 24 coded bits fit in one 60-bin symbol
    # The training symbol plus the one data symbol.
    assert packet.waveform.size == 2 * CONFIG.extended_symbol_length


def test_narrow_band_needs_more_symbols(encoder):
    payload = np.ones(16, dtype=int)
    packet = encoder.encode(payload, NARROW_BAND)
    assert packet.num_data_symbols == int(np.ceil(24 / NARROW_BAND.num_bins))


def test_energy_confined_to_selected_band(encoder):
    payload = np.ones(16, dtype=int)
    packet = encoder.encode(payload, NARROW_BAND)
    cp = CONFIG.cyclic_prefix_length
    first_data_symbol = packet.waveform[CONFIG.extended_symbol_length + cp:
                                        CONFIG.extended_symbol_length + cp + CONFIG.symbol_length]
    spectrum = np.abs(np.fft.rfft(first_data_symbol)) ** 2
    in_band = spectrum[NARROW_BAND.start_bin:NARROW_BAND.end_bin + 1].sum()
    assert in_band / spectrum.sum() > 0.99


def test_loopback_roundtrip_full_band(encoder, decoder, rng):
    payload = _payload(rng)
    packet = encoder.encode(payload, FULL_BAND)
    decoded = decoder.decode(packet.waveform, FULL_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)
    assert decoded.soft_bits.size == 24
    assert decoded.hard_coded_bits.size == 24


def test_loopback_roundtrip_narrow_band(encoder, decoder, rng):
    payload = _payload(rng)
    packet = encoder.encode(payload, NARROW_BAND)
    decoded = decoder.decode(packet.waveform, NARROW_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_loopback_single_bin_band(encoder, decoder, rng):
    band = selection_from_bins(40, 40, CONFIG)
    payload = _payload(rng)
    packet = encoder.encode(payload, band)
    assert packet.num_data_symbols == 24
    decoded = decoder.decode(packet.waveform, band, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_roundtrip_through_multipath_channel(rng):
    """The equalizer + cyclic prefix must handle a modest multipath channel."""
    encoder = DataEncoder()
    decoder = DataDecoder()
    payload = _payload(rng)
    packet = encoder.encode(payload, FULL_BAND)
    channel = np.zeros(120)
    channel[0] = 1.0
    channel[35] = 0.4
    channel[90] = -0.25
    received = sp_signal.lfilter(channel, 1.0, packet.waveform)
    received = received + 0.01 * rng.standard_normal(received.size)
    decoded = decoder.decode(received, FULL_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_roundtrip_with_noise(rng):
    encoder = DataEncoder()
    decoder = DataDecoder()
    payload = _payload(rng)
    packet = encoder.encode(payload, FULL_BAND)
    received = packet.waveform + 0.05 * rng.standard_normal(packet.waveform.size)
    decoded = decoder.decode(received, FULL_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_differential_disabled_roundtrip(rng):
    encoder = DataEncoder(use_differential=False)
    decoder = DataDecoder(use_differential=False)
    payload = _payload(rng)
    packet = encoder.encode(payload, FULL_BAND)
    decoded = decoder.decode(packet.waveform, FULL_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_interleaving_disabled_roundtrip(rng):
    encoder = DataEncoder(use_interleaving=False)
    decoder = DataDecoder(use_interleaving=False)
    payload = _payload(rng)
    packet = encoder.encode(payload, NARROW_BAND)
    decoded = decoder.decode(packet.waveform, NARROW_BAND, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_differential_coding_survives_slow_phase_drift(rng):
    """A slowly rotating channel phase should not break differential decoding."""
    encoder = DataEncoder()
    decoder = DataDecoder(use_equalizer=False)
    payload = _payload(rng)
    band = selection_from_bins(30, 59, CONFIG)
    packet = encoder.encode(payload, band)
    # Apply a slow time-varying delay (phase drift) across the burst.
    t = np.arange(packet.waveform.size)
    drifted = packet.waveform * (1.0 + 0.02 * np.sin(2 * np.pi * t / packet.waveform.size))
    decoded = decoder.decode(drifted, band, 16)
    np.testing.assert_array_equal(decoded.bits, payload)


def test_decode_validates_length(decoder):
    with pytest.raises(ValueError):
        decoder.decode(np.zeros(100), FULL_BAND, 16)


def test_encode_validates_payload(encoder):
    with pytest.raises(ValueError):
        encoder.encode(np.array([]), FULL_BAND)
    with pytest.raises(ValueError):
        encoder.encode(np.array([0, 1, 2]), FULL_BAND)


def test_expected_length_accounting(decoder, encoder):
    payload = np.ones(16, dtype=int)
    packet = encoder.encode(payload, NARROW_BAND)
    assert decoder.expected_length(16, NARROW_BAND) == packet.waveform.size


def test_coded_reference_bits_match_encoder(decoder, rng):
    payload = _payload(rng)
    assert decoder.coded_reference_bits(payload).size == 24


def test_longer_payload_roundtrip(rng):
    encoder = DataEncoder()
    decoder = DataDecoder()
    payload = rng.integers(0, 2, 64)
    packet = encoder.encode(payload, FULL_BAND)
    assert packet.num_coded_bits == 96
    decoded = decoder.decode(packet.waveform, FULL_BAND, 64)
    np.testing.assert_array_equal(decoded.bits, payload)
