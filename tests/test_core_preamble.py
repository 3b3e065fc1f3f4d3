"""Tests for preamble generation, detection and synchronization."""

import numpy as np
import pytest

from repro.core.config import PREAMBLE_PN_SIGNS, SLIDING_CORRELATION_STEP, OFDMConfig
from repro.core.preamble import PreambleDetector, PreambleGenerator


@pytest.fixture(scope="module")
def generator():
    return PreambleGenerator()


@pytest.fixture(scope="module")
def detector(generator):
    return PreambleDetector(generator)


def test_preamble_dimensions(generator):
    config = OFDMConfig()
    assert generator.num_symbols == 8
    assert generator.symbol_length == config.extended_symbol_length
    assert generator.total_length == 8 * config.extended_symbol_length
    assert generator.waveform().size == generator.total_length
    assert generator.duration_s == pytest.approx(generator.total_length / 48000.0)


def test_preamble_symbols_follow_pn_signs(generator):
    base = generator.base_symbol()
    waveform = generator.waveform()
    for i, sign in enumerate(PREAMBLE_PN_SIGNS):
        segment = waveform[i * base.size:(i + 1) * base.size]
        np.testing.assert_allclose(segment, sign * base)


def test_generator_returns_cached_read_only_arrays():
    # Detection and packet loops call these per packet: they must not pay a
    # fresh OFDM modulation (or even an allocation) each time.
    generator = PreambleGenerator()
    assert generator.waveform() is generator.waveform()
    assert generator.base_symbol() is generator.base_symbol()
    assert not generator.waveform().flags.writeable
    assert not generator.base_symbol().flags.writeable


def test_reference_bin_values_are_unit_magnitude(generator):
    np.testing.assert_allclose(np.abs(generator.reference_bin_values), 1.0)


def test_clean_detection_at_known_offset(detector, generator, rng):
    offset = 3000
    received = np.concatenate([
        np.zeros(offset), generator.waveform(), np.zeros(2000)
    ]) + 0.001 * rng.standard_normal(offset + generator.total_length + 2000)
    detection = detector.detect(received)
    assert detection.detected
    assert abs(detection.start_index - offset) <= SLIDING_CORRELATION_STEP
    assert detection.fine_metric > 0.9


def test_detection_in_moderate_noise(detector, generator, rng):
    offset = 5000
    preamble = generator.waveform()
    noise = rng.standard_normal(offset + preamble.size + 3000)
    received = noise * np.sqrt(np.mean(preamble ** 2)) * 0.5  # ~6 dB SNR
    received[offset:offset + preamble.size] += preamble
    detection = detector.detect(received)
    assert detection.detected
    assert abs(detection.start_index - offset) <= 2 * SLIDING_CORRELATION_STEP


def test_no_detection_on_pure_noise(detector, rng):
    received = rng.standard_normal(20000)
    detection = detector.detect(received)
    assert not detection.detected


def test_no_detection_on_impulsive_noise(detector, rng):
    received = 0.001 * rng.standard_normal(20000)
    received[7000] = 100.0  # a loud click / bubble
    detection = detector.detect(received)
    assert not detection.detected


def test_no_detection_when_buffer_too_short(detector):
    assert not detector.detect(np.zeros(100)).detected


def test_extract_symbols_shape_and_sign_removal(detector, generator):
    offset = 1000
    received = np.concatenate([np.zeros(offset), generator.waveform(), np.zeros(100)])
    symbols = detector.extract_symbols(received, offset)
    config = generator.ofdm_config
    assert symbols.shape == (8, config.symbol_length)
    # After sign removal all eight symbols should be identical.
    for i in range(1, 8):
        np.testing.assert_allclose(symbols[i], symbols[0], atol=1e-12)


def test_extract_symbols_out_of_range(detector, generator):
    with pytest.raises(ValueError):
        detector.extract_symbols(np.zeros(generator.total_length), 10)


def test_detection_survives_amplitude_scaling(detector, generator):
    """The normalized metric should not depend on the absolute level."""
    offset = 2000
    received = np.concatenate([np.zeros(offset), 1e-3 * generator.waveform(), np.zeros(1000)])
    received = received + 1e-6 * np.random.default_rng(0).standard_normal(received.size)
    detection = detector.detect(received)
    assert detection.detected
    assert detection.fine_metric > 0.9
