"""Tests for the OFDM and protocol configuration objects."""

import numpy as np
import pytest

from repro.core.config import (
    ACK_DOMINANCE_THRESHOLD,
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    CARRIER_SENSE_INTERVAL_S,
    CODE_RATE,
    EQUALIZER_NUM_TAPS,
    NUM_PREAMBLE_SYMBOLS,
    PREAMBLE_PN_SIGNS,
    SAMPLE_RATE_HZ,
    OFDMConfig,
    ProtocolConfig,
)
from repro.fec.convolutional import PuncturedConvolutionalCode


def test_default_matches_paper_parameters():
    config = OFDMConfig()
    assert SAMPLE_RATE_HZ == 48000.0
    assert (BAND_LOW_HZ, BAND_HIGH_HZ) == (1000.0, 4000.0)
    assert config.symbol_length == 960
    assert config.cyclic_prefix_length == 67
    assert config.subcarrier_spacing_hz == pytest.approx(50.0)
    assert config.symbol_duration_s == pytest.approx(0.020)
    assert config.num_data_bins == 60
    assert config.first_data_bin == 20
    assert config.last_data_bin == 79


def test_cyclic_prefix_overhead_close_to_seven_percent():
    config = OFDMConfig()
    overhead = config.cyclic_prefix_length / config.symbol_length
    assert overhead == pytest.approx(0.069, abs=0.002)


def test_data_bin_frequencies_span_band():
    config = OFDMConfig()
    freqs = config.data_bins * config.subcarrier_spacing_hz
    assert freqs[0] == pytest.approx(1000.0)
    assert freqs[-1] == pytest.approx(3950.0)
    assert np.all(np.diff(freqs) == pytest.approx(50.0))


def test_frequency_bin_roundtrip():
    config = OFDMConfig()
    assert config.frequency_to_bin(config.bin_frequency_hz(42)) == 42


def test_with_subcarrier_spacing_25hz():
    config = OFDMConfig().with_subcarrier_spacing(25.0)
    assert config.symbol_length == 1920
    assert config.subcarrier_spacing_hz == pytest.approx(25.0)
    assert config.num_data_bins == 120
    # The cyclic prefix keeps roughly the same fractional overhead.
    assert config.cyclic_prefix_length / config.symbol_length == pytest.approx(67 / 960, rel=0.05)


def test_with_subcarrier_spacing_10hz():
    config = OFDMConfig().with_subcarrier_spacing(10.0)
    assert config.symbol_length == 4800
    assert config.num_data_bins == 300


def test_invalid_configs_raise():
    with pytest.raises(ValueError):
        OFDMConfig(symbol_length=-1)
    with pytest.raises(ValueError):
        OFDMConfig(cyclic_prefix_length=-1)
    with pytest.raises(ValueError):
        OFDMConfig().with_subcarrier_spacing(-5.0)


def test_protocol_defaults_match_paper():
    protocol = ProtocolConfig()
    assert NUM_PREAMBLE_SYMBOLS == 8
    assert PREAMBLE_PN_SIGNS == (-1, 1, 1, 1, 1, 1, -1, 1)
    assert protocol.snr_threshold_db == 7.0
    assert protocol.conservative_lambda == 0.8
    assert EQUALIZER_NUM_TAPS == 480
    assert protocol.payload_bits == 16
    assert CODE_RATE == pytest.approx(2.0 / 3.0)
    assert PuncturedConvolutionalCode.CONSTRAINT_LENGTH == 7
    assert CARRIER_SENSE_INTERVAL_S == pytest.approx(0.08)
    assert ACK_DOMINANCE_THRESHOLD == pytest.approx(0.2)


def test_protocol_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(conservative_lambda=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(snr_threshold_db=-1.0)


def test_pn_signs_array():
    np.testing.assert_array_equal(np.array(PREAMBLE_PN_SIGNS, dtype=float),
                                  np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float))


def test_config_is_hashable_and_frozen():
    config = OFDMConfig()
    with pytest.raises(Exception):
        config.symbol_length = 100  # type: ignore[misc]
    assert hash(config) == hash(OFDMConfig())
