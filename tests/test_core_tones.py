"""Tests for single-tone device ID / ACK encoding."""

import pytest

from repro.core.config import OFDMConfig
from repro.core.tones import ToneCodec


@pytest.fixture(scope="module")
def codec():
    return ToneCodec()


CONFIG = OFDMConfig()


def test_max_devices_matches_subcarrier_count(codec):
    assert codec.max_devices == 60


def test_ack_bin_is_at_one_kilohertz(codec):
    assert codec.ack_bin == CONFIG.first_data_bin
    assert CONFIG.bin_frequency_hz(codec.ack_bin) == pytest.approx(1000.0)


def test_id_roundtrip_all_values(codec):
    for device_id in range(0, 60, 7):
        symbol = codec.encode_id(device_id)
        result = codec.decode(symbol)
        assert result.value == device_id
        assert result.dominance > 0.95


def test_id_roundtrip_with_noise(codec, rng):
    symbol = codec.encode_id(37)
    noisy = symbol + 0.1 * rng.standard_normal(symbol.size)
    result = codec.decode(noisy)
    assert result.value == 37


def test_ack_roundtrip(codec):
    result = codec.decode(codec.encode_ack())
    assert result.is_ack
    assert result.value == 0


def test_id_zero_is_also_the_ack_bin(codec):
    """Device id 0 and ACK share the 1 kHz bin by construction."""
    result = codec.decode(codec.encode_id(0))
    assert result.is_ack


def test_encode_id_rejects_out_of_range(codec):
    with pytest.raises(ValueError):
        codec.encode_id(-1)
    with pytest.raises(ValueError):
        codec.encode_id(60)


def test_symbol_length(codec):
    assert codec.encode_id(5).size == CONFIG.extended_symbol_length


def test_dominance_degrades_with_heavy_noise(codec, rng):
    symbol = codec.encode_id(10)
    noisy = symbol + 2.0 * rng.standard_normal(symbol.size)
    result = codec.decode(noisy)
    assert result.dominance < 0.9
