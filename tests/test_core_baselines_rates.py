"""Tests for the fixed-band baselines and bitrate accounting."""

import pytest

from repro.core.baselines import (
    FIXED_BAND_SCHEMES,
    FIXED_FULL_BAND,
    FIXED_MEDIUM_BAND,
    FIXED_NARROW_BAND,
)
from repro.core.adaptation import selection_from_bins
from repro.core.config import OFDMConfig
from repro.core.rates import (
    bitrate_for_selection,
    coded_bitrate_bps,
    message_latency_s,
    packet_airtime_s,
)


CONFIG = OFDMConfig()


def test_three_baselines_defined():
    assert len(FIXED_BAND_SCHEMES) == 3
    names = [s.name for s in FIXED_BAND_SCHEMES]
    assert any("3 kHz" in n for n in names)
    assert any("1.5 kHz" in n for n in names)
    assert any("0.5 kHz" in n for n in names)


def test_full_band_scheme_covers_all_data_bins():
    band = FIXED_FULL_BAND.selection(CONFIG)
    assert band.num_bins == 60
    assert band.start_bin == CONFIG.first_data_bin
    assert band.end_bin == CONFIG.last_data_bin


def test_medium_and_narrow_bin_counts_match_paper():
    # The paper quotes 60, 30 and 10 OFDM bins for the three schemes.
    assert FIXED_MEDIUM_BAND.selection(CONFIG).num_bins == 30
    assert FIXED_NARROW_BAND.selection(CONFIG).num_bins == 10


def test_bandwidth_property():
    assert FIXED_FULL_BAND.high_hz - FIXED_FULL_BAND.low_hz == pytest.approx(3000.0)
    assert FIXED_NARROW_BAND.high_hz - FIXED_NARROW_BAND.low_hz == pytest.approx(500.0)


def test_coded_bitrate_values_match_paper_medians():
    # 4 bins -> 133.3 bps, 19 bins -> 633.3 bps: the medians quoted in Fig. 12.
    assert coded_bitrate_bps(4) == pytest.approx(133.33, rel=1e-3)
    assert coded_bitrate_bps(19) == pytest.approx(633.33, rel=1e-3)
    assert coded_bitrate_bps(60) == pytest.approx(2000.0, rel=1e-3)


def test_coded_bitrate_with_prefix_overhead_near_1_8_kbps():
    # On air, each symbol also carries its cyclic prefix.
    rate = coded_bitrate_bps(60) / (
        CONFIG.subcarrier_spacing_hz * CONFIG.extended_symbol_duration_s
    )
    assert 1800 < rate < 1900


def test_bitrate_for_selection_consistency():
    band = selection_from_bins(30, 48, CONFIG)
    assert bitrate_for_selection(band) == pytest.approx(coded_bitrate_bps(19))


def test_coded_bitrate_rejects_zero_bins():
    with pytest.raises(ValueError):
        coded_bitrate_bps(0)


def test_packet_airtime_scales_with_band_width():
    narrow = packet_airtime_s(16, 4)
    wide = packet_airtime_s(16, 60)
    assert narrow > wide
    # Even the widest-band exchange takes several OFDM symbols of overhead.
    assert wide > 10 * CONFIG.extended_symbol_duration_s


def test_message_latency_examples_from_paper():
    # An 8-bit message (12 coded bits) at 25 bps takes about half a second.
    assert message_latency_s(12, 25.0) == pytest.approx(0.48, abs=0.05)
    # A 50-character (400-bit) message at 1 kbps takes about half a second.
    assert message_latency_s(400, 1000.0) == pytest.approx(0.4, abs=0.05)


def test_message_latency_validation():
    with pytest.raises(ValueError):
        message_latency_s(0, 100.0)
    with pytest.raises(ValueError):
        message_latency_s(10, 0.0)
