"""Tests for the link-layer protocol session."""

import numpy as np
import pytest

from repro.core.baselines import FIXED_BAND_SCHEMES, FIXED_FULL_BAND, FIXED_NARROW_BAND
from repro.core.feedback import FeedbackDecodeResult
from repro.core.preamble import PreambleDetection
from repro.link.session import LinkSession, LinkStatistics, PacketResult


@pytest.fixture
def quiet_session(quiet_channel):
    return LinkSession(quiet_channel, seed=5)


def test_adaptive_packet_delivery_on_quiet_channel(quiet_session):
    results = [quiet_session.run_packet() for _ in range(3)]
    assert all(isinstance(r, PacketResult) for r in results)
    assert all(r.preamble_detected for r in results)
    assert all(r.feedback_ok for r in results)
    # On a short quiet link the large majority of packets must get through
    # (the occasional miss comes from a deep fade hitting a feedback tone).
    delivered = [r for r in results if r.delivered]
    assert len(delivered) >= 2
    assert all(r.bit_errors == 0 for r in delivered)
    assert all(r.receiver_band is not None for r in results)
    assert all(r.coded_bitrate_bps > 100.0 for r in results)


def test_adaptive_many_packets_statistics(quiet_session):
    stats = quiet_session.run_packets(5)
    assert stats.num_packets == 5
    assert stats.packet_error_rate <= 0.2
    assert stats.preamble_detection_rate == 1.0
    assert np.isfinite(stats.median_bitrate_bps)
    assert stats.bitrates_bps.size == 5


def test_fixed_scheme_skips_feedback(quiet_channel):
    session = LinkSession(quiet_channel, scheme=FIXED_FULL_BAND, seed=6)
    result = session.run_packet()
    assert result.feedback_ok and result.feedback_exact
    assert result.receiver_band.num_bins == 60
    assert result.transmitter_band.num_bins == 60


def test_fixed_narrow_scheme_band(quiet_channel):
    session = LinkSession(quiet_channel, scheme=FIXED_NARROW_BAND, seed=7)
    result = session.run_packet()
    assert result.receiver_band.num_bins == 10


def test_invalid_scheme_string_rejected(quiet_channel):
    with pytest.raises(ValueError):
        LinkSession(quiet_channel, scheme="bogus")


def test_explicit_payload_is_used(quiet_session):
    payload = np.ones(16, dtype=int)
    result = quiet_session.run_packet(payload=payload)
    assert result.num_payload_bits == 16
    if result.delivered:
        assert result.bit_errors == 0


def test_run_many_validates_count(quiet_session):
    with pytest.raises(ValueError):
        quiet_session.run_packets(0)


def test_noisy_channel_selects_narrower_band(quiet_channel, noisy_channel):
    quiet_stats = LinkSession(quiet_channel, seed=8).run_packets(3)
    noisy_stats = LinkSession(noisy_channel, seed=8).run_packets(3)
    assert noisy_stats.median_bitrate_bps < quiet_stats.median_bitrate_bps


def test_statistics_aggregation_from_results():
    results = [
        PacketResult(True, True, True, True, None, None, 0, 16, 0, 24, 1000.0, 10.0, 0.9),
        PacketResult(False, True, True, True, None, None, 3, 16, 5, 24, 500.0, 4.0, 0.8),
        PacketResult(False, False, False, False, None, None, 16, 16, 24, 24, float("nan"),
                     float("nan"), 0.0),
    ]
    stats = LinkStatistics(results)
    assert stats.num_packets == 3
    assert stats.packet_error_rate == 2 / 3
    assert stats.payload_bit_error_rate == 19 / 48
    assert stats.coded_bit_error_rate == 29 / 72
    assert stats.preamble_detection_rate == 2 / 3
    assert stats.feedback_error_rate == 1 / 3
    # The packet with no known band (NaN bitrate) is left out of the median.
    assert stats.median_bitrate_bps == 750.0
    # A packet added after a read shows up in the next read.
    stats.add(PacketResult(True, True, True, False, None, None, 0, 16, 1, 24, 2000.0, 12.0, 0.95))
    assert stats.num_packets == 4
    assert stats.packet_error_rate == 2 / 4
    assert stats.payload_bit_error_rate == 19 / 64
    assert stats.coded_bit_error_rate == 30 / 96
    assert stats.preamble_detection_rate == 3 / 4
    assert stats.feedback_error_rate == 2 / 4
    assert stats.median_bitrate_bps == 1000.0


def test_empty_statistics_are_nan():
    stats = LinkStatistics()
    assert np.isnan(stats.packet_error_rate)
    assert np.isnan(stats.median_bitrate_bps)
    assert np.isnan(stats.preamble_detection_rate)


def test_channel_stability_probe(quiet_channel):
    session = LinkSession(quiet_channel, seed=9)
    snr = session.probe_channel_stability()
    assert np.isfinite(snr)
    # On a quiet static channel the second preamble should confirm a healthy band.
    assert snr > 0.0


def test_random_payload_size_matches_protocol(quiet_session):
    payload = quiet_session.random_payload()
    assert payload.size == quiet_session.payload_bits == 16
    assert set(np.unique(payload)) <= {0, 1}


def test_min_band_snr_recorded(quiet_session):
    result = quiet_session.run_packet()
    assert np.isfinite(result.min_band_snr_db)


# ------------------------------------------------------------ failure paths
_NO_DETECTION = PreambleDetection(
    detected=False, start_index=-1, coarse_metric=0.0, fine_metric=0.0
)
_NO_FEEDBACK = FeedbackDecodeResult(
    found=False, start_bin=0, end_bin=0, offset=0, peak_power_ratio=0.0
)


def test_undetected_preamble_fails_packet(quiet_session, monkeypatch):
    monkeypatch.setattr(
        quiet_session.modem, "detect_preamble", lambda received: _NO_DETECTION
    )
    result = quiet_session.run_packet()
    assert not result.delivered
    assert not result.preamble_detected
    assert not result.feedback_ok
    assert result.receiver_band is None and result.transmitter_band is None
    # A lost packet counts every payload and coded bit as wrong.
    assert result.bit_errors == result.num_payload_bits == 16
    assert result.coded_bit_errors == result.num_coded_bits
    assert np.isnan(result.coded_bitrate_bps)
    assert np.isnan(result.min_band_snr_db)


def test_lost_feedback_fails_packet(quiet_session, monkeypatch):
    monkeypatch.setattr(
        quiet_session.modem,
        "decode_feedback",
        lambda received, search_start=0, search_stop=None: _NO_FEEDBACK,
    )
    result = quiet_session.run_packet()
    assert not result.delivered
    assert result.preamble_detected
    assert not result.feedback_ok and not result.feedback_exact
    # Bob selected a band, but Alice never learned it.
    assert result.receiver_band is not None
    assert result.transmitter_band is None
    assert np.isfinite(result.min_band_snr_db)
    assert np.isfinite(result.coded_bitrate_bps)


def test_band_mismatch_decode_error_fails_packet(quiet_session, monkeypatch):
    def _raise(received, band, num_payload_bits=None, apply_bandpass=True):
        raise ValueError("burst shorter than the receiver expects")

    monkeypatch.setattr(quiet_session.modem, "decode_data", _raise)
    result = quiet_session.run_packet()
    assert not result.delivered
    assert result.preamble_detected
    assert result.feedback_ok
    assert result.receiver_band is not None
    assert result.detection_metric > 0.0
    assert result.bit_errors == result.num_payload_bits


def test_failure_paths_aggregate_into_statistics(quiet_session, monkeypatch):
    monkeypatch.setattr(
        quiet_session.modem, "detect_preamble", lambda received: _NO_DETECTION
    )
    stats = quiet_session.run_packets(3)
    assert stats.packet_error_rate == 1.0
    assert stats.preamble_detection_rate == 0.0
    assert stats.feedback_error_rate == 1.0
    assert stats.payload_bit_error_rate == 1.0
    assert stats.bitrates_bps.size == 0
    assert np.isnan(stats.median_bitrate_bps)


# ------------------------------------------------------ fixed-band baselines
@pytest.mark.parametrize("scheme", FIXED_BAND_SCHEMES, ids=lambda s: s.name)
def test_fixed_band_schemes_use_their_band(quiet_channel, scheme):
    session = LinkSession(quiet_channel, scheme=scheme, seed=11)
    stats = session.run_packets(2)
    expected = scheme.selection(session.modem.ofdm_config)
    for result in stats.results:
        assert result.receiver_band == expected
        assert result.transmitter_band == expected
    # Baselines need no feedback, so feedback errors are impossible and the
    # bitrate is fixed by the band width.
    assert stats.feedback_error_rate == 0.0
    assert np.unique(stats.bitrates_bps).size == 1
    assert all(np.isnan(r.min_band_snr_db) for r in stats.results)
