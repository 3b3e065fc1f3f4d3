"""Integration tests: full protocol exchanges across the simulated testbed.

These tests exercise the complete chain the paper describes -- modem,
adaptation protocol, channel, environments, application layer -- rather than
individual modules, using small packet counts so the suite stays fast.
"""

import numpy as np

from repro.app.codec import MessageCodec
from repro.app.messenger import Messenger
from repro.app.sos import SosBeaconService
from repro.channel.motion import FAST_MOTION
from repro.core.baselines import FIXED_FULL_BAND
from repro.core.config import OFDMConfig
from repro.core.modem import AquaModem
from repro.environments.factory import build_channel, build_link_pair
from repro.environments.sites import BEACH, BRIDGE, LAKE
from repro.link.session import LinkSession


def test_full_adaptive_exchange_at_bridge():
    forward, backward = build_link_pair(site=BRIDGE, distance_m=5.0, seed=101)
    session = LinkSession(forward, backward, seed=101)
    stats = session.run_packets(4)
    assert stats.preamble_detection_rate == 1.0
    assert stats.packet_error_rate <= 0.25
    assert stats.median_bitrate_bps > 300.0


def test_adaptive_beats_fixed_full_band_at_lake_20m():
    """The headline claim: adaptation keeps PER low where fixed bands fail."""
    adaptive_errors = 0
    fixed_errors = 0
    trials = 6
    for i in range(trials):
        fwd, bwd = build_link_pair(site=LAKE, distance_m=20.0, seed=300 + i)
        adaptive = LinkSession(fwd, bwd, seed=1).run_packet()
        fwd2, bwd2 = build_link_pair(site=LAKE, distance_m=20.0, seed=300 + i)
        fixed = LinkSession(fwd2, bwd2, scheme=FIXED_FULL_BAND, seed=1).run_packet()
        adaptive_errors += int(not adaptive.delivered)
        fixed_errors += int(not fixed.delivered)
    assert adaptive_errors <= fixed_errors
    assert adaptive_errors <= trials // 2


def test_bitrate_decreases_with_distance_at_lake():
    rates = []
    for distance in (5.0, 20.0):
        fwd, bwd = build_link_pair(site=LAKE, distance_m=distance, seed=77)
        stats = LinkSession(fwd, bwd, seed=3).run_packets(4)
        rates.append(stats.median_bitrate_bps)
    assert rates[1] < rates[0]


def test_mobility_still_delivers_packets():
    fwd, bwd = build_link_pair(site=LAKE, distance_m=5.0, motion=FAST_MOTION, seed=55)
    stats = LinkSession(fwd, bwd, seed=5).run_packets(4)
    assert stats.preamble_detection_rate >= 0.75
    assert stats.packet_error_rate <= 0.5


def test_hand_signal_message_end_to_end():
    channel = build_channel(site=BRIDGE, distance_m=5.0, seed=88)
    session = LinkSession(channel, seed=88)
    messenger = Messenger(session, max_retransmissions=2, seed=88)
    report = messenger.send_message_ids([17, 203])
    assert report.attempts <= 3
    assert report.success
    assert [m.message_id for m in report.delivered] == [17, 203]


def test_sos_beacon_long_range_at_beach():
    channel = build_channel(site=BEACH, distance_m=100.0, seed=99)
    service = SosBeaconService(channel, bit_rate_bps=5, seed=99)
    receptions = service.broadcast_many(user_id=13, repetitions=3)
    total_errors = sum(r.bit_errors for r in receptions)
    assert total_errors <= 1  # <1 % BER at 5 bps in the paper; allow one flip here


def test_protocol_works_with_25hz_subcarrier_spacing():
    """Fig. 17 configuration: halving the spacing doubles the bin count."""
    modem = AquaModem(ofdm_config=OFDMConfig().with_subcarrier_spacing(25.0))
    fwd, bwd = build_link_pair(site=LAKE, distance_m=5.0, seed=123)
    session = LinkSession(fwd, bwd, modem=modem, seed=123)
    result = session.run_packet()
    assert result.preamble_detected
    assert result.receiver_band is not None


def test_channel_stability_probe_static_vs_motion():
    static_fwd, _ = build_link_pair(site=LAKE, distance_m=10.0, seed=31)
    moving_fwd, _ = build_link_pair(site=LAKE, distance_m=10.0, motion=FAST_MOTION, seed=31)
    static_session = LinkSession(static_fwd, seed=1)
    moving_session = LinkSession(moving_fwd, seed=1)
    static_probes = [static_session.probe_channel_stability() for _ in range(3)]
    moving_probes = [moving_session.probe_channel_stability() for _ in range(3)]
    static_probes = [p for p in static_probes if np.isfinite(p)]
    moving_probes = [p for p in moving_probes if np.isfinite(p)]
    assert static_probes and moving_probes
    # With only a handful of probes this is a smoke check: both configurations
    # produce sensible finite values and motion does not massively *improve*
    # the worst-case in-band SNR (the statistical comparison is the Fig. 16
    # spec ``channel_stability`` of repro.validation.figures).
    assert np.mean(moving_probes) <= np.mean(static_probes) + 6.0


def test_message_codec_consistency_with_protocol_payload():
    assert MessageCodec().payload_bits == AquaModem().protocol_config.payload_bits
