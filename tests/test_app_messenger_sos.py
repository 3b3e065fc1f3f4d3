"""Tests for the messenger and SoS beacon applications."""

import pytest

from repro.app.messenger import MessageDeliveryReport, Messenger
from repro.app.sos import SosBeaconService
from repro.link.session import LinkSession


@pytest.fixture
def messenger(quiet_channel):
    session = LinkSession(quiet_channel, seed=21)
    return Messenger(session, seed=21)


def test_send_single_message(messenger):
    report = messenger.send_message_ids([7])
    assert isinstance(report, MessageDeliveryReport)
    assert report.attempts >= 1
    assert len(report.requested) == 1
    if report.success:
        assert [m.message_id for m in report.delivered] == [7]


def test_send_two_messages(messenger):
    report = messenger.send_message_ids([1, 199])
    assert len(report.requested) == 2
    assert report.packet_result.num_payload_bits == 16


def test_latency_estimate_positive_when_delivered(messenger):
    report = messenger.send_message_ids([12])
    if report.success:
        assert report.latency_estimate_s > 0


def test_messenger_requires_matching_payload_size(quiet_channel):
    from repro.core.config import ProtocolConfig

    session = LinkSession(
        quiet_channel,
        modem=__import__("repro.core.modem", fromlist=["AquaModem"]).AquaModem(
            protocol_config=ProtocolConfig(payload_bits=8)
        ),
        seed=1,
    )
    with pytest.raises(ValueError):
        Messenger(session)


def test_messenger_rejects_negative_retransmissions(quiet_channel):
    session = LinkSession(quiet_channel, seed=2)
    with pytest.raises(ValueError):
        Messenger(session, max_retransmissions=-1)


def test_sos_service_roundtrip(quiet_channel):
    service = SosBeaconService(quiet_channel, bit_rate_bps=20, seed=3)
    reception = service.broadcast(user_id=42)
    assert reception.bit_errors == 0
    assert reception.user_id == 42
    assert reception.mean_confidence_db > 3.0


def test_sos_service_duration_accounting(quiet_channel):
    service = SosBeaconService(quiet_channel, bit_rate_bps=10, seed=4)
    assert service.beacon_duration_s == pytest.approx(0.6)


def test_sos_broadcast_many(quiet_channel):
    service = SosBeaconService(quiet_channel, bit_rate_bps=20, seed=5)
    receptions = service.broadcast_many(user_id=9, repetitions=3)
    assert len(receptions) == 3
    assert all(r.user_id == 9 for r in receptions)
    with pytest.raises(ValueError):
        service.broadcast_many(user_id=9, repetitions=0)
