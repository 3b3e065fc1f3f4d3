"""High-level messaging API: send hand-signal messages over a link session.

:class:`Messenger` is what the example applications use: it wraps a
:class:`~repro.link.session.LinkSession` (which in turn wraps the modem and
the simulated channels) and exposes "send these messages to my buddy"
semantics with per-message delivery reports and simple retransmission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.app.codec import MessageCodec
from repro.app.messages import HandSignalMessage, get_message
from repro.link.session import LinkSession, PacketResult
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MessageDeliveryReport:
    """Outcome of sending one packet worth of messages.

    Attributes
    ----------
    requested:
        The messages the sender asked to transmit.
    delivered:
        The messages the receiver decoded (empty if the packet was lost).
    success:
        Whether every requested message was decoded correctly.
    attempts:
        Number of transmissions used (1 unless retransmission kicked in).
    bitrate_bps:
        Coded bitrate selected for the (last) attempt.
    packet_result:
        Raw link-layer result of the last attempt.
    """

    requested: tuple[HandSignalMessage, ...]
    delivered: tuple[HandSignalMessage, ...]
    success: bool
    attempts: int
    bitrate_bps: float
    packet_result: PacketResult

    @property
    def latency_estimate_s(self) -> float:
        """Rough airtime estimate of the (successful) message transfer."""
        if not np.isfinite(self.bitrate_bps) or self.bitrate_bps <= 0:
            return float("nan")
        return self.packet_result.num_payload_bits / self.bitrate_bps


class Messenger:
    """Sends hand-signal messages between two simulated devices."""

    def __init__(
        self,
        session: LinkSession,
        max_retransmissions: int = 1,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative")
        self.session = session
        self.codec = MessageCodec()
        self.max_retransmissions = int(max_retransmissions)
        self._rng = ensure_rng(seed)
        if session.payload_bits != self.codec.payload_bits:
            raise ValueError(
                "the link session payload size must match the message codec "
                f"({self.codec.payload_bits} bits)"
            )

    def send_message_ids(self, message_ids: list[int]) -> MessageDeliveryReport:
        """Send one packet carrying up to two message identifiers."""
        requested = tuple(get_message(i) for i in message_ids)
        payload = self.codec.encode_ids(message_ids)
        attempts = 0
        result: PacketResult | None = None
        decoded: list[HandSignalMessage] = []
        while attempts <= self.max_retransmissions:
            attempts += 1
            result = self.session.run_packet(payload=payload, rng=self._rng)
            if result.delivered:
                decoded = requested_list = list(requested)
                break
        assert result is not None
        success = result.delivered
        if not success:
            decoded = []
        return MessageDeliveryReport(
            requested=requested,
            delivered=tuple(decoded),
            success=success,
            attempts=attempts,
            bitrate_bps=result.coded_bitrate_bps,
            packet_result=result,
        )
