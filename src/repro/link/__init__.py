"""Link layer: full protocol exchanges over simulated channels.

:class:`~repro.link.session.LinkSession` runs the complete post-preamble
feedback protocol of Fig. 5 between a transmitter (Alice) and a receiver
(Bob) across a forward and a backward simulated channel, and collects the
statistics the paper's evaluation reports (selected bitrate, packet error
rate, coded-stream bit error rate, preamble detection rate, feedback error
rate) in a :class:`~repro.link.session.LinkStatistics`.
"""

from repro.link.session import LinkSession, LinkStatistics, PacketResult

__all__ = [
    "LinkSession",
    "LinkStatistics",
    "PacketResult",
]
