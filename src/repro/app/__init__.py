"""Application layer: the underwater messaging app and SoS beacons.

The paper's app lets a user pick one of 240 predefined messages
(corresponding to professional divers' hand signals, organized into eight
categories with the 20 most common shown prominently), packs two messages
into one 16-bit packet, and can also emit an SoS beacon carrying a 6-bit
user ID at 5-20 bps for long range.
"""

from repro.app.codec import MessageCodec
from repro.app.messages import (
    CATEGORIES,
    COMMON_MESSAGE_IDS,
    MESSAGE_CATALOG,
    HandSignalMessage,
)
from repro.app.messenger import Messenger, MessageDeliveryReport
from repro.app.sos import SosBeaconService, SosReception

__all__ = [
    "HandSignalMessage",
    "MESSAGE_CATALOG",
    "CATEGORIES",
    "COMMON_MESSAGE_IDS",
    "MessageCodec",
    "Messenger",
    "MessageDeliveryReport",
    "SosBeaconService",
    "SosReception",
]
