"""Message packing: catalog entries <-> packet bits.

A data packet carries 16 information bits (section 3 of the paper), which
is enough for two 8-bit message identifiers -- "users can choose to send
two hand signals in a single packet".  When only one message is sent the
second slot carries the reserved "no message" value 255.
"""

from __future__ import annotations

import numpy as np

from repro.app.messages import MESSAGE_CATALOG, HandSignalMessage, get_message

#: Value of an empty message slot.
EMPTY_SLOT = 255

#: Bits per message slot.
BITS_PER_MESSAGE = 8

#: Message slots per packet.
SLOTS_PER_PACKET = 2


class MessageCodec:
    """Packs catalog message ids into packet payload bits and back."""

    @property
    def payload_bits(self) -> int:
        """Number of payload bits per packet."""
        return BITS_PER_MESSAGE * SLOTS_PER_PACKET

    # ----------------------------------------------------------------- encode
    def encode_ids(self, message_ids: list[int] | tuple[int, ...]) -> np.ndarray:
        """Encode one or two message identifiers into payload bits."""
        ids = list(message_ids)
        if not 1 <= len(ids) <= SLOTS_PER_PACKET:
            raise ValueError(
                f"a packet carries between 1 and {SLOTS_PER_PACKET} messages, got {len(ids)}"
            )
        for message_id in ids:
            if not 0 <= message_id < len(MESSAGE_CATALOG):
                raise ValueError(f"message id {message_id} outside the catalog")
        while len(ids) < SLOTS_PER_PACKET:
            ids.append(EMPTY_SLOT)
        bits = np.zeros(self.payload_bits, dtype=int)
        for slot, message_id in enumerate(ids):
            for bit in range(BITS_PER_MESSAGE):
                bits[slot * BITS_PER_MESSAGE + bit] = (message_id >> (BITS_PER_MESSAGE - 1 - bit)) & 1
        return bits

    # ----------------------------------------------------------------- decode
    def decode_ids(self, bits: np.ndarray) -> list[int]:
        """Decode payload bits into the carried message identifiers.

        Empty slots (value 255) are dropped; identifiers outside the catalog
        range (a decoding error) are kept so the caller can notice.
        """
        bits = np.asarray(bits, dtype=int).ravel()
        if bits.size != self.payload_bits:
            raise ValueError(f"expected {self.payload_bits} bits, got {bits.size}")
        ids = []
        for slot in range(SLOTS_PER_PACKET):
            value = 0
            for bit in range(BITS_PER_MESSAGE):
                value = (value << 1) | int(bits[slot * BITS_PER_MESSAGE + bit])
            if value != EMPTY_SLOT:
                ids.append(value)
        return ids

    def decode_messages(self, bits: np.ndarray) -> list[HandSignalMessage]:
        """Decode payload bits into catalog entries, skipping invalid ids."""
        return [
            get_message(message_id)
            for message_id in self.decode_ids(bits)
            if 0 <= message_id < len(MESSAGE_CATALOG)
        ]
