"""Tests for the hand-signal catalog and the message codec."""

import numpy as np
import pytest

from repro.app.codec import EMPTY_SLOT, MessageCodec
from repro.app.messages import (
    CATEGORIES,
    COMMON_MESSAGE_IDS,
    MESSAGE_CATALOG,
    get_message,
)


# ------------------------------------------------------------------ catalog
def test_catalog_has_exactly_240_messages():
    assert len(MESSAGE_CATALOG) == 240


def test_catalog_has_eight_categories():
    assert len(CATEGORIES) == 8
    assert {m.category for m in MESSAGE_CATALOG} == set(CATEGORIES)


def test_message_ids_are_stable_and_dense():
    ids = [m.message_id for m in MESSAGE_CATALOG]
    assert ids == list(range(240))


def test_twenty_common_messages():
    assert len(COMMON_MESSAGE_IDS) == 20
    common = [m for m in MESSAGE_CATALOG if m.is_common]
    assert len(common) == 20
    assert {m.message_id for m in common} == set(COMMON_MESSAGE_IDS)


def test_message_texts_are_unique_and_nonempty():
    texts = [m.text for m in MESSAGE_CATALOG]
    assert len(set(texts)) == len(texts)
    assert all(t.strip() for t in texts)


def test_messages_in_category():
    for category in CATEGORIES:
        assert sum(m.category == category for m in MESSAGE_CATALOG) == 30


def test_get_message_bounds():
    assert get_message(0).message_id == 0
    assert get_message(239).message_id == 239
    with pytest.raises(ValueError):
        get_message(240)
    with pytest.raises(ValueError):
        get_message(-1)


def test_every_id_fits_in_eight_bits():
    assert all(0 <= m.message_id < 256 for m in MESSAGE_CATALOG)


# -------------------------------------------------------------------- codec
def test_codec_payload_size_matches_packet():
    assert MessageCodec().payload_bits == 16


def test_single_message_roundtrip():
    codec = MessageCodec()
    bits = codec.encode_ids([42])
    assert bits.size == 16
    assert codec.decode_ids(bits) == [42]


def test_two_message_roundtrip():
    codec = MessageCodec()
    bits = codec.encode_ids([3, 197])
    assert codec.decode_ids(bits) == [3, 197]


def test_all_ids_roundtrip():
    codec = MessageCodec()
    for message_id in range(0, 240, 13):
        assert codec.decode_ids(codec.encode_ids([message_id]))[0] == message_id


def test_empty_slot_value_not_a_catalog_id():
    assert EMPTY_SLOT >= len(MESSAGE_CATALOG)


def test_decode_messages_skips_invalid_ids():
    codec = MessageCodec()
    bits = codec.encode_ids([10])
    # Corrupt the second (empty) slot into an out-of-range value that is not 255.
    corrupted = bits.copy()
    corrupted[8:16] = [1, 1, 1, 1, 0, 1, 0, 1]  # 245
    decoded = codec.decode_messages(corrupted)
    assert [m.message_id for m in decoded] == [10]


def test_encode_validations():
    codec = MessageCodec()
    with pytest.raises(ValueError):
        codec.encode_ids([])
    with pytest.raises(ValueError):
        codec.encode_ids([1, 2, 3])
    with pytest.raises(ValueError):
        codec.encode_ids([400])


def test_decode_validates_length():
    with pytest.raises(ValueError):
        MessageCodec().decode_ids(np.zeros(8, dtype=int))
