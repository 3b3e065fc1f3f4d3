"""Tests for :class:`repro.link.session.LinkStatistics` over a changing packet list."""

import pytest

from repro.link.session import LinkStatistics, PacketResult


def _packet(delivered: bool, bit_errors: int) -> PacketResult:
    return PacketResult(delivered, True, True, True, None, None,
                        bit_errors, 16, bit_errors, 24, 800.0, 12.0, 0.95)


def test_link_statistics_cache_invalidates_on_add():
    stats = LinkStatistics()
    stats.add(_packet(True, 0))
    assert stats.packet_error_rate == pytest.approx(0.0)
    stats.add(_packet(False, 3))
    assert stats.packet_error_rate == pytest.approx(0.5)
    assert stats.payload_bit_error_rate == pytest.approx(3 / 32)


def test_link_statistics_cache_invalidates_on_tail_replacement():
    stats = LinkStatistics([_packet(True, 0), _packet(True, 0)])
    assert stats.packet_error_rate == pytest.approx(0.0)
    stats.results[-1] = _packet(False, 5)
    assert stats.packet_error_rate == pytest.approx(0.5)
    stats.results.pop()
    assert stats.packet_error_rate == pytest.approx(0.0)


def test_link_statistics_cache_survives_pop_then_append():
    stats = LinkStatistics([_packet(True, 0)])
    assert stats.packet_error_rate == pytest.approx(0.0)
    stats.results.pop()
    stats.results.append(_packet(False, 16))
    assert stats.packet_error_rate == pytest.approx(1.0)


def test_link_statistics_sees_interior_replacement():
    stats = LinkStatistics([_packet(True, 0), _packet(True, 0), _packet(True, 0)])
    assert stats.packet_error_rate == 0.0
    stats.results[1] = _packet(False, 4)
    assert stats.packet_error_rate == 1 / 3
    assert stats.payload_bit_error_rate == 4 / 48
