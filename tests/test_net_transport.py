"""Tests for the sliding-window ARQ state machines.

The sender/receiver pairs are driven directly (no simulator), with time
fed explicitly, which is what makes the timeout/retransmission paths --
window wraparound, duplicate-ACK suppression, max-retry exhaustion --
deterministic to assert on.
"""

import pytest

from repro.net.transport import ArqConfig, ArqReceiver, ArqSender, Segment


def _gbn(window=3, modulus=4, timeout=1.0, retries=2) -> ArqConfig:
    return ArqConfig(window_size=window, seq_modulus=modulus, timeout_s=timeout,
                     max_retries=retries, mode="go-back-n")


def _sr(window=3, modulus=8, timeout=1.0, retries=2) -> ArqConfig:
    return ArqConfig(window_size=window, seq_modulus=modulus, timeout_s=timeout,
                     max_retries=retries, mode="selective-repeat")


def _pair(config, payloads):
    sender = ArqSender("f", config)
    for payload in payloads:
        sender.offer(payload)
    return sender, ArqReceiver("f", config)


def _run_lossless(sender, receiver, rounds=100):
    """Ferry segments and acks with no loss until the flow completes."""
    now = 0.0
    for _ in range(rounds):
        if sender.done:
            break
        for segment in sender.window_transmissions(now):
            _, ack = receiver.on_data(segment)
            sender.on_ack(ack, now)
        now += 0.1
    return now


# ------------------------------------------------------------- configuration
def test_config_validation():
    with pytest.raises(ValueError):
        ArqConfig(mode="stop-and-wait")
    with pytest.raises(ValueError):
        ArqConfig(window_size=0)
    with pytest.raises(ValueError):
        ArqConfig(mode="go-back-n", window_size=4, seq_modulus=4)
    with pytest.raises(ValueError):
        ArqConfig(mode="selective-repeat", window_size=4, seq_modulus=7)
    with pytest.raises(ValueError):
        ArqConfig(timeout_s=0.0)
    with pytest.raises(ValueError):
        ArqConfig(max_retries=-1)


# ---------------------------------------------------------------- Go-Back-N
def test_gbn_window_limits_in_flight():
    sender, _ = _pair(_gbn(window=3), list(range(10)))
    first = sender.window_transmissions(0.0)
    assert [segment.seq for segment in first] == [0, 1, 2]
    # The window is full: nothing more until an ACK arrives.
    assert sender.window_transmissions(0.0) == []
    # All three are outstanding: the timeout resends every one of them.
    assert [segment.seq for segment in sender.on_timeout(1.0)] == [0, 1, 2]


def test_gbn_in_order_delivery_with_window_wraparound():
    # 10 payloads through a modulus-4 sequence space: the window wraps
    # twice and delivery must stay in order with no retransmissions.
    sender, receiver = _pair(_gbn(window=3, modulus=4), list(range(10)))
    _run_lossless(sender, receiver)
    assert sender.done
    assert receiver.delivered == list(range(10))
    assert sender.stats.data_transmissions == 10
    assert sender.stats.retransmissions == 0
    assert receiver.stats.delivered_in_order == 10


def test_gbn_cumulative_ack_advances_past_several_segments():
    sender, receiver = _pair(_gbn(window=3), list(range(3)))
    segments = sender.window_transmissions(0.0)
    for segment in segments[:-1]:
        receiver.on_data(segment)
    _, last_ack = receiver.on_data(segments[-1])
    assert last_ack.seq == 3 % 4  # next expected
    sender.on_ack(last_ack, 0.1)  # one cumulative ACK clears the window
    assert sender.done
    assert sender.on_timeout(100.0) == []  # nothing left outstanding


def test_gbn_receiver_discards_out_of_order_and_reacks():
    sender, receiver = _pair(_gbn(window=3), list(range(3)))
    seg0, seg1, seg2 = sender.window_transmissions(0.0)
    delivered, ack = receiver.on_data(seg1)  # seg0 lost
    assert delivered == []
    assert ack.seq == 0  # still waiting for seq 0
    delivered, ack = receiver.on_data(seg2)
    assert delivered == []
    assert ack.seq == 0
    delivered, _ = receiver.on_data(seg0)
    assert delivered == [0]  # GBN buffers nothing: 1 and 2 must be resent
    assert receiver.delivered == [0]


def test_gbn_duplicate_ack_suppression_and_single_fast_retransmit():
    sender, receiver = _pair(_gbn(window=3), list(range(3)))
    seg0, seg1, seg2 = sender.window_transmissions(0.0)
    _, dup1 = receiver.on_data(seg1)
    _, dup2 = receiver.on_data(seg2)
    assert sender.on_ack(dup1, 0.1) == []  # first duplicate: counted only
    assert sender.on_ack(dup2, 0.2) == []  # second duplicate: counted only
    assert sender.stats.duplicate_acks == 2
    assert sender.stats.fast_retransmits == 0
    retrans = sender.on_ack(Segment("f", 0, "ack"), 0.3)  # third duplicate
    assert [segment.seq for segment in retrans] == [0]
    assert sender.stats.fast_retransmits == 1
    # Further duplicates are suppressed: no second fast retransmit.
    assert sender.on_ack(Segment("f", 0, "ack"), 0.4) == []
    assert sender.stats.duplicate_acks == 4
    assert sender.stats.fast_retransmits == 1
    # Delivering the retransmitted base unblocks the flow.
    delivered, ack = receiver.on_data(retrans[0])
    assert delivered == [0]
    sender.on_ack(ack, 0.5)
    assert sender.base_seq == 1
    assert sender.stats.duplicate_acks == 4  # genuine ACK, not a duplicate


def test_gbn_timeout_resends_whole_window():
    sender, _ = _pair(_gbn(window=3, timeout=1.0), list(range(5)))
    sender.window_transmissions(0.0)
    assert sender.next_timeout_s() == pytest.approx(1.0)
    assert sender.on_timeout(0.5) == []  # not due yet
    resent = sender.on_timeout(1.0)
    assert [segment.seq for segment in resent] == [0, 1, 2]
    assert sender.stats.timeouts == 1
    assert sender.stats.retransmissions == 3


def test_gbn_max_retry_exhaustion_aborts_the_flow():
    sender, _ = _pair(_gbn(window=2, timeout=1.0, retries=2), list(range(2)))
    sender.window_transmissions(0.0)
    assert len(sender.on_timeout(1.0)) == 2   # retry 1
    assert len(sender.on_timeout(2.0)) == 2   # retry 2
    assert sender.on_timeout(3.0) == []       # retries exhausted
    assert sender.failed
    assert not sender.done
    assert sender.window_transmissions(3.0) == []
    assert sender.next_timeout_s() is None
    assert sender.on_ack(Segment("f", 1, "ack"), 3.0) == []


def test_gbn_receiver_counts_duplicate_data():
    sender, receiver = _pair(_gbn(window=3), list(range(2)))
    seg0, seg1 = sender.window_transmissions(0.0)
    receiver.on_data(seg0)
    delivered, ack = receiver.on_data(seg0)  # retransmitted copy
    assert delivered == []
    assert ack.seq == 1
    assert receiver.stats.duplicates_received == 1


# ---------------------------------------------------------- selective repeat
def test_sr_in_order_delivery_with_window_wraparound():
    sender, receiver = _pair(_sr(window=4, modulus=8), list(range(20)))
    _run_lossless(sender, receiver)
    assert sender.done
    assert receiver.delivered == list(range(20))
    assert sender.stats.retransmissions == 0


def test_sr_buffers_out_of_order_and_delivers_in_order():
    sender, receiver = _pair(_sr(window=3), list(range(3)))
    seg0, seg1, seg2 = sender.window_transmissions(0.0)
    delivered, ack2 = receiver.on_data(seg2)  # arrives first
    assert delivered == []
    assert ack2.seq == 2
    delivered, ack1 = receiver.on_data(seg1)
    assert delivered == []
    assert set(ack1.sack) == {1, 2}
    delivered, _ = receiver.on_data(seg0)
    assert delivered == [0, 1, 2]  # the buffered tail flushes at once
    assert receiver.delivered == [0, 1, 2]


def test_sr_retransmits_only_the_lost_segment():
    sender, receiver = _pair(_sr(window=3, timeout=1.0), list(range(3)))
    seg0, seg1, seg2 = sender.window_transmissions(0.0)
    for segment in (seg0, seg2):  # seg1 lost
        _, ack = receiver.on_data(segment)
        sender.on_ack(ack, 0.1)
    assert sender.base_seq == 1  # base waits on the hole
    resent = sender.on_timeout(1.1)
    assert [segment.seq for segment in resent] == [1]  # 0 and 2 are not resent
    assert sender.stats.retransmissions == 1
    delivered, ack = receiver.on_data(resent[0])
    assert delivered == [1, 2]
    sender.on_ack(ack, 1.2)
    assert sender.done


def test_sr_sack_acknowledges_buffered_segments():
    sender, receiver = _pair(_sr(window=3, timeout=1.0), list(range(3)))
    seg0, seg1, seg2 = sender.window_transmissions(0.0)
    _, ack2 = receiver.on_data(seg2)
    # The individual ack for 2 also lists it in the SACK; either way the
    # sender must not resend 2 on timeout.
    sender.on_ack(ack2, 0.1)
    resent = sender.on_timeout(1.1)
    assert sorted(segment.seq for segment in resent) == [0, 1]


def test_sr_duplicate_data_is_reacked_for_lost_acks():
    sender, receiver = _pair(_sr(window=3), list(range(3)))
    seg0, _, _ = sender.window_transmissions(0.0)
    receiver.on_data(seg0)
    delivered, ack = receiver.on_data(seg0)  # the ACK was lost; copy returns
    assert delivered == []
    assert ack.seq == 0
    assert receiver.stats.duplicates_received == 1
    sender.on_ack(ack, 0.1)
    assert sender.base_seq == 1


def test_sr_duplicate_acks_are_counted_and_harmless():
    sender, receiver = _pair(_sr(window=3), list(range(2)))
    seg0, _ = sender.window_transmissions(0.0)
    _, ack = receiver.on_data(seg0)
    assert sender.on_ack(ack, 0.1) == []
    sender.on_ack(ack, 0.2)  # duplicate
    assert sender.stats.duplicate_acks == 1


def test_sr_max_retry_exhaustion_aborts_the_flow():
    sender, _ = _pair(_sr(window=2, timeout=1.0, retries=1), list(range(2)))
    sender.window_transmissions(0.0)
    assert len(sender.on_timeout(1.0)) == 2
    assert sender.on_timeout(2.0) == []
    assert sender.failed


def test_sender_done_and_offer_after_start():
    sender, receiver = _pair(_gbn(), [0])
    assert not sender.done
    _run_lossless(sender, receiver)
    assert sender.done
    sender.offer(1)  # streaming: more payloads re-open the window
    assert not sender.done
    _run_lossless(sender, receiver)
    assert sender.done
    assert receiver.delivered == [0, 1]


def test_receiver_rejects_ack_segments():
    receiver = ArqReceiver("f", _gbn())
    with pytest.raises(ValueError):
        receiver.on_data(Segment("f", 0, "ack"))
