"""Reliable transport: sliding-window ARQ over lossy multi-hop paths.

This generalizes the single-packet stop-and-wait retry of
:class:`repro.app.messenger.Messenger` into proper windowed ARQ, in two
flavours selected by :attr:`ArqConfig.mode`:

``"go-back-n"``
    Cumulative ACKs ("next expected sequence"), a single retransmission
    timer on the window base, and full-window retransmission on timeout.
    Duplicate cumulative ACKs are counted and *suppressed*: only the
    third consecutive duplicate triggers one fast retransmit of the base
    segment, further duplicates are ignored until the window moves.

``"selective-repeat"``
    Individual ACKs plus a SACK list of out-of-order segments buffered by
    the receiver, per-segment timers, and per-segment retransmission.

Sequence numbers on the wire are ``absolute_index % seq_modulus``; the
sender and receiver keep absolute counters internally, so window
*wraparound* is exercised constantly rather than being a special case.
Both state machines are pure (no scheduler dependency): the caller feeds
them time explicitly, which is what makes the retransmission/timeout
paths directly unit-testable and lets :class:`~repro.net.simulator.\
NetworkSimulator` drive them from scheduler events.

A segment whose retries exceed :attr:`ArqConfig.max_retries` aborts its
flow (``sender.failed``), mirroring how the messenger gives up on a
packet after ``max_retransmissions``.

The *rate* at which a sender fills its window is delegated to a
:class:`~repro.net.congestion.CongestionController`: the effective
window is ``min(config.window_size, controller.window())`` and segment
deadlines are armed with ``controller.rto_s()``.  The default controller
is :class:`~repro.net.congestion.FixedWindow`, whose window and timeout
are the configured constants and whose hooks are no-ops -- bit-identical
to the pre-congestion-control sender.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.congestion import CongestionController, FixedWindow

#: Consecutive duplicate ACKs that trigger one Go-Back-N fast retransmit.
DUP_ACK_THRESHOLD = 3


@dataclass(frozen=True)
class ArqConfig:
    """Sliding-window parameters of one reliable flow.

    Attributes
    ----------
    window_size:
        Segments allowed in flight.
    seq_modulus:
        Wire sequence-number space.  Go-Back-N needs ``> window_size``;
        selective repeat needs ``>= 2 * window_size`` so a wire sequence
        is unambiguous between the send and receive windows.
    timeout_s:
        Retransmission timeout.
    max_retries:
        Retransmissions allowed per segment before the flow aborts.
    mode:
        ``"go-back-n"`` or ``"selective-repeat"``.
    """

    window_size: int = 4
    seq_modulus: int = 16
    timeout_s: float = 3.0
    max_retries: int = 4
    mode: str = "go-back-n"

    def __post_init__(self) -> None:
        if self.mode not in ("go-back-n", "selective-repeat"):
            raise ValueError(
                f"mode must be 'go-back-n' or 'selective-repeat', got {self.mode!r}"
            )
        if self.window_size < 1:
            raise ValueError("window_size must be at least 1")
        if self.mode == "go-back-n" and self.seq_modulus <= self.window_size:
            raise ValueError("go-back-n needs seq_modulus > window_size")
        if self.mode == "selective-repeat" and self.seq_modulus < 2 * self.window_size:
            raise ValueError("selective repeat needs seq_modulus >= 2 * window_size")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


@dataclass(frozen=True)
class Segment:
    """One transport segment (data or acknowledgement) on the wire.

    Attributes
    ----------
    flow_id:
        Identifies the (source, destination) flow.
    seq:
        Wire sequence number (``absolute_index % seq_modulus``).  For
        ACKs: cumulative "next expected" (Go-Back-N) or the individual
        sequence being acknowledged (selective repeat).
    kind:
        ``"data"`` or ``"ack"``.
    payload:
        Opaque application payload carried by data segments.
    sack:
        Selective repeat only: wire sequences buffered out of order at
        the receiver, acknowledged alongside ``seq``.
    ack_abs:
        Absolute counterpart of an ACK's ``seq`` (next-expected index for
        Go-Back-N, the acknowledged index for selective repeat).  A
        multi-hop network reorders ACKs, so a stale cumulative ACK can
        alias onto the current window when only ``seq mod modulus`` is
        known; carrying the absolute index stands in for the large
        sequence spaces/timestamps real protocols use to disambiguate.
        Senders fall back to wire arithmetic when it is absent.
    sack_abs:
        Absolute counterparts of ``sack``.
    """

    flow_id: str
    seq: int
    kind: str = "data"
    payload: object = None
    sack: tuple[int, ...] = ()
    ack_abs: int | None = None
    sack_abs: tuple[int, ...] = ()


@dataclass
class FlowStats:
    """Counters of one flow endpoint (sender or receiver side)."""

    offered: int = 0
    data_transmissions: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    acks_received: int = 0
    duplicate_acks: int = 0
    fast_retransmits: int = 0
    acks_sent: int = 0
    delivered_in_order: int = 0
    duplicates_received: int = 0
    out_of_order_discarded: int = 0
    out_of_window_dropped: int = 0


@dataclass
class _InFlight:
    """Sender-side bookkeeping of one transmitted, unacknowledged segment."""

    payload: object
    deadline_s: float = 0.0
    retries: int = 0
    acked: bool = False
    #: First-transmission time, for RTT sampling (Karn's rule excludes
    #: segments with ``retries > 0``).
    sent_s: float = 0.0


class ArqSender:
    """Sliding-window sender of one reliable flow.

    ``controller`` plugs a congestion-control algorithm into the window
    and timer arithmetic; without one, a bit-exact
    :class:`~repro.net.congestion.FixedWindow` is built from the config.
    """

    def __init__(
        self,
        flow_id: str,
        config: ArqConfig,
        controller: CongestionController | None = None,
    ) -> None:
        self.flow_id = flow_id
        self.config = config
        self.controller = (
            controller
            if controller is not None
            else FixedWindow(config.window_size, config.timeout_s)
        )
        self.stats = FlowStats()
        self.failed = False
        self._payloads: list[object] = []
        self._base = 0  # absolute index of the oldest unacked segment
        self._next = 0  # absolute index of the next never-sent segment
        self._in_flight: dict[int, _InFlight] = {}
        self._dup_acks = 0
        self._fast_retransmitted = False

    # ------------------------------------------------------------- properties
    @property
    def done(self) -> bool:
        """All offered payloads acknowledged."""
        return not self.failed and self._base == len(self._payloads)

    @property
    def base_seq(self) -> int:
        """Wire sequence of the window base."""
        return self._base % self.config.seq_modulus

    @property
    def effective_window(self) -> int:
        """Segments the flow may currently have in flight.

        The configured ARQ window (the receive buffer / sequence-space
        bound) caps the controller's congestion window, exactly like the
        advertised window caps cwnd in TCP.
        """
        return min(self.config.window_size, self.controller.window())

    def _wire(self, absolute: int) -> int:
        return absolute % self.config.seq_modulus

    # ------------------------------------------------------------------ offer
    def offer(self, payload: object) -> None:
        """Queue one application payload for reliable delivery."""
        self._payloads.append(payload)
        self.stats.offered += 1

    # ------------------------------------------------------------ transmitting
    def window_transmissions(self, now_s: float) -> list[Segment]:
        """First transmissions newly allowed by the window, oldest first."""
        if self.failed:
            return []
        segments: list[Segment] = []
        limit = self._base + self.effective_window
        rto_s = self.controller.rto_s()
        while self._next < min(limit, len(self._payloads)):
            absolute = self._next
            self._in_flight[absolute] = _InFlight(
                payload=self._payloads[absolute],
                deadline_s=now_s + rto_s,
                sent_s=now_s,
            )
            segments.append(
                Segment(self.flow_id, self._wire(absolute), "data",
                        self._payloads[absolute])
            )
            self.stats.data_transmissions += 1
            self._next += 1
        return segments

    def fail(self) -> None:
        """Abort the flow from outside the ARQ state machine.

        Used by the fault layer when the peer is observed dead: the flow
        stops exactly as if its retry budget had been exhausted (no more
        transmissions, no timer deadlines), without burning the budget.
        """
        self.failed = True
        self._in_flight.clear()

    def _retransmit(self, absolute: int, now_s: float) -> Segment | None:
        """Retransmit one in-flight segment, aborting the flow when spent."""
        state = self._in_flight[absolute]
        if state.retries >= self.config.max_retries:
            self.failed = True
            return None
        state.retries += 1
        state.deadline_s = now_s + self.controller.rto_s()
        self.stats.retransmissions += 1
        return Segment(self.flow_id, self._wire(absolute), "data", state.payload)

    # ------------------------------------------------------------------- acks
    def on_ack(self, segment: Segment, now_s: float) -> list[Segment]:
        """Process an ACK; returns any immediate (fast) retransmissions."""
        if self.failed or segment.kind != "ack":
            return []
        self.stats.acks_received += 1
        if self.config.mode == "go-back-n":
            return self._on_cumulative_ack(segment, now_s)
        return self._on_selective_ack(segment, now_s)

    def _on_cumulative_ack(self, segment: Segment, now_s: float) -> list[Segment]:
        outstanding = self._next - self._base
        if segment.ack_abs is not None:
            advance = segment.ack_abs - self._base
        else:
            advance = (segment.seq - self.base_seq) % self.config.seq_modulus
        if 0 < advance <= outstanding:
            # Karn's rule: sample the RTT off the newest acked segment
            # that was never retransmitted (a retransmitted segment's ACK
            # is ambiguous between the transmissions).
            for absolute in range(self._base + advance - 1, self._base - 1, -1):
                state = self._in_flight.get(absolute)
                if state is not None and state.retries == 0:
                    self.controller.on_rtt_sample(now_s - state.sent_s, now_s)
                    break
            for absolute in range(self._base, self._base + advance):
                self._in_flight.pop(absolute, None)
            self._base += advance
            self._dup_acks = 0
            self._fast_retransmitted = False
            self.controller.on_ack(advance, now_s)
            # Restart the single Go-Back-N timer for the new base.
            rto_s = self.controller.rto_s()
            for state in self._in_flight.values():
                state.deadline_s = now_s + rto_s
            return []
        # Duplicate cumulative ACK: count it, suppress all but the one
        # fast retransmit of the base segment at the threshold.
        self.stats.duplicate_acks += 1
        if segment.ack_abs is not None and segment.ack_abs < self._base:
            # A reordered *stale* ACK (older than the cumulative point) is
            # not a loss signal; only true duplicates of the current base
            # count towards fast retransmit.
            return []
        self._dup_acks += 1
        self.controller.on_duplicate_ack(now_s)
        if (
            self._dup_acks >= DUP_ACK_THRESHOLD
            and not self._fast_retransmitted
            and self._base in self._in_flight
        ):
            self._fast_retransmitted = True
            self.stats.fast_retransmits += 1
            self.controller.on_fast_retransmit(now_s)
            segment = self._retransmit(self._base, now_s)
            return [segment] if segment is not None else []
        return []

    def _resolve_wire(self, seq: int) -> int | None:
        """Map a wire sequence to the unacked absolute index it names."""
        for absolute in range(self._base, self._next):
            state = self._in_flight.get(absolute)
            if state is not None and not state.acked and self._wire(absolute) == seq:
                return absolute
        return None

    def _on_selective_ack(self, segment: Segment, now_s: float) -> list[Segment]:
        newly_acked = 0
        if segment.ack_abs is not None:
            acked_absolutes = (segment.ack_abs,) + tuple(segment.sack_abs)
        else:
            acked_absolutes = tuple(
                absolute
                for absolute in map(
                    self._resolve_wire, (segment.seq,) + tuple(segment.sack)
                )
                if absolute is not None
            )
        for absolute in acked_absolutes:
            state = self._in_flight.get(absolute)
            if state is not None and not state.acked:
                state.acked = True
                newly_acked += 1
                if state.retries == 0:
                    # Karn-valid sample per newly acked first transmission.
                    self.controller.on_rtt_sample(now_s - state.sent_s, now_s)
        if not newly_acked:
            self.stats.duplicate_acks += 1
            self.controller.on_duplicate_ack(now_s)
            return []
        self.controller.on_ack(newly_acked, now_s)
        while self._base < self._next:
            state = self._in_flight.get(self._base)
            if state is None or not state.acked:
                break
            del self._in_flight[self._base]
            self._base += 1
        return []

    # ---------------------------------------------------------------- timeouts
    def next_timeout_s(self) -> float | None:
        """Earliest retransmission deadline, or ``None`` when idle."""
        deadlines = [
            state.deadline_s
            for state in self._in_flight.values()
            if not state.acked
        ]
        if self.failed or not deadlines:
            return None
        return min(deadlines)

    def on_timeout(self, now_s: float) -> list[Segment]:
        """Retransmissions due at ``now_s`` (empty when none are due)."""
        if self.failed:
            return []
        due = [
            absolute
            for absolute, state in sorted(self._in_flight.items())
            if not state.acked and state.deadline_s <= now_s + 1e-12
        ]
        if not due:
            return []
        self.stats.timeouts += 1
        self.controller.on_timeout(now_s)
        segments: list[Segment] = []
        if self.config.mode == "go-back-n":
            # One timer, whole *allowed* window: resend the oldest
            # outstanding segments up to the post-timeout window.  With
            # the fixed controller that window equals the configured one,
            # which always covers everything outstanding -- the legacy
            # resend-all behaviour.  A Reno controller collapses to one
            # segment, so a timeout retransmits only the base (classic
            # TCP) instead of re-flooding a congested channel.
            allowed = max(1, self.effective_window)
            for absolute in sorted(self._in_flight)[:allowed]:
                segment = self._retransmit(absolute, now_s)
                if segment is None:
                    return segments
                segments.append(segment)
            return segments
        for absolute in due:
            segment = self._retransmit(absolute, now_s)
            if segment is None:
                return segments
            segments.append(segment)
        return segments


class ArqReceiver:
    """Receive-side state machine of one reliable flow."""

    def __init__(self, flow_id: str, config: ArqConfig) -> None:
        self.flow_id = flow_id
        self.config = config
        self.stats = FlowStats()
        self.delivered: list[object] = []
        self._expected = 0  # absolute index of the next in-order segment
        self._buffer: dict[int, object] = {}  # selective repeat reordering

    @property
    def expected_seq(self) -> int:
        """Wire sequence the receiver needs next."""
        return self._expected % self.config.seq_modulus

    def on_data(self, segment: Segment) -> tuple[list[object], Segment]:
        """Process a data segment; returns (newly delivered payloads, ACK)."""
        if segment.kind != "data":
            raise ValueError(f"expected a data segment, got {segment.kind!r}")
        if self.config.mode == "go-back-n":
            delivered = self._on_data_gbn(segment)
            ack = Segment(
                self.flow_id, self.expected_seq, "ack", ack_abs=self._expected
            )
        else:
            delivered, ack = self._on_data_sr(segment)
        self.stats.acks_sent += 1
        return delivered, ack

    def _on_data_gbn(self, segment: Segment) -> list[object]:
        if segment.seq == self.expected_seq:
            self._expected += 1
            self.delivered.append(segment.payload)
            self.stats.delivered_in_order += 1
            return [segment.payload]
        behind = (self.expected_seq - segment.seq) % self.config.seq_modulus
        ahead = (segment.seq - self.expected_seq) % self.config.seq_modulus
        if 0 < behind <= self.config.window_size:
            # Within one window behind: a retransmission of old data.
            self.stats.duplicates_received += 1
        elif 0 < ahead < self.config.window_size:
            # A gap ahead of the expected segment: ordinary Go-Back-N
            # discard of out-of-order (but in-window) data.
            self.stats.out_of_order_discarded += 1
        else:
            self.stats.out_of_window_dropped += 1
        return []

    def _resolve_wire(self, seq: int) -> int | None:
        """Absolute index in the receive window matching a wire sequence."""
        for absolute in range(self._expected, self._expected + self.config.window_size):
            if absolute % self.config.seq_modulus == seq:
                return absolute
        return None

    def _resolve_behind(self, seq: int) -> int | None:
        """Absolute index of an already-delivered wire sequence, if any."""
        low = max(0, self._expected - self.config.window_size)
        for absolute in range(low, self._expected):
            if absolute % self.config.seq_modulus == seq:
                return absolute
        return None

    def _ack(self, seq: int, absolute: int | None) -> Segment:
        buffered = sorted(self._buffer)
        return Segment(
            self.flow_id, seq, "ack",
            sack=tuple(a % self.config.seq_modulus for a in buffered),
            ack_abs=absolute,
            sack_abs=tuple(buffered),
        )

    def _on_data_sr(self, segment: Segment) -> tuple[list[object], Segment]:
        absolute = self._resolve_wire(segment.seq)
        if absolute is None:
            # Behind the window: an already-delivered segment whose ACK was
            # lost; re-ACK it so the sender can advance.
            self.stats.duplicates_received += 1
            return [], self._ack(segment.seq, self._resolve_behind(segment.seq))
        if absolute in self._buffer:
            self.stats.duplicates_received += 1
            return [], self._ack(segment.seq, absolute)
        self._buffer[absolute] = segment.payload
        delivered: list[object] = []
        while self._expected in self._buffer:
            payload = self._buffer.pop(self._expected)
            self.delivered.append(payload)
            delivered.append(payload)
            self.stats.delivered_in_order += 1
            self._expected += 1
        return delivered, self._ack(segment.seq, absolute)
