"""Congestion control for the acoustic transport.

The sliding-window ARQ of :mod:`repro.net.transport` historically sent at
a fixed window -- fine for the paper's two-device link, collapse-prone
once dozens of flows share relays.  This module makes the window
*pluggable*:

* :class:`CongestionController` -- the protocol the
  :class:`~repro.net.transport.ArqSender` drives: how many segments may
  be in flight, what the retransmission timeout currently is, and hooks
  for ACKs, duplicate ACKs, fast retransmits, timeouts and RTT samples.
* :class:`FixedWindow` -- the bit-exact legacy behaviour: the configured
  window, the configured constant timeout, every hook a no-op.  An
  :class:`~repro.net.transport.ArqSender` without an explicit controller
  builds one of these, so pre-congestion scenarios replay identically.
* :class:`RenoController` -- a TCP-Reno-style AIMD state machine (slow
  start, congestion avoidance, fast recovery on duplicate ACKs, timeout
  collapse to one segment) driving the existing Go-Back-N / selective
  repeat windows, paired with an :class:`AdaptiveRto` (SRTT/RTTVAR
  smoothing per RFC 6298, Karn's rule enforced by the sender, exponential
  backoff) whose floors are tuned for *second-scale* acoustic RTTs
  rather than the millisecond internet.
* :func:`jain_fairness_index` -- the fairness figure of a run's per-flow
  goodputs.

The bounded relay queue itself is one tail-drop capacity on the simulator
(``NetworkSimulator(queue_capacity=)``).

The controllers are pure state machines fed explicit time, like the ARQ
endpoints themselves: no scheduler dependency, directly unit-testable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Registered congestion-controller kinds (``build_controller`` keys).
CC_KINDS = ("fixed", "reno")

#: Hard cap on recorded cwnd trajectory samples per flow.  Long congested
#: runs change cwnd on nearly every ACK; beyond this many samples the
#: trajectory stops growing (the counters still update) so metrics stay
#: bounded.  The cap is recorded via :attr:`CwndTrajectory.truncated`.
MAX_CWND_SAMPLES = 4096


class CwndTrajectory:
    """Bounded (time, cwnd) sample log of one flow's congestion window."""

    __slots__ = ("times_s", "cwnds", "truncated")

    def __init__(self) -> None:
        self.times_s: list[float] = []
        self.cwnds: list[float] = []
        self.truncated = False

    def record(self, time_s: float, cwnd: float) -> None:
        """Append one sample, honouring the global cap."""
        if len(self.times_s) >= MAX_CWND_SAMPLES:
            self.truncated = True
            return
        self.times_s.append(time_s)
        self.cwnds.append(cwnd)

    def __len__(self) -> int:
        return len(self.times_s)


class AdaptiveRto:
    """RFC 6298-style retransmission timeout for second-scale RTTs.

    SRTT/RTTVAR smoothing with the standard gains (``alpha=1/8``,
    ``beta=1/4``), ``RTO = SRTT + max(granularity, 4 * RTTVAR)``, clamped
    to ``[MIN_RTO_S, MAX_RTO_S]``, with exponential backoff on timeout
    (doubling, capped at ``MAX_BACKOFF``) that resets on the next valid
    RTT sample.  Karn's rule -- never sample a retransmitted segment -- is
    the *sender's* responsibility: it simply does not call
    :meth:`on_sample` for them.

    The floors differ from the internet defaults because underwater
    acoustic RTTs are seconds: the minimum RTO is 1 s (not 200 ms) and
    the clock granularity term is 100 ms.
    """

    ALPHA = 0.125
    BETA = 0.25
    GRANULARITY_S = 0.1
    MIN_RTO_S = 1.0
    MAX_RTO_S = 120.0
    MAX_BACKOFF = 64

    __slots__ = ("initial_rto_s", "srtt_s", "rttvar_s", "_rto_s", "backoff")

    def __init__(self, initial_rto_s: float) -> None:
        if initial_rto_s <= 0:
            raise ValueError("initial_rto_s must be positive")
        self.initial_rto_s = float(initial_rto_s)
        self.srtt_s: float | None = None
        self.rttvar_s = 0.0
        self._rto_s = float(initial_rto_s)
        self.backoff = 1

    def on_sample(self, rtt_s: float) -> None:
        """Fold one valid (non-retransmitted) RTT measurement in."""
        rtt_s = float(rtt_s)
        if rtt_s < 0:
            return
        if self.srtt_s is None:
            self.srtt_s = rtt_s
            self.rttvar_s = rtt_s / 2.0
        else:
            self.rttvar_s = (
                (1.0 - self.BETA) * self.rttvar_s
                + self.BETA * abs(self.srtt_s - rtt_s)
            )
            self.srtt_s = (1.0 - self.ALPHA) * self.srtt_s + self.ALPHA * rtt_s
        self._rto_s = self.srtt_s + max(self.GRANULARITY_S, 4.0 * self.rttvar_s)
        self.backoff = 1  # fresh evidence ends the backoff episode

    def on_timeout(self) -> None:
        """Exponential backoff: double the effective RTO, capped."""
        self.backoff = min(self.backoff * 2, self.MAX_BACKOFF)

    def current_s(self) -> float:
        """The RTO a segment transmitted now should be armed with."""
        base = max(self.MIN_RTO_S, min(self._rto_s, self.MAX_RTO_S))
        return min(base * self.backoff, self.MAX_RTO_S)


class CongestionController(ABC):
    """What the ARQ sender asks of a congestion-control algorithm.

    Controllers are per-flow and stateful; every hook receives the
    caller's explicit ``now_s`` so the state machines stay pure and the
    simulator's scheduler remains the only clock.
    """

    #: Catalog key / report label of the algorithm.
    name: str = "abstract"

    @abstractmethod
    def window(self) -> int:
        """Segments currently allowed in flight (at least 1)."""

    @abstractmethod
    def rto_s(self) -> float:
        """Retransmission timeout for segments (re)transmitted now."""

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        """``newly_acked`` segments left the window (cumulative or SACK)."""

    def on_duplicate_ack(self, now_s: float) -> None:
        """A genuine duplicate ACK of the current window base arrived."""

    def on_fast_retransmit(self, now_s: float) -> None:
        """The duplicate-ACK threshold fired one fast retransmit."""

    def on_timeout(self, now_s: float) -> None:
        """The retransmission timer expired."""

    def on_rtt_sample(self, rtt_s: float, now_s: float) -> None:
        """A Karn-valid RTT measurement (never from a retransmission)."""

    @property
    def trajectory(self) -> CwndTrajectory | None:
        """Recorded (time, cwnd) samples, if the controller keeps any."""
        return None

    @property
    def state(self) -> str:
        """Human-readable phase label for reports."""
        return self.name


class FixedWindow(CongestionController):
    """The legacy fixed-window behaviour as a controller.

    ``window()`` is the configured ARQ window, ``rto_s()`` the configured
    constant timeout, and every event hook is a no-op -- an
    :class:`~repro.net.transport.ArqSender` driving this controller is
    bit-identical to the pre-congestion-control sender, which is what
    keeps the committed golden scenario signatures and trace fixtures
    valid with ``cc="fixed"`` (the default).
    """

    name = "fixed"

    __slots__ = ("_window", "_timeout_s")

    def __init__(self, window_size: int, timeout_s: float) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self._window = int(window_size)
        self._timeout_s = float(timeout_s)

    def window(self) -> int:
        return self._window

    def rto_s(self) -> float:
        return self._timeout_s


class RenoController(CongestionController):
    """TCP-Reno-style AIMD congestion window over the ARQ flow.

    The classic state machine, re-based on segments (the ARQ's unit)
    and second-scale acoustic timing:

    * **Slow start** -- ``cwnd += 1`` per newly-acked segment
      (exponential per RTT) until ``ssthresh``.
    * **Congestion avoidance** -- ``cwnd += n / cwnd`` per ``n`` acked
      segments (one segment per RTT).
    * **Fast recovery** -- at the sender's duplicate-ACK threshold:
      ``ssthresh = max(cwnd / 2, 2)``, ``cwnd = ssthresh + 3``, inflating
      by one per further duplicate ACK (each names a segment that left
      the network), deflating to ``ssthresh`` on the next new ACK.
    * **Timeout** -- ``ssthresh = max(cwnd / 2, 2)``, ``cwnd = 1``, back
      to slow start, and the :class:`AdaptiveRto` backs off
      exponentially.

    A flow starts in slow start at ``cwnd = 1`` with ``ssthresh`` at
    ``max_window`` (the ARQ window, i.e. the peer's buffer), which caps
    the effective window throughout, exactly like the advertised window
    caps cwnd in TCP.
    """

    name = "reno"

    def __init__(self, max_window: int, timeout_s: float) -> None:
        if max_window < 1:
            raise ValueError("max_window must be at least 1")
        self.max_window = int(max_window)
        self.cwnd = 1.0
        self.ssthresh = float(max_window)
        self.rto = AdaptiveRto(initial_rto_s=timeout_s)
        self.in_fast_recovery = False
        self._trajectory = CwndTrajectory()
        self._trajectory.record(0.0, self.cwnd)

    # --------------------------------------------------------------- queries
    def window(self) -> int:
        return max(1, min(int(self.cwnd), self.max_window))

    def rto_s(self) -> float:
        return self.rto.current_s()

    @property
    def trajectory(self) -> CwndTrajectory:
        return self._trajectory

    @property
    def state(self) -> str:
        if self.in_fast_recovery:
            return "fast-recovery"
        if self.cwnd < self.ssthresh:
            return "slow-start"
        return "congestion-avoidance"

    # ----------------------------------------------------------------- hooks
    def _set_cwnd(self, cwnd: float, now_s: float) -> None:
        self.cwnd = min(max(1.0, cwnd), float(self.max_window))
        self._trajectory.record(now_s, self.cwnd)

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        if newly_acked <= 0:
            return
        if self.in_fast_recovery:
            # New data acked: deflate back to ssthresh and resume linear
            # growth (plain Reno; no NewReno partial-ACK staydown).
            self.in_fast_recovery = False
            self._set_cwnd(self.ssthresh, now_s)
            return
        if self.cwnd < self.ssthresh:
            self._set_cwnd(self.cwnd + newly_acked, now_s)
        else:
            self._set_cwnd(self.cwnd + newly_acked / self.cwnd, now_s)

    def on_duplicate_ack(self, now_s: float) -> None:
        if self.in_fast_recovery:
            # Window inflation: each further duplicate ACK means one more
            # segment left the pipe.
            self._set_cwnd(self.cwnd + 1.0, now_s)

    def on_fast_retransmit(self, now_s: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.in_fast_recovery = True
        self._set_cwnd(self.ssthresh + 3.0, now_s)

    def on_timeout(self, now_s: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.in_fast_recovery = False
        self.rto.on_timeout()
        self._set_cwnd(1.0, now_s)

    def on_rtt_sample(self, rtt_s: float, now_s: float) -> None:
        del now_s
        self.rto.on_sample(rtt_s)


def build_controller(kind: str, config) -> CongestionController:
    """Construct a controller for one flow from an ``ArqConfig``-like.

    ``config`` only needs ``window_size`` and ``timeout_s`` attributes,
    which keeps this module free of transport imports.
    """
    if kind == "fixed":
        return FixedWindow(config.window_size, config.timeout_s)
    if kind == "reno":
        return RenoController(
            max_window=config.window_size, timeout_s=config.timeout_s
        )
    raise ValueError(
        f"unknown congestion controller {kind!r}; known: {', '.join(CC_KINDS)}"
    )


def jain_fairness_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal shares; ``1/n`` means one flow starved all
    others.  Returns ``nan`` for empty input or all-zero allocations.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return float("nan")
    x = np.where(np.isfinite(x), x, 0.0)
    denominator = x.size * float(np.sum(x * x))
    if denominator == 0.0:
        return float("nan")
    return float(np.sum(x)) ** 2 / denominator


__all__ = [
    "AdaptiveRto",
    "CC_KINDS",
    "CongestionController",
    "CwndTrajectory",
    "FixedWindow",
    "MAX_CWND_SAMPLES",
    "RenoController",
    "build_controller",
    "jain_fairness_index",
]
