"""Discrete-event simulation of the carrier-sense MAC protocol.

The Fig. 19 experiment places two or three continuously backlogged
transmitters and one receiver underwater and measures the fraction of
packets involved in a collision (two packets overlapping in time), with
and without carrier sense.  The simulator reproduces that setup at the
timeline level:

* each transmitter draws an initial random backoff of several seconds;
* with carrier sense enabled it senses the channel every 80 ms, defers
  while the channel is busy (extending the backoff by one packet duration
  whenever it hears energy during the wait, as the paper describes) and
  transmits when the channel has stayed idle through its backoff;
* without carrier sense it simply transmits whenever its backoff expires.

Acoustic propagation delays between the devices are included because they
are what make carrier sense imperfect underwater: a packet launched less
than one propagation delay before another transmitter senses cannot be
heard in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.physics import SOUND_SPEED_M_S
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class TransmitterConfig:
    """One transmitter in the MAC experiment.

    Attributes
    ----------
    name:
        Identifier used in reports.
    distance_to_receiver_m:
        Distance to the receiver (5-10 m in the paper's deployment).
    num_packets:
        Number of packets this transmitter wants to send (120 in the paper).
    """

    name: str
    distance_to_receiver_m: float = 7.5
    num_packets: int = 120


@dataclass(frozen=True)
class TransmissionRecord:
    """A packet transmission that happened during the simulation."""

    transmitter: str
    start_time_s: float
    end_time_s: float
    collided: bool


@dataclass
class MacSimulationResult:
    """Outcome of one MAC simulation run.

    Attributes
    ----------
    transmissions:
        Every packet sent, with its time span and collision flag.
    carrier_sense_enabled:
        Whether carrier sense was active in this run.
    """

    transmissions: list[TransmissionRecord] = field(default_factory=list)
    carrier_sense_enabled: bool = True

    @property
    def num_packets(self) -> int:
        """Total packets transmitted."""
        return len(self.transmissions)

    @property
    def num_collided(self) -> int:
        """Packets that overlapped another transmission."""
        return sum(t.collided for t in self.transmissions)

    @property
    def collision_fraction(self) -> float:
        """Fraction of packets involved in a collision."""
        return self.num_collided / self.num_packets if self.num_packets else float("nan")

    def collision_fraction_for(self, transmitter: str) -> float:
        """Collision fraction restricted to one transmitter."""
        own = [t for t in self.transmissions if t.transmitter == transmitter]
        if not own:
            return float("nan")
        return sum(t.collided for t in own) / len(own)


class MacNetworkSimulator:
    """Simulates multiple backlogged transmitters sharing the acoustic channel."""

    #: Airtime of one packet (s).
    PACKET_DURATION_S = 0.6
    #: Carrier-sense sampling interval (80 ms in the paper).
    SENSE_INTERVAL_S = 0.08
    #: Upper bound of each transmitter's initial random backoff (s).
    INITIAL_BACKOFF_MAX_S = 6.0
    #: Distance between two transmitters, which sets how late one hears
    #: another's packet (m).
    INTER_DEVICE_DISTANCE_M = 5.0

    def __init__(
        self,
        transmitters: list[TransmitterConfig],
        carrier_sense: bool = True,
    ) -> None:
        if len(transmitters) < 1:
            raise ValueError("need at least one transmitter")
        for transmitter in transmitters:
            if transmitter.num_packets < 1:
                raise ValueError(
                    f"transmitter {transmitter.name} needs at least one packet, "
                    f"got {transmitter.num_packets}"
                )
        self.transmitters = list(transmitters)
        self.carrier_sense = bool(carrier_sense)

    # ------------------------------------------------------------------ model
    def _propagation_delay_s(self) -> float:
        """Propagation delay between two transmitters (for sensing)."""
        return self.INTER_DEVICE_DISTANCE_M / SOUND_SPEED_M_S

    def _channel_busy_at(
        self, time_s: float, transmissions: list[TransmissionRecord], listener: str
    ) -> bool:
        """Whether ``listener`` would hear energy on the channel at ``time_s``."""
        delay = self._propagation_delay_s()
        for record in transmissions:
            if record.transmitter == listener:
                continue
            if record.start_time_s + delay <= time_s <= record.end_time_s + delay:
                return True
        return False

    # -------------------------------------------------------------------- run
    def run(self, seed: int | np.random.Generator | None = None) -> MacSimulationResult:
        """Simulate until every transmitter has sent its packets."""
        rng = ensure_rng(seed)
        remaining = {t.name: t.num_packets for t in self.transmitters}
        # Next time each transmitter intends to attempt a transmission.
        next_attempt = {
            t.name: float(rng.uniform(0.0, self.INITIAL_BACKOFF_MAX_S)) for t in self.transmitters
        }
        backoff_packets = {t.name: 0 for t in self.transmitters}
        transmissions: list[TransmissionRecord] = []
        busy_until = {t.name: 0.0 for t in self.transmitters}

        # Event loop over transmitter attempts, in time order.
        while any(count > 0 for count in remaining.values()):
            name = min(
                (n for n, c in remaining.items() if c > 0), key=lambda n: next_attempt[n]
            )
            now = next_attempt[name]
            if now < busy_until[name]:
                next_attempt[name] = busy_until[name]
                continue
            if self.carrier_sense and self._channel_busy_at(now, transmissions, name):
                # Heard energy: extend the backoff by one packet duration so
                # the wait cannot elapse mid-packet, then re-sense later.
                backoff_packets[name] += 1
                next_attempt[name] = now + self.PACKET_DURATION_S + float(
                    rng.uniform(0.0, self.SENSE_INTERVAL_S)
                )
                continue
            # Clear to send (or carrier sense disabled).
            start = now
            end = start + self.PACKET_DURATION_S
            transmissions.append(TransmissionRecord(name, start, end, collided=False))
            remaining[name] -= 1
            busy_until[name] = end
            # Next packet follows after a random backoff measured in
            # multiples of the packet duration (paper section 2.4).
            multiples = int(rng.integers(1, 4))
            next_attempt[name] = end + multiples * self.PACKET_DURATION_S * float(
                rng.uniform(0.8, 1.5)
            )

        self._mark_collisions(transmissions)
        return MacSimulationResult(transmissions=transmissions, carrier_sense_enabled=self.carrier_sense)

    def _mark_collisions(self, transmissions: list[TransmissionRecord]) -> None:
        """Mark packets transmitted within one packet duration of each other.

        This matches the paper's accounting: packets whose start times fall
        within one packet duration of a packet from a different transmitter
        are counted as collided.
        """
        ordered = sorted(range(len(transmissions)), key=lambda i: transmissions[i].start_time_s)
        collided = [False] * len(transmissions)
        for idx in range(len(ordered)):
            i = ordered[idx]
            for jdx in range(idx + 1, len(ordered)):
                j = ordered[jdx]
                gap = transmissions[j].start_time_s - transmissions[i].start_time_s
                if gap >= self.PACKET_DURATION_S:
                    break
                if transmissions[i].transmitter != transmissions[j].transmitter:
                    collided[i] = True
                    collided[j] = True
        for i, record in enumerate(transmissions):
            transmissions[i] = TransmissionRecord(
                record.transmitter, record.start_time_s, record.end_time_s, collided[i]
            )
