"""Application traffic generators for network scenarios.

Each generator expands into a time-ordered list of :class:`AppMessage`
entries before the run starts, so the whole simulation stays
deterministic for a given seed regardless of event interleaving.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.net.packet import BROADCAST
from repro.net.topology import AcousticNetTopology
from repro.utils.validation import require_positive


#: Payload size (bits) of an SOS beacon broadcast.
SOS_SIZE_BITS = 6


@dataclass(frozen=True)
class AppMessage:
    """One application send request entering the network."""

    time_s: float
    source: str
    destination: str
    size_bits: int = 16


class TrafficGenerator(ABC):
    """Produces the application messages of one scenario."""

    @abstractmethod
    def messages(
        self, topology: AcousticNetTopology, rng: np.random.Generator
    ) -> list[AppMessage]:
        """Expand into concrete messages (sorted by time)."""


def convergecast_sources(
    topology: AcousticNetTopology, num_flows: int, destination: str
) -> tuple[str, ...]:
    """Sources of an ``num_flows``-flow convergecast onto ``destination``.

    Picks the ``num_flows`` nodes *farthest* from the destination (ties
    broken by name for determinism), so flows traverse shared relays and
    actually contend -- the workload the congestion-control experiments
    need.  Raises when the deployment has too few other nodes.
    """
    if num_flows < 1:
        raise ValueError("num_flows must be at least 1")
    if destination not in topology:
        raise ValueError(f"unknown destination {destination!r}")
    candidates = [name for name in topology.names if name != destination]
    if num_flows > len(candidates):
        raise ValueError(
            f"num_flows={num_flows} needs that many non-destination nodes; "
            f"the deployment has {len(candidates)}"
        )
    candidates.sort(
        key=lambda name: (-topology.distance_m(name, destination), name)
    )
    return tuple(sorted(candidates[:num_flows]))


def _pick_destination(
    source: str,
    destination: str | None,
    topology: AcousticNetTopology,
    rng: np.random.Generator,
) -> str:
    if destination is not None:
        return destination
    candidates = [name for name in topology.names if name != source]
    if not candidates:
        raise ValueError("need at least two nodes for random destinations")
    return candidates[int(rng.integers(0, len(candidates)))]


class _PerSourceTraffic(TrafficGenerator):
    """Shared scaffolding of the steady per-source workloads.

    Subclasses only define the emission *timing* (first message and the
    gap between messages); source resolution, destination picking and
    the deterministic ``(time, source)`` ordering live here once.
    """

    def __init__(
        self,
        duration_s: float,
        sources: tuple[str, ...] | None,
        destination: str | None,
    ) -> None:
        require_positive(duration_s, "duration_s")
        self.duration_s = float(duration_s)
        self.sources = sources
        self.destination = destination

    def _first_time_s(
        self, index: int, num_sources: int, rng: np.random.Generator
    ) -> float:
        raise NotImplementedError

    def _gap_s(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def messages(
        self, topology: AcousticNetTopology, rng: np.random.Generator
    ) -> list[AppMessage]:
        sources = self.sources if self.sources is not None else tuple(
            name for name in topology.names if name != self.destination
        )
        out: list[AppMessage] = []
        for index, source in enumerate(sources):
            time_s = self._first_time_s(index, len(sources), rng)
            while time_s < self.duration_s:
                out.append(
                    AppMessage(
                        time_s,
                        source,
                        _pick_destination(source, self.destination, topology, rng),
                    )
                )
                time_s += self._gap_s(rng)
        out.sort(key=lambda message: (message.time_s, message.source))
        return out


class PoissonTraffic(_PerSourceTraffic):
    """Memoryless messaging: each source emits at ``rate_msgs_per_s``.

    ``destination=None`` draws a uniform random peer per message (the
    group-messaging workload); a node name fixes a many-to-one workload
    (e.g. everyone reporting to the dive leader).
    """

    def __init__(
        self,
        rate_msgs_per_s: float,
        duration_s: float,
        sources: tuple[str, ...] | None = None,
        destination: str | None = None,
    ) -> None:
        require_positive(rate_msgs_per_s, "rate_msgs_per_s")
        super().__init__(duration_s, sources, destination)
        self.rate_msgs_per_s = float(rate_msgs_per_s)

    def _first_time_s(
        self, index: int, num_sources: int, rng: np.random.Generator
    ) -> float:
        return float(rng.exponential(1.0 / self.rate_msgs_per_s))

    def _gap_s(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate_msgs_per_s))


class CBRTraffic(_PerSourceTraffic):
    """Constant bitrate: one message per source every ``interval_s``."""

    def __init__(
        self,
        interval_s: float,
        duration_s: float,
        sources: tuple[str, ...] | None = None,
        destination: str | None = None,
    ) -> None:
        require_positive(interval_s, "interval_s")
        super().__init__(duration_s, sources, destination)
        self.interval_s = float(interval_s)

    def _first_time_s(
        self, index: int, num_sources: int, rng: np.random.Generator
    ) -> float:
        # Sources start phase-shifted so CBR does not synchronize.
        return (index / max(1, num_sources)) * self.interval_s

    def _gap_s(self, rng: np.random.Generator) -> float:
        return self.interval_s


class SosBroadcastTraffic(TrafficGenerator):
    """A diver in distress broadcasting SOS beacons to the whole group."""

    def __init__(self, source: str, times_s: tuple[float, ...] = (0.0,)) -> None:
        if not times_s:
            raise ValueError("times_s must not be empty")
        self.source = source
        self.times_s = tuple(float(t) for t in times_s)

    def messages(
        self, topology: AcousticNetTopology, rng: np.random.Generator
    ) -> list[AppMessage]:
        del rng  # SOS beacons are deterministic repetitions
        if self.source not in topology:
            raise ValueError(f"unknown SOS source {self.source!r}")
        return [
            AppMessage(time_s, self.source, BROADCAST, SOS_SIZE_BITS)
            for time_s in sorted(self.times_s)
        ]
