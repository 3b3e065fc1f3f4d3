"""Beacon-style neighbor liveness tracking.

Real AquaApp-class deployments learn about dead neighbors the only way
an underwater network can: silence.  Nodes beacon periodically; a
neighbor that misses ``miss_threshold`` consecutive beacon intervals is
declared dead, and one that is heard again after an outage is
rediscovered.  :class:`NeighborLivenessTracker` models exactly that
threshold mechanic -- detection latency, eviction, rediscovery -- so
route repair is driven by *observed* silence rather than oracle
knowledge of crash events.

The beacon packets themselves are abstracted out: the tracker is fed
the physically-down set at each beacon tick instead of simulating
beacon traffic in-band.  Injecting real beacon packets would perturb
the shared acoustic channel (and therefore every golden signature);
the out-of-band form keeps the detection-latency behavior while leaving
the deterministic event stream of the data plane untouched.
"""

from __future__ import annotations

from collections.abc import Iterable, Set


class NeighborLivenessTracker:
    """Tracks which nodes the network *believes* are alive.

    The tracker starts with every node freshly heard at time zero.  Each
    :meth:`tick` represents one beacon interval: nodes in the ``down``
    set stay silent (their last-heard time ages), everyone else beacons
    (last-heard refreshes).  A node silent for at least
    ``miss_threshold * beacon_interval_s`` is declared dead; a dead node
    that beacons again is rediscovered.
    """

    def __init__(
        self,
        names: Iterable[str],
        beacon_interval_s: float,
        miss_threshold: int,
    ) -> None:
        if beacon_interval_s <= 0.0:
            raise ValueError("beacon_interval_s must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        self.beacon_interval_s = float(beacon_interval_s)
        self.miss_threshold = int(miss_threshold)
        # Insertion order == node order: iteration (and therefore the
        # order of declared deaths/rediscoveries) is deterministic.
        self._last_heard: dict[str, float] = {name: 0.0 for name in names}
        self._dead: set[str] = set()

    @property
    def detection_delay_s(self) -> float:
        """Silence required before a node is declared dead."""
        return self.miss_threshold * self.beacon_interval_s

    def tick(
        self, now_s: float, down: Set[str]
    ) -> tuple[list[str], list[str]]:
        """Advance one beacon interval.

        ``down`` is the physically-down set at this instant; everyone
        else is assumed to have beaconed.  Returns
        ``(newly_dead, newly_alive)`` in deterministic node order.
        """
        newly_dead: list[str] = []
        newly_alive: list[str] = []
        for name, last in self._last_heard.items():
            if name in down:
                if (
                    name not in self._dead
                    and now_s - last >= self.detection_delay_s
                ):
                    self._dead.add(name)
                    newly_dead.append(name)
            else:
                self._last_heard[name] = now_s
                if name in self._dead:
                    self._dead.discard(name)
                    newly_alive.append(name)
        return newly_dead, newly_alive
