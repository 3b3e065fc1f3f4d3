"""Pluggable routing protocols for the network simulator.

Three families, behind the common :class:`RoutingProtocol` interface:

* :class:`FloodingRouting` -- every packet is rebroadcast to all
  neighbours except the one it came from; the simulator suppresses
  duplicates by packet ``uid``.  Delivery is maximal, cost is maximal.
* :class:`StaticShortestPathRouting` -- Dijkstra over the topology at
  :meth:`~RoutingProtocol.prepare` time (edge weight = distance, i.e.
  proportional to propagation delay), then fixed next-hop forwarding.
* :class:`GreedyForwarding` -- stateless geographic forwarding in the
  style of the uwoarouting simulators: relay to the neighbour that is
  strictly closest to the destination (``mode="distance"``) or, for
  networks draining to a surface sink, the neighbour with the smallest
  depth (``mode="depth"``).  Packets reaching a local minimum (a "void")
  are dropped -- the classic failure mode the literature documents.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod

from repro.net.packet import NetPacket
from repro.net.topology import AcousticNetTopology


class RoutingProtocol(ABC):
    """Decides which neighbours a node relays a packet to."""

    #: Catalog key / report name.
    name: str = "routing"

    #: Whether an empty :meth:`next_hops` is a routing *failure* worth
    #: counting.  Flooding returns empty at every leaf of the flood --
    #: healthy termination, not a void.
    reports_voids: bool = True

    def prepare(self, topology: AcousticNetTopology) -> None:
        """Precompute routing state (called once before the run and after
        every fault repair)."""

    @abstractmethod
    def next_hops(
        self, node: str, packet: NetPacket, topology: AcousticNetTopology
    ) -> tuple[str, ...]:
        """Neighbours ``node`` should relay ``packet`` to (may be empty)."""


class FloodingRouting(RoutingProtocol):
    """Relay to every neighbour except the previous hop."""

    name = "flooding"
    reports_voids = False

    def next_hops(
        self, node: str, packet: NetPacket, topology: AcousticNetTopology
    ) -> tuple[str, ...]:
        previous = packet.previous_hop
        return tuple(
            neighbor for neighbor in topology.neighbors(node) if neighbor != previous
        )


class StaticShortestPathRouting(RoutingProtocol):
    """Distance-weighted shortest paths, fixed until :meth:`prepare` reruns."""

    name = "shortest-path"

    def __init__(self) -> None:
        self._next_hop: dict[tuple[str, str], str] = {}

    def prepare(self, topology: AcousticNetTopology) -> None:
        """Run Dijkstra from every live node (the grids here are small).

        Re-invoked on membership change (fault repair); dead nodes are
        skipped as sources and, because they are absent from every
        neighbour table, never appear as relays or reachable
        destinations.
        """
        self._next_hop.clear()
        for source in topology.names:
            if not topology.is_active(source):
                continue
            self._single_source(source, topology)

    def _single_source(self, source: str, topology: AcousticNetTopology) -> None:
        distances: dict[str, float] = {source: 0.0}
        first_hop: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, source)]
        visited: set[str] = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            table = topology.neighbor_table(node)
            for neighbor, edge in zip(table.names, table.distances_m):
                candidate = cost + edge
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    first_hop[neighbor] = neighbor if node == source else first_hop[node]
                    heapq.heappush(heap, (candidate, neighbor))
        for destination, hop in first_hop.items():
            self._next_hop[(source, destination)] = hop

    def has_route(self, source: str, destination: str) -> bool:
        """Whether a path from ``source`` to ``destination`` exists."""
        return (source, destination) in self._next_hop

    def next_hops(
        self, node: str, packet: NetPacket, topology: AcousticNetTopology
    ) -> tuple[str, ...]:
        hop = self._next_hop.get((node, packet.destination))
        return (hop,) if hop is not None else ()


class GreedyForwarding(RoutingProtocol):
    """Geographic greedy forwarding (distance- or depth-based).

    ``mode="distance"``: relay to the neighbour strictly closer (3-D) to
    the destination than this node; direct delivery wins when the
    destination is itself in range.  ``mode="depth"``: relay to the
    neighbour with the smallest depth that is shallower than this node --
    the depth-based routing used by underwater sensor networks whose sink
    floats at the surface.

    Depth mode is strictly *upward*: it cannot carry anything back down,
    so it only suits unacknowledged convergecast traffic.  Pairing it
    with ARQ leaves every ACK stranded at the sink (the scenario layer
    rejects that combination).
    """

    def __init__(self, mode: str = "distance") -> None:
        if mode not in ("distance", "depth"):
            raise ValueError(f"mode must be 'distance' or 'depth', got {mode!r}")
        self.mode = mode
        self.name = "greedy" if mode == "distance" else "greedy-depth"
        # Greedy is a pure function of (node, destination, geometry), so
        # hop choices are memoized against the topology's version counter
        # -- a static deployment computes each (node, destination) pair's
        # relay once per run instead of once per transmission.  On
        # net-250 (seeds 52-55) the memo serves 13,176 of 20,399 calls,
        # each a compute of about 5 us saved (VM of perfbench/README.md).
        self._memo: dict[tuple[str, str], tuple[object, int, tuple[str, ...]]] = {}

    def next_hops(
        self, node: str, packet: NetPacket, topology: AcousticNetTopology
    ) -> tuple[str, ...]:
        destination = packet.destination
        key = (node, destination)
        cached = self._memo.get(key)
        version = topology.version
        if (
            cached is not None
            and cached[0] is topology
            and cached[1] == version
        ):
            return cached[2]
        result = self._next_hops_compute(node, destination, topology)
        self._memo[key] = (topology, version, result)
        return result

    def _next_hops_compute(
        self, node: str, destination: str, topology: AcousticNetTopology
    ) -> tuple[str, ...]:
        table = topology.neighbor_table(node)
        if not table.names:
            return ()
        if destination in table.slot:
            return (destination,)
        if self.mode == "distance":
            if destination not in topology or not topology.is_active(destination):
                return ()
            own = topology.distance_m(node, destination)
            # One distance sweep over the cached neighbour set; ``min``
            # and ``index`` take the first minimum, so ties go to the
            # nearer neighbour of the (nearest-first) table order.
            dist = topology.distances_to(table.indices, destination)
            best = min(dist)
            if best < own:
                return (table.names[dist.index(best)],)
            return ()
        # Depth mode: move strictly shallower, toward a surface sink.
        own_depth = topology.position(node).depth_m
        depths = topology.depths_of(table.indices)
        best = min(depths)
        if best < own_depth:
            return (table.names[depths.index(best)],)
        return ()


#: Routing protocols by CLI/catalog key (factories, so instances are fresh).
ROUTING_CATALOG = {
    "flooding": FloodingRouting,
    "shortest-path": StaticShortestPathRouting,
    "greedy": lambda: GreedyForwarding("distance"),
    "greedy-depth": lambda: GreedyForwarding("depth"),
}


def build_routing(name: str) -> RoutingProtocol:
    """Instantiate a routing protocol by catalog key."""
    try:
        factory = ROUTING_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown routing {name!r}; known: {', '.join(sorted(ROUTING_CATALOG))}"
        ) from None
    return factory()
