"""Tests for the routing protocols."""

import pytest

from _topologies import line_topology
from repro.net.packet import NetPacket
from repro.net.routing import (
    ROUTING_CATALOG,
    FloodingRouting,
    GreedyForwarding,
    StaticShortestPathRouting,
    build_routing,
)
from repro.net.topology import AcousticNetTopology


def _line(num=4, spacing=5.0, comm_range=6.0):
    return line_topology(num, spacing_m=spacing, comm_range_m=comm_range)


def _packet(source, destination, path=()):
    return NetPacket(
        uid=0, kind="raw", source=source, destination=destination,
        created_s=0.0, path=tuple(path),
    )


def test_flooding_relays_to_all_but_previous_hop():
    topology = _line()
    flooding = FloodingRouting()
    fresh = _packet("n1", "n3")
    assert set(flooding.next_hops("n1", fresh, topology)) == {"n0", "n2"}
    relayed = _packet("n0", "n3", path=("n0",))
    assert flooding.next_hops("n1", relayed, topology) == ("n2",)


def test_shortest_path_follows_the_chain():
    topology = _line()
    routing = StaticShortestPathRouting()
    routing.prepare(topology)
    packet = _packet("n0", "n3")
    assert routing.next_hops("n0", packet, topology) == ("n1",)
    assert routing.next_hops("n1", packet, topology) == ("n2",)
    assert routing.next_hops("n2", packet, topology) == ("n3",)
    assert routing.has_route("n0", "n3")


def test_shortest_path_handles_partitions():
    topology = _line()
    topology.add_node("island", 1000.0, 1000.0)
    routing = StaticShortestPathRouting()
    routing.prepare(topology)
    assert not routing.has_route("n0", "island")
    assert routing.next_hops("n0", _packet("n0", "island"), topology) == ()


def test_shortest_path_prefers_fewer_metres_not_fewer_hops():
    topology = AcousticNetTopology(comm_range_m=11.0)
    topology.add_node("src", 0.0, 0.0)
    topology.add_node("detour", 5.0, 0.1)
    topology.add_node("dst", 10.0, 0.0)
    routing = StaticShortestPathRouting()
    routing.prepare(topology)
    # The direct 10 m edge beats the 5 m + 5 m detour only in hop count;
    # in metres they are nearly equal, and the direct edge is shorter.
    assert routing.next_hops("src", _packet("src", "dst"), topology) == ("dst",)


def test_greedy_picks_neighbor_closest_to_destination():
    topology = _line()
    greedy = GreedyForwarding("distance")
    packet = _packet("n0", "n3")
    assert greedy.next_hops("n0", packet, topology) == ("n1",)
    # Direct delivery once the destination is in range.
    assert greedy.next_hops("n2", packet, topology) == ("n3",)


def test_greedy_drops_at_voids():
    topology = AcousticNetTopology(comm_range_m=6.0)
    topology.add_node("src", 0.0, 0.0)
    topology.add_node("back", -5.0, 0.0)  # only neighbour leads away
    topology.add_node("dst", 20.0, 0.0)
    greedy = GreedyForwarding("distance")
    assert greedy.next_hops("src", _packet("src", "dst"), topology) == ()


def test_greedy_unknown_destination_is_a_void():
    topology = _line()
    greedy = GreedyForwarding("distance")
    assert greedy.next_hops("n0", _packet("n0", "ghost"), topology) == ()


def test_depth_greedy_climbs_to_the_surface_sink():
    topology = AcousticNetTopology(comm_range_m=8.0)
    topology.add_node("sink", 0.0, 0.0, depth_m=0.3)
    topology.add_node("mid", 0.0, 5.0, depth_m=2.0)
    topology.add_node("deep", 0.0, 10.0, depth_m=4.0)
    greedy = GreedyForwarding("depth")
    packet = _packet("deep", "sink")
    assert greedy.next_hops("deep", packet, topology) == ("mid",)
    assert greedy.next_hops("mid", packet, topology) == ("sink",)
    # A node with no shallower neighbour is a void.
    assert greedy.next_hops("sink", _packet("sink", "deep"), topology) == ()


def test_routing_catalog_and_validation():
    assert set(ROUTING_CATALOG) == {
        "flooding", "shortest-path", "greedy", "greedy-depth"
    }
    assert build_routing("greedy-depth").name == "greedy-depth"
    assert build_routing("flooding").name == "flooding"
    with pytest.raises(ValueError):
        build_routing("ospf")
    with pytest.raises(ValueError):
        GreedyForwarding("sideways")
