"""Tests for the network topology and its acoustic geometry."""

import numpy as np
import pytest

from _topologies import line_topology
from repro.channel.physics import SOUND_SPEED_M_S
from repro.environments.sites import LAKE
from repro.experiments.net_scenario import NetScenario
from repro.net.topology import AcousticNetTopology


def _triangle() -> AcousticNetTopology:
    topology = AcousticNetTopology(site=LAKE, comm_range_m=12.0)
    topology.add_node("a", 0.0, 0.0)
    topology.add_node("b", 10.0, 0.0)
    topology.add_node("c", 30.0, 0.0)
    return topology


def test_positions_and_distance():
    topology = _triangle()
    assert topology.num_nodes == 3
    assert topology.distance_m("a", "b") == pytest.approx(10.0)
    assert "a" in topology and "zz" not in topology


def test_duplicate_and_unknown_nodes_raise():
    topology = _triangle()
    with pytest.raises(ValueError):
        topology.add_node("a", 1.0, 1.0)
    with pytest.raises(KeyError):
        topology.position("zz")


def test_propagation_delay_uses_shared_sound_speed():
    table = _triangle().neighbor_table("a")
    assert table.names == ("b",)
    assert table.delays_s[0] == pytest.approx(10.0 / SOUND_SPEED_M_S)


def test_neighbors_respect_range_and_sort_by_distance():
    topology = _triangle()
    assert topology.neighbors("a") == ("b",)  # c is 30 m away, out of range
    assert topology.neighbors("b") == ("a",)
    assert "c" not in topology.neighbors("a")
    assert "a" not in topology.neighbors("a")
    topology.add_node("d", 2.0, 0.0)
    assert topology.neighbors("a") == ("d", "b")


def test_line_and_grid_builders():
    line = NetScenario(
        site="bridge", topology="line", num_nodes=4, spacing_m=5.0, comm_range_m=6.0
    ).build_topology()
    assert line.num_nodes == 4
    assert line.distance_m("n0", "n3") == pytest.approx(15.0)
    assert line.neighbors("n1") == ("n0", "n2")

    grid = NetScenario(num_nodes=6, spacing_m=4.0, comm_range_m=5.0).build_topology()
    assert grid.num_nodes == 6
    assert grid.distance_m("n0", "n5") == pytest.approx(np.hypot(8.0, 4.0))


def test_random_deployment_is_seeded_and_in_bounds():
    first = AcousticNetTopology.random_deployment(10, (50.0, 50.0), seed=3)
    second = AcousticNetTopology.random_deployment(10, (50.0, 50.0), seed=3)
    assert first.num_nodes == 10
    for name in first.names:
        assert first.position(name) == second.position(name)
        assert 0.0 <= first.position(name).x_m <= 50.0
        assert 0.2 <= first.position(name).depth_m <= LAKE.water_depth_m - 0.2


def test_builder_validation():
    with pytest.raises(ValueError):
        NetScenario(topology="line", num_nodes=1)
    with pytest.raises(ValueError):
        AcousticNetTopology.random_deployment(0, (10.0, 10.0))
    with pytest.raises(ValueError):
        AcousticNetTopology(comm_range_m=0.0)


# ---------------------------------------------------- mutation properties
# Random add/deactivate/reactivate sequences must leave the spatial-hash grid and every cached
# NeighborTable indistinguishable from a brute-force rebuild over the
# *active* membership, and bump the version so greedy's memo refreshes.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.net.packet import NetPacket  # noqa: E402
from repro.net.routing import GreedyForwarding  # noqa: E402

_examples = settings(max_examples=25)


def _active_names(topology):
    return [name for name in topology.names if topology.is_active(name)]


def _live_brute_force(topology, name):
    """Oracle: all-pairs scan over active members, sorted (distance, name)."""
    candidates = sorted(
        (topology.distance_m(name, other), other)
        for other in _active_names(topology)
        if other != name
        and topology.distance_m(name, other) <= topology.comm_range_m
    )
    return tuple(other for _, other in candidates)


def _assert_consistent(topology):
    for name in _active_names(topology):
        expected = _live_brute_force(topology, name)
        table = topology.neighbor_table(name)
        assert table.names == expected, (
            f"grid/table disagree with brute force at {name!r}: "
            f"{table.names} != {expected}"
        )
        # Table distances/delays must be bit-identical to distances_to,
        # which repeats the table build's ``x*x`` order (distance_m's
        # ``**2`` can differ in the last ulp, so compare same-order
        # exactly and cross-order approximately).
        recomputed = np.array(topology.distances_to(table.indices, name))
        assert np.array_equal(table.distances_m, recomputed)
        assert np.array_equal(table.delays_s, recomputed / SOUND_SPEED_M_S)
        for neighbor, distance in zip(table.names, table.distances_m):
            assert distance == pytest.approx(
                topology.distance_m(name, neighbor), rel=1e-12
            )
        assert topology.neighbors(name) == expected


_ops = st.lists(
    st.tuples(
        st.sampled_from(("add", "deactivate", "reactivate")),
        st.integers(min_value=0, max_value=10 ** 6),
    ),
    min_size=1,
    max_size=12,
)


@_examples
@given(seed=st.integers(min_value=0, max_value=50), ops=_ops)
def test_membership_mutations_match_brute_force_rebuild(seed, ops):
    topology = AcousticNetTopology.random_deployment(
        12, (60.0, 60.0), comm_range_m=20.0, seed=seed
    )
    # Warm every cache first so stale entries would be caught.
    _assert_consistent(topology)
    fresh = 0
    for op, raw in ops:
        names = topology.names
        if op == "add":
            topology.add_node(
                f"x{fresh}", float(raw % 60), float((raw // 60) % 60), 1.0
            )
            fresh += 1
        elif not names:
            continue
        else:
            target = names[raw % len(names)]
            if op == "deactivate":
                topology.deactivate(target)
                assert not topology.is_active(target)
            else:
                topology.reactivate(target)
                assert topology.is_active(target)
        _assert_consistent(topology)


def test_greedy_memo_invalidates_on_liveness_changes():
    topology = line_topology(4, spacing_m=6.0, comm_range_m=13.0)
    routing = GreedyForwarding()
    packet = NetPacket(uid=0, kind="data", source="n0", destination="n3",
                       created_s=0.0, ttl=8)
    # n0 reaches n1 (6 m) and n2 (12 m); greedy prefers the hop closest
    # to the destination.
    assert routing.next_hops("n0", packet, topology) == ("n2",)
    topology.deactivate("n2")
    assert routing.next_hops("n0", packet, topology) == ("n1",)
    topology.reactivate("n2")
    assert routing.next_hops("n0", packet, topology) == ("n2",)
    # A dead destination is unreachable for greedy, not a crash.
    topology.deactivate("n3")
    assert routing.next_hops("n0", packet, topology) == ()
