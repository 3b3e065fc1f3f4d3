"""Tests for the application traffic generators."""

import numpy as np
import pytest

from _topologies import line_topology
from repro.net.packet import BROADCAST
from repro.net.traffic import (
    CBRTraffic,
    PoissonTraffic,
    SosBroadcastTraffic,
    _pick_destination,
)


def _line(num=4):
    return line_topology(num, spacing_m=8.0, comm_range_m=10.0)


# -------------------------------------------------------------- determinism
def test_poisson_traffic_is_seed_deterministic():
    traffic = PoissonTraffic(rate_msgs_per_s=0.1, duration_s=200.0)
    topology = _line()
    first = traffic.messages(topology, np.random.default_rng(5))
    second = traffic.messages(topology, np.random.default_rng(5))
    different = traffic.messages(topology, np.random.default_rng(6))
    assert first == second
    assert first != different


def test_cbr_traffic_is_seed_deterministic_and_phase_shifted():
    traffic = CBRTraffic(interval_s=10.0, duration_s=60.0, destination="n0")
    topology = _line()
    first = traffic.messages(topology, np.random.default_rng(1))
    second = traffic.messages(topology, np.random.default_rng(99))
    # CBR timing consumes no randomness at all: any seed, same schedule.
    assert first == second
    # Sources start phase-shifted across the interval, not synchronized.
    first_times = sorted({m.time_s for m in first if m.time_s < 10.0})
    assert len(first_times) == 3
    assert all(m.destination == "n0" for m in first)
    assert all(m.source != "n0" for m in first)


def test_sos_traffic_ignores_rng_and_sorts_times():
    traffic = SosBroadcastTraffic("n1", times_s=(30.0, 0.0, 60.0))
    topology = _line()
    first = traffic.messages(topology, np.random.default_rng(1))
    second = traffic.messages(topology, np.random.default_rng(2))
    assert first == second
    assert [m.time_s for m in first] == [0.0, 30.0, 60.0]
    assert all(m.destination == BROADCAST for m in first)
    assert all(m.source == "n1" for m in first)


def test_messages_are_time_sorted():
    traffic = PoissonTraffic(rate_msgs_per_s=0.2, duration_s=100.0)
    messages = traffic.messages(_line(), np.random.default_rng(3))
    times = [m.time_s for m in messages]
    assert times == sorted(times)
    assert all(t < 100.0 for t in times)


# --------------------------------------------------------- destination picks
def test_pick_destination_fixed_destination_wins():
    rng = np.random.default_rng(0)
    assert _pick_destination("n0", "n3", _line(), rng) == "n3"


def test_pick_destination_two_node_topology_always_picks_the_peer():
    rng = np.random.default_rng(0)
    topology = _line(2)
    for _ in range(10):
        assert _pick_destination("n0", None, topology, rng) == "n1"
        assert _pick_destination("n1", None, topology, rng) == "n0"


def test_pick_destination_never_picks_the_source():
    rng = np.random.default_rng(7)
    topology = _line(5)
    picks = {_pick_destination("n2", None, topology, rng) for _ in range(200)}
    assert "n2" not in picks
    assert picks == {"n0", "n1", "n3", "n4"}


def test_pick_destination_requires_a_peer():
    topology = line_topology(1, spacing_m=8.0, comm_range_m=10.0)
    with pytest.raises(ValueError, match="at least two nodes"):
        _pick_destination("n0", None, topology, np.random.default_rng(0))


def test_sources_exclude_a_fixed_destination():
    traffic = CBRTraffic(interval_s=20.0, duration_s=60.0, destination="n2")
    messages = traffic.messages(_line(), np.random.default_rng(0))
    assert {m.source for m in messages} == {"n0", "n1", "n3"}


def test_explicit_sources_are_respected():
    traffic = PoissonTraffic(
        rate_msgs_per_s=0.5, duration_s=60.0, sources=("n1",), destination="n0"
    )
    messages = traffic.messages(_line(), np.random.default_rng(4))
    assert messages
    assert {m.source for m in messages} == {"n1"}


def test_unknown_sos_source_rejected():
    traffic = SosBroadcastTraffic("nope")
    with pytest.raises(ValueError, match="unknown SOS source"):
        traffic.messages(_line(), np.random.default_rng(0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PoissonTraffic(rate_msgs_per_s=0.0, duration_s=10.0)
    with pytest.raises(ValueError):
        CBRTraffic(interval_s=-1.0, duration_s=10.0)
    with pytest.raises(ValueError, match="times_s"):
        SosBroadcastTraffic("n0", times_s=())
