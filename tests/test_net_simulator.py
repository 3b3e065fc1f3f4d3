"""Tests for the multi-hop network simulator."""

import gc
import time
import weakref

import numpy as np
import pytest

from _topologies import grid_topology, line_topology
from repro.experiments.net_scenario import NetScenario
from repro.faults import load_schedule
from repro.net.links import CalibratedLink, LinkCalibration, PhysicalLink
from repro.net.metrics import DeliveryRecord, NetworkMetrics
from repro.net.packet import BROADCAST
from repro.net.routing import (
    FloodingRouting,
    GreedyForwarding,
    StaticShortestPathRouting,
)
from repro.net.simulator import NetworkSimulator
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import CBRTraffic, PoissonTraffic, SosBroadcastTraffic
from repro.net.transport import ArqConfig


def _lossless_link() -> CalibratedLink:
    return CalibratedLink(LinkCalibration(
        site_name="lake", distances_m=(1.0, 40.0),
        packet_error_rate=(0.0, 0.0), bitrate_bps=(1000.0, 1000.0),
    ))


def _line(num=4, spacing=8.0, comm_range=10.0):
    return line_topology(num, spacing_m=spacing, comm_range_m=comm_range)


# ----------------------------------------------------------------- basic runs
def test_raw_unicast_multi_hop_delivery():
    simulator = NetworkSimulator(
        _line(4), StaticShortestPathRouting(), _lossless_link(), seed=1
    )
    simulator.send_message("n0", "n3", time_s=0.0)
    result = simulator.run()
    assert result.metrics.delivered == 1
    assert result.metrics.packet_delivery_ratio == 1.0
    record = result.metrics.records[0]
    assert record.hop_count == 3
    assert record.latency_s > 3 * 0.4  # at least three airtimes
    assert result.metrics.transmissions == 3
    assert result.routing_name == "shortest-path"
    assert result.link_name == "calibrated"


def test_greedy_multi_hop_agrees_with_shortest_path_on_a_line():
    for routing in (GreedyForwarding("distance"), StaticShortestPathRouting()):
        simulator = NetworkSimulator(_line(5), routing, _lossless_link(), seed=2)
        simulator.send_message("n0", "n4")
        result = simulator.run()
        assert result.metrics.packet_delivery_ratio == 1.0
        assert result.metrics.records[0].hop_count == 4


def test_flooding_broadcast_reaches_everyone_and_suppresses_duplicates():
    # Diagonal neighbours are audible (range 9 > 8.49 m), so carrier sense
    # can defer contending relays and the flood covers the grid.
    topology = grid_topology(3, 3, spacing_m=6.0, comm_range_m=9.0)
    simulator = NetworkSimulator(
        topology, FloodingRouting(), _lossless_link(), seed=3
    )
    simulator.send_message("n0", BROADCAST)
    result = simulator.run()
    # One record per other node, all reached.
    assert result.metrics.offered == 8
    assert result.metrics.packet_delivery_ratio == 1.0
    assert result.metrics.duplicates_suppressed > 0
    assert result.metrics.max_hop_count >= 2


def test_hidden_terminals_defeat_carrier_sense():
    # At range 7 the centre node's only neighbours are mutually *hidden*
    # pairs (8.49 m apart): they cannot hear each other, their relayed
    # copies collide at the centre deterministically, and the flood falls
    # short -- the imperfect-carrier-sense effect the paper measures.
    topology = grid_topology(3, 3, spacing_m=6.0, comm_range_m=7.0)
    simulator = NetworkSimulator(
        topology, FloodingRouting(), _lossless_link(), seed=3
    )
    simulator.send_message("n0", BROADCAST)
    result = simulator.run()
    assert result.metrics.collisions > 0
    assert result.metrics.packet_delivery_ratio < 1.0


def test_ttl_expiry_drops_instead_of_looping():
    simulator = NetworkSimulator(
        _line(5), StaticShortestPathRouting(), _lossless_link(), ttl=2, seed=4
    )
    simulator.send_message("n0", "n4")  # needs 4 hops, budget is 2
    result = simulator.run()
    assert result.metrics.delivered == 0
    assert result.metrics.ttl_drops == 1


def test_greedy_void_is_counted_not_hung():
    topology = AcousticNetTopology(comm_range_m=6.0)
    topology.add_node("src", 0.0, 0.0)
    topology.add_node("back", -5.0, 0.0)
    topology.add_node("dst", 20.0, 0.0)
    simulator = NetworkSimulator(
        topology, GreedyForwarding("distance"), _lossless_link(), seed=5
    )
    simulator.send_message("src", "dst")
    result = simulator.run()
    assert result.metrics.delivered == 0
    assert result.metrics.routing_voids == 1


# ------------------------------------------------------------------ transport
def test_arq_flow_delivers_across_hops():
    simulator = NetworkSimulator(
        _line(4), StaticShortestPathRouting(), _lossless_link(),
        arq=ArqConfig(window_size=3, seq_modulus=8, timeout_s=6.0), seed=6,
    )
    for index in range(5):
        simulator.send_message("n0", "n3", time_s=float(index))
    result = simulator.run()
    assert result.metrics.packet_delivery_ratio == 1.0
    assert result.metrics.offered == 5
    flows = list(result.metrics.flows.values())
    assert len(flows) == 1
    assert flows[0].offered == flows[0].delivered == 5


def test_arq_recovers_lossy_links_that_raw_does_not():
    lossy = CalibratedLink(LinkCalibration(
        site_name="lake", distances_m=(1.0, 40.0),
        packet_error_rate=(0.35, 0.35), bitrate_bps=(1000.0, 1000.0),
    ))

    def run(arq):
        simulator = NetworkSimulator(
            _line(3), StaticShortestPathRouting(), lossy, arq=arq, seed=7,
        )
        for index in range(12):
            simulator.send_message("n0", "n2", time_s=12.0 * index)
        return simulator.run()

    raw = run(None)
    reliable = run(ArqConfig(window_size=2, seq_modulus=8, timeout_s=4.0,
                             max_retries=6))
    assert reliable.metrics.packet_delivery_ratio > raw.metrics.packet_delivery_ratio
    assert reliable.total_retransmissions > 0


def test_collision_then_retry_sequencing():
    # Two sources fire at the same instant at a common receiver: the first
    # receptions overlap and collide, then the ARQ timers (with jitter)
    # desynchronize the retries and both messages get through.
    topology = AcousticNetTopology(comm_range_m=10.0)
    topology.add_node("a", 0.0, 0.0)
    topology.add_node("b", 8.0, 0.0)
    topology.add_node("dst", 4.0, 3.0)
    simulator = NetworkSimulator(
        topology, GreedyForwarding("distance"), _lossless_link(),
        arq=ArqConfig(window_size=2, seq_modulus=8, timeout_s=3.0,
                      max_retries=8), seed=11,
    )
    simulator.send_message("a", "dst", time_s=0.0)
    simulator.send_message("b", "dst", time_s=0.0)
    result = simulator.run()
    assert result.metrics.collisions > 0           # the first attempts clashed
    assert result.metrics.packet_delivery_ratio == 1.0  # retries resolved it
    assert result.total_retransmissions > 0


def test_aborted_flows_are_reported():
    dead = CalibratedLink(LinkCalibration(
        site_name="lake", distances_m=(1.0, 40.0),
        packet_error_rate=(1.0, 1.0), bitrate_bps=(1000.0, 1000.0),
    ))
    simulator = NetworkSimulator(
        _line(2), StaticShortestPathRouting(), dead,
        arq=ArqConfig(window_size=2, seq_modulus=8, timeout_s=1.0,
                      max_retries=1), seed=8,
    )
    simulator.send_message("n0", "n1")
    result = simulator.run()
    assert result.metrics.delivered == 0
    assert result.aborted_flows == 1
    assert "aborted" in result.describe()
    assert result.to_dict()["aborted_flows"] == 1


# ------------------------------------------------------------- reproducibility
def test_same_seed_replays_identically():
    def run():
        simulator = NetworkSimulator(
            _line(5), GreedyForwarding("distance"), CalibratedLink(),
            arq=ArqConfig(), seed=42,
        )
        traffic = PoissonTraffic(0.05, 120.0, destination="n4")
        return simulator.run(traffic=traffic)

    first, second = run(), run()
    assert first.to_dict() == second.to_dict()
    assert first.num_events == second.num_events


def test_different_seeds_differ():
    def run(seed):
        simulator = NetworkSimulator(
            _line(5), GreedyForwarding("distance"), CalibratedLink(),
            arq=ArqConfig(), seed=seed,
        )
        return simulator.run(traffic=PoissonTraffic(0.05, 120.0, destination="n4"))

    assert run(1).to_dict() != run(2).to_dict()


def test_simulator_is_one_shot():
    simulator = NetworkSimulator(_line(3), FloodingRouting(), _lossless_link(), seed=1)
    simulator.run()
    with pytest.raises(RuntimeError):
        simulator.run()
    with pytest.raises(ValueError):
        NetworkSimulator(
            line_topology(1, 5.0), FloodingRouting(), _lossless_link()
        )


def test_unknown_addresses_rejected():
    simulator = NetworkSimulator(_line(3), FloodingRouting(), _lossless_link(), seed=1)
    with pytest.raises(ValueError):
        simulator.send_message("ghost", "n0")
    with pytest.raises(ValueError):
        simulator.send_message("n0", "ghost")


# -------------------------------------------------------------------- traffic
def test_traffic_generators_drive_the_simulator():
    topology = _line(3)
    rng = np.random.default_rng(0)
    poisson = PoissonTraffic(0.1, 60.0, destination="n2").messages(topology, rng)
    assert poisson and all(m.destination == "n2" for m in poisson)
    assert all(0.0 <= m.time_s < 60.0 for m in poisson)
    assert poisson == sorted(poisson, key=lambda m: (m.time_s, m.source))

    cbr = CBRTraffic(10.0, 60.0, destination="n2").messages(topology, rng)
    assert len(cbr) == 12  # 2 sources x 6 messages
    sos = SosBroadcastTraffic("n0", times_s=(0.0, 30.0)).messages(topology, rng)
    assert [m.destination for m in sos] == [BROADCAST, BROADCAST]
    with pytest.raises(ValueError):
        SosBroadcastTraffic("ghost").messages(topology, rng)


# -------------------------------------------------------------------- metrics
def test_metrics_empty_and_aggregates():
    metrics = NetworkMetrics()
    assert np.isnan(metrics.packet_delivery_ratio)
    assert np.isnan(metrics.mean_latency_s)
    assert metrics.max_hop_count == 0
    metrics.add(DeliveryRecord(0, "a", "b", 0.0, delivered_s=2.0, hop_count=2))
    metrics.add(DeliveryRecord(1, "a", "b", 1.0))  # lost
    assert metrics.packet_delivery_ratio == pytest.approx(0.5)
    assert metrics.mean_latency_s == pytest.approx(2.0)
    assert metrics.mean_hop_count == pytest.approx(2.0)
    assert metrics.goodput_bps(10.0) == pytest.approx(1.6)
    metrics.tx_airtime_s = 2.0
    metrics.rx_airtime_s = 1.0
    assert metrics.energy_proxy_j == pytest.approx(2.8 * 2.0 + 1.3 * 1.0)
    data = metrics.to_dict()
    assert data["offered"] == 2 and data["delivered"] == 1


# ------------------------------------------------- acceptance: speed + fidelity
def test_fifty_node_greedy_scenario_is_fast():
    topology = grid_topology(5, 10, spacing_m=8.0, comm_range_m=12.0)
    simulator = NetworkSimulator(
        topology, GreedyForwarding("distance"), CalibratedLink(),
        arq=ArqConfig(timeout_s=6.0), seed=7,
    )
    start = time.perf_counter()
    result = simulator.run(
        traffic=PoissonTraffic(0.01, 300.0, destination="n0")
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0  # acceptance bound; typically well under 1 s
    assert result.num_nodes == 50
    assert result.metrics.offered > 20
    assert result.metrics.max_hop_count >= 3
    assert np.isfinite(result.metrics.packet_delivery_ratio)
    assert np.isfinite(result.metrics.mean_latency_s)
    assert np.isfinite(result.metrics.mean_hop_count)


def test_calibrated_link_agrees_with_physical_link():
    # The same 5-node chain, the same CBR workload: the fast table model
    # must agree with the full PHY on delivery outcomes within statistical
    # tolerance -- this is what "calibrated" means.
    def run(link_model, seed):
        simulator = NetworkSimulator(
            _line(5, spacing=10.0, comm_range=12.0),
            StaticShortestPathRouting(), link_model,
            arq=ArqConfig(window_size=2, seq_modulus=8, timeout_s=8.0,
                          max_retries=4),
            seed=seed,
        )
        traffic = CBRTraffic(30.0, 120.0, sources=("n1",), destination="n4")
        return simulator.run(traffic=traffic)

    calibrated = run(CalibratedLink(), 21)
    physical = run(PhysicalLink(site="lake", seed=22), 21)
    pdr_gap = abs(
        calibrated.metrics.packet_delivery_ratio
        - physical.metrics.packet_delivery_ratio
    )
    assert pdr_gap <= 0.5
    # Both models route over the same chain: identical hop counts.
    if calibrated.metrics.delivered and physical.metrics.delivered:
        assert calibrated.metrics.max_hop_count == physical.metrics.max_hop_count


def test_dive_group_over_physical_link_collides_then_delivers():
    # The Fig. 19 topology over the full PHY: three divers 5, 7 and 9 m
    # from their leader, all in carrier-sense range of each other, send
    # two messages each at the same instant.  The first copies collide at
    # the leader; go-back-n retries (with jitter) then get them through.
    def run():
        topology = AcousticNetTopology(comm_range_m=15.0)
        topology.add_node("leader", 0.0, 0.0)
        topology.add_node("d5", 5.0, 0.0)
        topology.add_node("d7", 0.0, 7.0)
        topology.add_node("d9", -9.0, 0.0)
        simulator = NetworkSimulator(
            topology, GreedyForwarding("distance"), PhysicalLink(site="bridge"),
            arq=ArqConfig(mode="go-back-n", window_size=2, seq_modulus=8,
                          timeout_s=3.0, max_retries=2),
            seed=5,
        )
        for diver in ("d5", "d7", "d9"):
            for _ in range(2):
                simulator.send_message(diver, "leader", time_s=0.0)
        return simulator.run()

    result = run()
    assert result.metrics.offered == 6
    assert result.metrics.collisions > 0
    assert result.total_retransmissions > 0
    # Seeds 1-10 all measured a PDR of 1.0 (3-9 collisions each); the
    # floor leaves room for one lost message.
    assert result.metrics.packet_delivery_ratio >= 0.8
    assert run().to_dict() == result.to_dict()


@pytest.mark.parametrize("config", ["greedy-go-back-n", "flooding-no-arq", "faults"])
def test_finished_simulator_is_freed_without_the_cycle_collector(config):
    # Nothing a finished run keeps -- fired events in the reception lists,
    # per-flow timers, the fault injector -- may refer back to the
    # simulator, so dropping it frees it by reference counting alone.
    scenario = {
        "greedy-go-back-n": NetScenario(num_nodes=25, seed=5),
        "flooding-no-arq": NetScenario(
            num_nodes=12, routing="flooding", arq="none", seed=5
        ),
        "faults": NetScenario(
            num_nodes=24, routing="shortest-path", duration_s=300.0,
            rate_msgs_per_s=0.03, destination="n23", seed=7,
        ).with_faults(load_schedule("tests/data/faults_churn_24node.json")),
    }[config]
    gc.collect()
    gc.disable()
    try:
        simulator = scenario.build_simulator()
        result = simulator.run(traffic=scenario.build_traffic())
        assert result.metrics.offered > 0
        if config == "faults":
            assert result.metrics.node_crashes > 0
        finished = weakref.ref(simulator)
        del simulator
        assert finished() is None
    finally:
        gc.enable()
