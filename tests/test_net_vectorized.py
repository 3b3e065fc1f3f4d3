"""Equivalence gates for the vectorized topology/scheduler/metrics engine.

The vectorized engine (array-backed topology with a spatial-hash grid,
cached neighbour tables and fan-out lists, batched link draws) must be a
pure performance change: every scenario, validation envelope and trace
fixture committed before it has to reproduce bit for bit.  These tests
pin that contract from several directions -- committed golden scenario
signatures, brute-force neighbour oracles on randomized deployments, the
scalar routing reference in :mod:`oracles.net`, the scheduler's
same-instant order (several events at one time run in key, then
insertion order, one at a time) and the metrics row list.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles.net import greedy_next_hops_reference

from repro.channel.physics import SOUND_SPEED_M_S
from repro.experiments.net_scenario import NetScenario
from repro.net.links import CalibratedLink
from repro.net.metrics import DeliveryRecord, NetworkMetrics
from repro.net.packet import NetPacket
from repro.net.routing import GreedyForwarding
from repro.net.scheduler import Scheduler
from repro.net.topology import AcousticNetTopology

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "net_golden_scenarios.json"


def _run_golden_case(case: dict) -> dict:
    return NetScenario(**case["scenario"]).run().to_dict()


def _golden_entries():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "index", range(len(_golden_entries())),
    ids=lambda i: f"case{i}",
)
def test_golden_scenarios_reproduce_bit_identically(index):
    """Every pre-vectorization scenario signature must replay exactly.

    Every key the *pre-refactor* engine reported keeps the value it
    committed (the congestion and resilience keys every report now
    carries were added later without moving one), so a single low-bit
    drift in distances, delays, RNG draw order, airtime accumulation or
    event interleaving fails this test.
    """
    entry = _golden_entries()[index]
    assert _run_golden_case(entry["case"]) == entry["metrics"]


# ------------------------------------------------------------ spatial grid
def _brute_force_neighbors(topology, name):
    """Oracle: the original all-pairs sorted-by-(distance, name) scan."""
    candidates = sorted(
        (topology.distance_m(name, other), other)
        for other in topology.names
        if other != name and topology.distance_m(name, other) <= topology.comm_range_m
    )
    return tuple(other for _, other in candidates)


def _assert_grid_matches_brute_force(topology, seed):
    for name in topology.names:
        expected = _brute_force_neighbors(topology, name)
        table = topology.neighbor_table(name)
        assert table.names == expected, (
            f"seed {seed}: spatial grid disagrees with brute force at "
            f"{name!r}: {table.names} != {expected}"
        )
        for neighbor, distance, delay in zip(
            table.names, table.distances_m, table.delays_s
        ):
            assert distance == topology.distance_m(name, neighbor)
            assert delay == topology.distance_m(name, neighbor) / SOUND_SPEED_M_S


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_spatial_grid_matches_brute_force_on_random_deployments(seed):
    topology = AcousticNetTopology.random_deployment(
        40, (80.0, 80.0), comm_range_m=18.0, seed=seed
    )
    _assert_grid_matches_brute_force(topology, seed)


def test_spatial_grid_handles_cell_boundary_straddling():
    """Pairs straddling a cell boundary at exactly the range limit.

    Cell size equals ``comm_range_m``, so a pair separated by one full
    range sits in non-adjacent-looking corners of neighbouring cells --
    the classic off-by-one in 3x3 cell scans.
    """
    topology = AcousticNetTopology(comm_range_m=10.0)
    topology.add_node("a", 0.0, 0.0, 1.0)
    topology.add_node("b", 10.0, 0.0, 1.0)   # exactly at range (same depth)
    topology.add_node("c", 9.999, 0.0, 1.0)  # just inside, next cell
    topology.add_node("d", 10.6, 0.0, 1.0)   # just outside after depth
    topology.add_node("e", -0.001, 0.0, 1.0)  # negative-coordinate cell
    _assert_grid_matches_brute_force(topology, "boundary")
    assert "b" in topology.neighbors("a")  # <= is inclusive at the limit


# ------------------------------------------------------------------ routing
@pytest.mark.parametrize("mode", ["distance", "depth"])
@pytest.mark.parametrize("seed", [0, 11, 23])
def test_greedy_next_hops_matches_scalar_reference(mode, seed):
    topology = AcousticNetTopology.random_deployment(
        30, (70.0, 70.0), comm_range_m=16.0, seed=seed
    )
    routing = GreedyForwarding(mode)
    # The per-hop geometry is scalar Python; it must equal the numpy
    # expressions it replaced bit for bit.
    xyz = np.array([
        (p.x_m, p.y_m, p.depth_m) for p in map(topology.position, topology.names)
    ])
    for destination in ("n0", "n17", "n29"):
        target = xyz[topology.index_of(destination)]
        for node in topology.names:
            indices = topology.neighbor_table(node).indices
            dx = xyz[indices, 0] - target[0]
            dy = xyz[indices, 1] - target[1]
            dz = xyz[indices, 2] - target[2]
            assert np.array(topology.distances_to(indices, destination)).tobytes() == (
                np.sqrt(dx * dx + dy * dy + dz * dz).tobytes()
            )
            assert np.array(topology.depths_of(indices)).tobytes() == (
                xyz[indices, 2].tobytes()
            )
            pa, pb = xyz[topology.index_of(node)], target
            assert topology.distance_m(node, destination) == math.sqrt(
                (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2 + (pa[2] - pb[2]) ** 2
            )
            if node == destination:
                continue
            packet = NetPacket(
                uid=1, kind="raw", source=node, destination=destination,
                created_s=0.0,
            )
            assert routing.next_hops(node, packet, topology) == (
                greedy_next_hops_reference(mode, node, destination, topology)
            ), f"seed {seed} mode {mode}: {node} -> {destination}"


# ---------------------------------------------------------------- link model
def test_deliver_many_consumes_the_same_rng_stream_as_deliver():
    link = CalibratedLink()
    distances = np.array([5.0, 25.0, 60.0, 110.0, 170.0, 60.0])
    batched = link.deliver_many(distances, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    scalar = [link.deliver(float(d), rng) for d in distances]
    assert [o.delivered for o in batched] == [o.delivered for o in scalar]
    assert [o.bitrate_bps for o in batched] == [o.bitrate_bps for o in scalar]
    assert [o.packet_error_rate for o in batched] == (
        [o.packet_error_rate for o in scalar]
    )


def test_calibrated_airtime_memo_matches_base_formula():
    from repro.net.links import LinkModel

    link = CalibratedLink()
    for size_bits, distance in [(16, 40.0), (8, 40.0), (16, 150.0), (1024, 5.0)]:
        expected = LinkModel.airtime_s(link, size_bits, distance)
        assert link.airtime_s(size_bits, distance) == expected
        assert link.airtime_s(size_bits, distance) == expected  # memo hit


# ---------------------------------------------------------------- scheduler
def test_scheduler_run_drains_same_time_cohorts_in_sequence_order():
    scheduler = Scheduler()
    order = []
    for tag in "abc":
        scheduler.at(1.0, lambda t=tag: order.append(t))
    scheduler.at(0.5, lambda: order.append("early"))
    assert scheduler.run() == 4
    assert order == ["early", "a", "b", "c"]
    assert scheduler.num_processed == 4
    assert scheduler.num_pending == 0


def test_scheduler_cohort_events_can_schedule_at_the_same_instant():
    """Events a cohort member schedules for *now* run after the cohort."""
    scheduler = Scheduler()
    order = []

    def spawn():
        order.append("spawn")
        scheduler.at(1.0, lambda: order.append("child"))

    scheduler.at(1.0, spawn)
    scheduler.at(1.0, lambda: order.append("sibling"))
    scheduler.run()
    assert order == ["spawn", "sibling", "child"]


def test_scheduler_mid_cohort_cancellation_is_honoured():
    """An event may cancel a same-time event that was already popped into
    the executing cohort; the victim must not run."""
    scheduler = Scheduler()
    order = []
    handles = {}

    def killer():
        order.append("killer")
        scheduler.cancel(handles["victim"])

    scheduler.at(2.0, killer)  # lower sequence: runs first in the cohort
    handles["victim"] = scheduler.at(2.0, lambda: order.append("victim"))
    scheduler.run()
    assert order == ["killer"]
    assert scheduler.num_pending == 0


def test_scheduler_max_events_stops_inside_a_cohort():
    scheduler = Scheduler()
    order = []
    for tag in range(5):
        scheduler.at(3.0, lambda t=tag: order.append(t))
    assert scheduler.run(max_events=2) == 2
    assert order == [0, 1]
    assert scheduler.num_pending == 3
    assert scheduler.run() == 3
    assert order == [0, 1, 2, 3, 4]


def test_scheduler_until_s_leaves_future_cohort_queued():
    scheduler = Scheduler()
    order = []
    scheduler.at(1.0, lambda: order.append("now"))
    scheduler.at(5.0, lambda: order.append("later"))
    scheduler.run(until_s=2.0)
    assert order == ["now"]
    assert scheduler.now_s == 2.0
    assert scheduler.num_pending == 1


# ------------------------------------------------------------------ metrics
def test_metrics_keeps_rows_in_settlement_order():
    metrics = NetworkMetrics()
    total = 300
    for uid in range(total):
        delivered = float(uid) + 0.5 if uid % 3 else float("nan")
        metrics.record_delivery(
            uid, f"s{uid % 7}", f"d{uid % 5}", float(uid),
            delivered, hop_count=uid % 4, kind="data" if uid % 2 else "raw",
        )
    assert metrics.offered == total
    assert metrics.delivered == sum(1 for uid in range(total) if uid % 3)
    records = metrics.records
    assert len(records) == total
    assert records[4] == DeliveryRecord(
        uid=4, source="s4", destination="d4", created_s=4.0,
        delivered_s=4.5, hop_count=0, kind="raw",
    )
    lost = records[0]
    assert math.isnan(lost.delivered_s)
    assert [r.uid for r in records] == list(range(total))


def test_metrics_record_delivery_and_add_build_the_same_rows():
    """record_delivery (from fields) and add(DeliveryRecord) must build
    the same rows and so the same report."""
    rows = [
        (uid, f"n{uid % 3}", "n9", uid * 0.25,
         uid * 0.25 + 1.5 if uid % 4 else float("nan"), uid % 5,
         "data" if uid % 2 else "broadcast")
        for uid in range(50)
    ]
    fast = NetworkMetrics()
    slow = NetworkMetrics()
    for uid, src, dst, created, delivered, hops, kind in rows:
        fast.record_delivery(uid, src, dst, created, delivered, hops, kind)
        slow.add(DeliveryRecord(uid, src, dst, created, delivered, hops, kind))
    assert fast.to_dict() == slow.to_dict()
    assert list(fast.latencies_s()) == list(slow.latencies_s())
    # NaN != NaN defeats dataclass equality on lost records; compare reprs.
    assert list(map(repr, fast.records)) == list(map(repr, slow.records))


def test_metrics_constructor_accepts_seeded_records():
    record = DeliveryRecord(1, "a", "b", 0.0, 2.0, 3, "data")
    metrics = NetworkMetrics(records=[record], transmissions=4)
    assert metrics.offered == 1
    assert metrics.delivered == 1
    assert metrics.transmissions == 4
    assert metrics.records == [record]


# ------------------------------------------------------ 1000-node smoke path
def test_thousand_node_greedy_completes_quickly():
    """The headline scale target: 1000 nodes, greedy unicast, seconds."""
    scenario = NetScenario(
        num_nodes=1000, topology="grid", routing="greedy", arq="none",
        rate_msgs_per_s=0.01, duration_s=20.0, destination="n0",
        ttl=80, seed=7,
    )
    result = scenario.run()
    assert result.num_nodes == 1000
    assert result.metrics.offered > 0
    assert result.num_events > 0
