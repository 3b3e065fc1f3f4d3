"""Tests for repro.faults: schedules, liveness, injection, resilience."""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corruption import (
    BYTE_DAMAGE,
    FIELD_VALUES,
    damage_bytes,
    json_paths,
    replace_at,
)
from _topologies import line_topology
from repro.cli import main
from repro.experiments.net_scenario import NetScenario
from repro.faults import (
    FAULTS_FORMAT,
    FAULTS_VERSION,
    ChurnProcess,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    NeighborLivenessTracker,
    load_schedule,
)
from repro.net.links import CalibratedLink, LinkCalibration
from repro.net.routing import FloodingRouting, StaticShortestPathRouting
from repro.net.simulator import NetworkSimulator
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import PoissonTraffic, SosBroadcastTraffic
from repro.net.transport import ArqConfig
from repro.trace.capture import TraceRecorder


def _lossless_link() -> CalibratedLink:
    return CalibratedLink(LinkCalibration(
        site_name="lake", distances_m=(1.0, 40.0),
        packet_error_rate=(0.0, 0.0), bitrate_bps=(1000.0, 1000.0),
    ))


def _grid(n=3, spacing=8.0, comm_range=12.0):
    topology = AcousticNetTopology(comm_range_m=comm_range)
    for index in range(n * n):
        topology.add_node(
            f"n{index}", (index % n) * spacing, (index // n) * spacing, 1.0
        )
    return topology


# ---------------------------------------------------------------- schedule
def test_schedule_round_trips_through_canonical_json(tmp_path):
    schedule = FaultSchedule(
        events=(
            FaultEvent("crash", 30.0, node="n3", duration_s=60.0),
            FaultEvent("link-degrade", 10.0, node="n0", peer="n1",
                       duration_s=40.0, snr_penalty_db=3.0),
            FaultEvent("noise-burst", 5.0, duration_s=20.0, per_inflation=0.3),
            FaultEvent("energy-deplete", 0.0, node="n2", energy_budget_j=5.0),
        ),
        churn=ChurnProcess(rate_per_node_per_s=0.01, mean_downtime_s=30.0,
                           end_s=200.0, seed=7, protect=("n0",)),
        repair=False, beacon_interval_s=5.0, miss_threshold=2, seed=11,
    )
    assert FaultSchedule.from_json(schedule.to_json()) == schedule
    data = schedule.to_dict()
    assert data["format"] == FAULTS_FORMAT
    assert data["version"] == FAULTS_VERSION
    path = tmp_path / "sched.json"
    schedule.save(path)
    assert load_schedule(path) == schedule


def test_schedule_rejects_foreign_and_wrong_version_documents():
    with pytest.raises(ValueError, match="not a repro.faults document"):
        FaultSchedule.from_dict({"format": "other", "version": 1})
    with pytest.raises(ValueError, match="unsupported fault-schedule version"):
        FaultSchedule.from_dict({"format": FAULTS_FORMAT, "version": 99})


def test_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("melt", 0.0)
    with pytest.raises(ValueError, match="need a node"):
        FaultEvent("crash", 0.0)
    with pytest.raises(ValueError, match="need a node and a peer"):
        FaultEvent("link-blackout", 0.0, node="n0", duration_s=5.0)
    with pytest.raises(ValueError, match="duration_s > 0"):
        FaultEvent("noise-burst", 0.0)
    with pytest.raises(ValueError, match="energy_budget_j > 0"):
        FaultEvent("energy-deplete", 0.0, node="n1")
    with pytest.raises(ValueError, match="per_inflation"):
        FaultEvent("noise-burst", 0.0, duration_s=1.0, per_inflation=1.5)


def test_event_inflation_semantics():
    blackout = FaultEvent("link-blackout", 0.0, node="a", peer="b", duration_s=1.0)
    assert blackout.inflation == 1.0
    direct = FaultEvent("link-degrade", 0.0, node="a", peer="b",
                        duration_s=1.0, per_inflation=0.25)
    assert direct.inflation == 0.25
    snr = FaultEvent("link-degrade", 0.0, node="a", peer="b",
                     duration_s=1.0, snr_penalty_db=3.0)
    assert snr.inflation == pytest.approx(1.0 - 10.0 ** -0.3)


def test_churn_expansion_is_seed_deterministic_and_respects_protection():
    churn = ChurnProcess(rate_per_node_per_s=0.02, mean_downtime_s=40.0,
                         end_s=500.0, seed=5, protect=("n0", "n3"))
    names = tuple(f"n{i}" for i in range(6))
    first = churn.expand(names)
    assert first == churn.expand(names)
    assert first  # dense enough to actually produce events
    assert all(event.kind == "crash" and event.duration_s > 0 for event in first)
    assert {event.node for event in first} <= set(names) - {"n0", "n3"}
    assert all(
        event.time_s <= later.time_s for event, later in zip(first, first[1:])
    )
    # A different seed reshuffles the draws.
    assert dataclasses.replace(churn, seed=6).expand(names) != first


def test_schedule_expand_merges_explicit_and_churn_events():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 1.0, node="n1", duration_s=2.0),),
        churn=ChurnProcess(rate_per_node_per_s=0.05, mean_downtime_s=10.0,
                           end_s=100.0, seed=1),
    )
    names = ("n0", "n1", "n2")
    expanded = schedule.expand(names)
    assert len(expanded) > 1
    assert FaultEvent("crash", 1.0, node="n1", duration_s=2.0) in expanded
    assert not schedule.is_empty
    assert FaultSchedule().is_empty
    assert schedule.with_repair(False).repair is False
    assert schedule.with_repair(False).events == schedule.events


# ---------------------------------------------------------------- liveness
def test_tracker_declares_dead_after_miss_threshold_and_rediscovers():
    tracker = NeighborLivenessTracker(("a", "b", "c"), 10.0, 3)
    assert tracker.detection_delay_s == 30.0
    # b goes silent at t=0; threshold crossed at t>=30.
    assert tracker.tick(10.0, {"b"}) == ([], [])
    assert tracker.tick(20.0, {"b"}) == ([], [])
    dead, alive = tracker.tick(30.0, {"b"})
    assert dead == ["b"] and alive == []
    # still down: no duplicate declaration
    assert tracker.tick(40.0, {"b"}) == ([], [])
    # everyone beacons: exactly the believed-dead set {b} is rediscovered
    dead, alive = tracker.tick(50.0, set())
    assert dead == [] and alive == ["b"]
    # nobody is believed dead any more, so nobody is rediscovered
    assert tracker.tick(60.0, set()) == ([], [])


def test_tracker_short_outage_below_threshold_is_never_declared():
    tracker = NeighborLivenessTracker(("a", "b"), 10.0, 3)
    tracker.tick(10.0, {"b"})
    tracker.tick(20.0, {"b"})
    assert tracker.tick(30.0, set()) == ([], [])  # recovered just in time
    # b was never believed dead: hearing everyone rediscovers nobody
    assert tracker.tick(40.0, set()) == ([], [])


def test_tracker_validation():
    with pytest.raises(ValueError):
        NeighborLivenessTracker(("a",), 0.0, 3)
    with pytest.raises(ValueError):
        NeighborLivenessTracker(("a",), 10.0, 0)


# ----------------------------------------------------- empty-schedule no-op
def test_empty_schedule_is_byte_identical_to_no_faults():
    def run(faults):
        simulator = NetworkSimulator(
            _grid(3), StaticShortestPathRouting(), _lossless_link(), seed=5,
            arq=ArqConfig(mode="go-back-n"), faults=faults,
        )
        traffic = PoissonTraffic(rate_msgs_per_s=0.05, duration_s=200.0,
                                 sources=("n0",), destination="n8")
        return simulator.run(traffic=traffic, until_s=2000.0)

    base = run(None).metrics.to_dict()
    empty = run(FaultInjector(FaultSchedule())).metrics.to_dict()
    assert json.dumps(base, sort_keys=True) == json.dumps(empty, sort_keys=True)


def test_injector_rejects_unknown_node_names():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 1.0, node="ghost"),)
    )
    simulator = NetworkSimulator(
        _grid(3), StaticShortestPathRouting(), _lossless_link(), seed=1,
        faults=FaultInjector(schedule),
    )
    simulator.send_message("n0", "n8")
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        simulator.run()


# ------------------------------------------------------- crash and recovery
def _run_grid(schedule, seed=5, rate=0.08, duration=400.0):
    faults = FaultInjector(schedule) if schedule is not None else None
    simulator = NetworkSimulator(
        _grid(3), StaticShortestPathRouting(), _lossless_link(), seed=seed,
        arq=ArqConfig(mode="go-back-n"), faults=faults,
    )
    traffic = PoissonTraffic(rate_msgs_per_s=rate, duration_s=duration,
                             sources=("n0",), destination="n8")
    return simulator.run(traffic=traffic, until_s=4000.0)


def test_crash_recovery_repair_cycle_and_dominance():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 100.0, node="n4", duration_s=150.0),),
        beacon_interval_s=10.0, miss_threshold=3,
    )
    on = _run_grid(schedule).metrics
    off = _run_grid(schedule.with_repair(False)).metrics
    assert on.node_crashes == off.node_crashes == 1
    assert on.node_recoveries == off.node_recoveries == 1
    # Repair observed the crash: exactly one eviction, detected one
    # detection-delay after the crash (first tick at/after crash+30).
    assert len(on.repair_times_s) == 1
    assert 30.0 <= on.mean_time_to_repair_s <= 40.0
    assert off.repair_times_s == []
    # Routing around the evicted relay strictly beats burning retries
    # into it for the whole outage.
    assert on.packet_delivery_ratio > off.packet_delivery_ratio
    assert on.to_dict()["repairs"] == 1
    assert "mean time-to-repair" in on.summary()


def test_same_seed_fault_runs_are_bit_identical():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 100.0, node="n4", duration_s=150.0),
                FaultEvent("noise-burst", 50.0, duration_s=60.0,
                           per_inflation=0.3)),
        seed=9,
    )
    first = _run_grid(schedule).metrics.to_dict()
    second = _run_grid(schedule).metrics.to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ------------------------------------------------------------- link windows
def test_link_blackout_severs_the_pair_for_the_window():
    topology = line_topology(3, spacing_m=8.0, comm_range_m=10.0)
    schedule = FaultSchedule(
        events=(FaultEvent("link-blackout", 0.0, node="n1", peer="n2",
                           duration_s=100.0),),
        repair=False,
    )
    simulator = NetworkSimulator(
        topology, StaticShortestPathRouting(), _lossless_link(), seed=1,
        faults=FaultInjector(schedule),
    )
    simulator.send_message("n0", "n2", time_s=1.0)    # inside the window
    simulator.send_message("n0", "n2", time_s=150.0)  # after it closes
    result = simulator.run(until_s=400.0)
    assert result.metrics.delivered == 1
    assert result.metrics.link_drops >= 1


def test_noise_burst_inflates_loss_from_the_injector_rng():
    def run(seed):
        schedule = FaultSchedule(
            events=(FaultEvent("noise-burst", 0.0, duration_s=500.0,
                               per_inflation=0.5),),
            repair=False, seed=seed,
        )
        topology = line_topology(2, spacing_m=8.0, comm_range_m=10.0)
        simulator = NetworkSimulator(
            topology, StaticShortestPathRouting(), _lossless_link(), seed=1,
            faults=FaultInjector(schedule),
        )
        traffic = PoissonTraffic(rate_msgs_per_s=0.2, duration_s=400.0,
                                 sources=("n0",), destination="n1")
        return simulator.run(traffic=traffic, until_s=600.0).metrics

    metrics = run(3)
    assert 0.2 < metrics.packet_delivery_ratio < 0.8
    assert metrics.link_drops > 0
    # The draws come from the schedule seed, not the simulation seed.
    assert run(3).link_drops == metrics.link_drops
    assert run(4).link_drops != metrics.link_drops


def test_overlapping_windows_combine_independently():
    schedule = FaultSchedule(
        events=(FaultEvent("link-degrade", 0.0, node="a", peer="b",
                           duration_s=10.0, per_inflation=0.5),
                FaultEvent("noise-burst", 0.0, duration_s=10.0,
                           per_inflation=0.5)),
        repair=False,
    )
    injector = FaultInjector(schedule)
    topology = AcousticNetTopology(comm_range_m=10.0)
    topology.add_node("a", 0.0, 0.0, 1.0)
    topology.add_node("b", 5.0, 0.0, 1.0)
    simulator = NetworkSimulator(
        topology, StaticShortestPathRouting(), _lossless_link(), seed=1,
        faults=injector,
    )
    simulator.send_message("a", "b", time_s=1.0)
    # Stop inside the window so both window-start events have fired but
    # neither window-end has.
    simulator.run(until_s=5.0)
    # Both windows cover (a, b): 1 - (1-.5)(1-.5) = 0.75.
    assert injector._inflation("a", "b") == pytest.approx(0.75)
    # Only the burst covers an unrelated pair.
    assert injector._inflation("a", "z") == pytest.approx(0.5)


# --------------------------------------------------------- energy depletion
def test_energy_depletion_shuts_the_node_down_once():
    schedule = FaultSchedule(
        events=(FaultEvent("energy-deplete", 0.0, node="n1",
                           energy_budget_j=2.0),),
        repair=False,
    )
    topology = line_topology(3, spacing_m=8.0, comm_range_m=10.0)
    simulator = NetworkSimulator(
        topology, StaticShortestPathRouting(), _lossless_link(), seed=1,
        faults=FaultInjector(schedule),
    )
    traffic = PoissonTraffic(rate_msgs_per_s=0.2, duration_s=400.0,
                             sources=("n0",), destination="n2")
    metrics = simulator.run(traffic=traffic, until_s=600.0).metrics
    assert metrics.node_crashes == 1
    assert metrics.node_recoveries == 0
    assert metrics.delivered < metrics.offered


# ------------------------------------------------------------ abort reasons
def test_flows_to_an_observed_dead_destination_abort_with_reason():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 50.0, node="n8"),),  # permanent
        beacon_interval_s=10.0, miss_threshold=2,
    )
    recorder = TraceRecorder()
    simulator = NetworkSimulator(
        _grid(3), StaticShortestPathRouting(), _lossless_link(), seed=5,
        arq=ArqConfig(mode="go-back-n"), observer=recorder,
        faults=FaultInjector(schedule),
    )
    traffic = PoissonTraffic(rate_msgs_per_s=0.1, duration_s=300.0,
                             sources=("n0",), destination="n8")
    metrics = simulator.run(traffic=traffic, until_s=2000.0).metrics
    assert metrics.abort_reasons.get("dest-dead", 0) >= 1
    # Messages offered after the death are refused up front and recorded
    # as dest-dead drops, not leaked as forever-pending payloads.
    assert metrics.drop_reasons.get("dest-dead", 0) >= 1
    abort_events = [e for e in recorder.events if e.event == "abort"]
    assert any(e.reason == "dest-dead" for e in abort_events)
    drop_events = [e for e in recorder.events if e.event == "drop"]
    assert any(e.reason == "dest-dead" for e in drop_events)


def test_destination_death_mid_flight_attributes_lost_segments_to_the_flow():
    # No repair: the sender burns its whole retry budget into the dead
    # destination; every in-flight payload must come back as that flow's
    # loss, not linger as pending.
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 6.0, node="n2"),),
        repair=False,
    )
    topology = line_topology(3, spacing_m=8.0, comm_range_m=10.0)
    simulator = NetworkSimulator(
        topology, StaticShortestPathRouting(), _lossless_link(), seed=2,
        arq=ArqConfig(mode="go-back-n"), faults=FaultInjector(schedule),
    )
    for t in range(8):
        simulator.send_message("n0", "n2", time_s=float(t))
    metrics = simulator.run(until_s=3000.0).metrics
    flows = metrics.per_flow()
    assert flows, "flow accounting must be on"
    total_lost = sum(flow["lost"] for flow in flows.values())
    assert total_lost >= 1
    assert metrics.delivered + total_lost == metrics.offered
    # The retry-exhaustion abort is refined to dest-dead because the
    # destination is physically down when the budget runs out.
    assert metrics.abort_reasons.get("dest-dead", 0) >= 1
    reasons = dict(metrics.drop_reasons)
    assert sum(reasons.values()) == total_lost
    assert reasons.get("dest-dead", 0) >= 1


def _relay_and_sink_churn() -> NetScenario:
    """Nine-node ARQ run whose centre relay and sink both crash."""
    schedule = FaultSchedule(events=(
        FaultEvent("crash", 30.0, node="n4", duration_s=90.0),
        FaultEvent("crash", 60.0, node="n8", duration_s=60.0),
    ))
    return NetScenario(
        num_nodes=9, routing="shortest-path", rate_msgs_per_s=0.03,
        duration_s=200.0, destination="n8", seed=0,
    ).with_faults(schedule)


def test_aborted_flows_line_prints_the_recorded_reasons():
    result = _relay_and_sink_churn().run()
    assert sum(result.metrics.abort_reasons.values()) == result.aborted_flows
    assert (
        "  arq flows aborted        : 5 (dest-dead 4, max-retry 1)"
        in result.describe().splitlines()
    )


def test_observing_a_run_never_changes_it():
    scenario = _relay_and_sink_churn()
    plain = scenario.run()
    recorder = TraceRecorder()
    observed = scenario.build_simulator(observer=recorder).run(
        traffic=scenario.build_traffic()
    )
    assert observed.aborted_flows > 0 and observed.metrics.drop_reasons
    assert (
        json.dumps(observed.to_dict(), sort_keys=True)
        == json.dumps(plain.to_dict(), sort_keys=True)
    )
    records = observed.metrics.records
    # NaN != NaN defeats dataclass equality on lost rows; compare reprs.
    assert list(map(repr, records)) == list(map(repr, plain.metrics.records))
    # One deliver or drop event per stored row, in the same order.
    settled = [e for e in recorder.events if e.event in ("deliver", "drop")]
    assert [(e.event, e.uid, e.source, e.destination, e.kind) for e in settled] == [
        ("deliver" if r.delivered else "drop", r.uid, r.source, r.destination, r.kind)
        for r in records
    ]
    assert [(e.time_s, e.hop_count) for e in settled if e.event == "deliver"] == [
        (r.delivered_s, r.hop_count) for r in records if r.delivered
    ]
    drop_reasons = Counter(e.reason for e in settled if e.event == "drop")
    assert dict(drop_reasons) == observed.metrics.drop_reasons


def test_relay_death_without_repair_aborts_with_plain_max_retry():
    # The relay dies but the destination is alive and static routing
    # still believes the route exists, so the abort stays max-retry.
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 2.0, node="n1"),),
        repair=False,
    )
    topology = line_topology(3, spacing_m=8.0, comm_range_m=10.0)
    simulator = NetworkSimulator(
        topology, StaticShortestPathRouting(), _lossless_link(), seed=2,
        arq=ArqConfig(mode="go-back-n"), faults=FaultInjector(schedule),
    )
    simulator.send_message("n0", "n2", time_s=5.0)
    metrics = simulator.run(until_s=3000.0).metrics
    assert metrics.delivered == 0
    assert metrics.abort_reasons == {"max-retry": 1}


# ------------------------------------------------------------- SOS re-flood
def test_sos_refloods_reach_a_recovered_node_only_with_repair():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 5.0, node="n8", duration_s=100.0),),
        beacon_interval_s=10.0, miss_threshold=2,
    )

    def run(repair):
        simulator = NetworkSimulator(
            _grid(3), FloodingRouting(), _lossless_link(), seed=2,
            faults=FaultInjector(schedule.with_repair(repair)),
        )
        return simulator.run(
            traffic=SosBroadcastTraffic("n0", times_s=(50.0,)), until_s=400.0
        ).metrics

    with_repair = run(True)
    without = run(False)
    # 8 potential receivers; n8 is down during the flood.  Only the
    # repair path re-floods after its recovery is rediscovered.
    assert with_repair.delivered == 8
    assert without.delivered == 7


# --------------------------------------------------------- committed fixture
def test_committed_churn_fixture_is_deterministic_and_repair_dominates():
    schedule = load_schedule("tests/data/faults_churn_24node.json")
    assert not schedule.is_empty
    base = NetScenario(
        num_nodes=24, topology="grid", routing="shortest-path",
        arq="go-back-n", traffic="poisson", rate_msgs_per_s=0.03,
        duration_s=300.0, destination="n23", seed=7,
    )
    on = base.with_faults(schedule).run().metrics
    again = base.with_faults(schedule).run().metrics
    assert (
        json.dumps(on.to_dict(), sort_keys=True)
        == json.dumps(again.to_dict(), sort_keys=True)
    )
    off = base.with_faults(schedule.with_repair(False)).run().metrics
    assert on.packet_delivery_ratio > off.packet_delivery_ratio
    assert on.node_crashes == off.node_crashes > 0
    assert len(on.repair_times_s) > 0
    assert off.repair_times_s == []


# ------------------------------------------------------------ scenario layer
def test_net_scenario_fault_round_trip_and_hash():
    schedule = FaultSchedule(
        events=(FaultEvent("crash", 30.0, node="n4", duration_s=60.0),)
    )
    scenario = NetScenario(num_nodes=9, routing="shortest-path", seed=3)
    with_faults = scenario.with_faults(schedule)
    assert with_faults.fault_schedule() == schedule
    assert NetScenario.from_dict(with_faults.to_dict()) == with_faults
    assert with_faults.scenario_hash() != scenario.scenario_hash()
    assert "faults" in with_faults.describe()
    assert scenario.fault_schedule() is None
    with pytest.raises(ValueError):
        NetScenario(faults_json="{}")
    metrics = with_faults.run().metrics
    assert metrics.node_crashes == 1


# ------------------------------------------------------------- fail closed
CHURN_FIXTURE = Path(__file__).parent / "data" / "faults_churn_24node.json"
_CHURN_DOCUMENT = json.loads(CHURN_FIXTURE.read_text())


@pytest.fixture(scope="module")
def schedule_file(tmp_path_factory):
    return tmp_path_factory.mktemp("faults") / "schedule.json"


def _load_or_value_error(path):
    """Load ``path``: a schedule, or ``None`` when it raised ValueError (any
    other exception fails the test).  What loads is finite and round-trips."""
    try:
        schedule = FaultSchedule.load(path)
    except ValueError:
        return None
    for event in schedule.events:
        numbers = (
            event.end_s, event.per_inflation, event.snr_penalty_db,
            event.energy_budget_j,
        )
        assert all(map(math.isfinite, numbers)), event
    assert FaultSchedule.from_json(schedule.to_json()) == schedule
    return schedule


@settings(max_examples=100)
@given(path=st.sampled_from(json_paths(_CHURN_DOCUMENT, depth=3)), value=FIELD_VALUES)
@example(path=("events", 0, "time_s"), value=float("nan"))
@example(path=("events", 0, "duration_s"), value=None)
@example(path=("events", 0, "time_s"), value=1e308)
@example(path=("seed",), value=-1)
def test_corrupt_schedule_fields_raise_only_value_errors(schedule_file, path, value):
    schedule_file.write_text(json.dumps(replace_at(_CHURN_DOCUMENT, path, value)))
    _load_or_value_error(schedule_file)


@settings(max_examples=60)
@given(**BYTE_DAMAGE)
@example(flip=False, where=0.5, bit=0)
@example(flip=True, where=48.5 / 830, bit=0)  # renames the churn's end_s key
def test_damaged_schedule_files_raise_only_value_errors(schedule_file, flip, where, bit):
    schedule_file.write_bytes(damage_bytes(CHURN_FIXTURE.read_bytes(), flip, where, bit))
    _load_or_value_error(schedule_file)


@pytest.mark.parametrize("field, value", [("time_s", math.nan), ("duration_s", None)])
def test_cli_refuses_a_schedule_with_a_bad_time(tmp_path, capsys, field, value):
    document = replace_at(_CHURN_DOCUMENT, ("events", 0, field), value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    for command in ("net", "chaos"):
        code = main([
            command, "--faults", str(bad), "--nodes", "24", "--duration", "60",
        ])
        assert code == 2
        assert f"error: fault event {field} must be a finite number" in (
            capsys.readouterr().err
        )
