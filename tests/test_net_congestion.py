"""Tests for congestion control, relay queues and multi-flow fairness.

Three layers, mirroring how the subsystem is built:

* Pure state machines (:class:`RenoController`, :class:`AdaptiveRto`,
  :func:`jain_fairness_index`) driven with explicit time, no simulator,
  and the simulator's tail-drop relay queue.
* The ARQ sender driving a controller: Karn's rule, fast-recovery
  deflation, timeout window collapse, queue-overflow retransmission
  behaviour and max-retry abort with epoch reset.
* The committed 24-flow shared-relay scenario
  (``tests/data/net_multiflow_24flow.json``): goodput collapse under
  the fixed window versus stable, fair service under Reno -- the CI
  gates of the congestion PR.
"""

import json
import pathlib

import numpy as np
import pytest

from _topologies import grid_topology, line_topology
from repro.experiments import NetScenario
from repro.faults import ChurnProcess, FaultSchedule
from repro.net.congestion import (
    AdaptiveRto,
    CC_KINDS,
    CwndTrajectory,
    FixedWindow,
    MAX_CWND_SAMPLES,
    RenoController,
    build_controller,
    jain_fairness_index,
)
from repro.net.routing import FloodingRouting
from repro.net.scheduler import Scheduler
from repro.net.simulator import NetworkSimulator
from repro.net.traffic import convergecast_sources
from repro.net.transport import ArqConfig, ArqReceiver, ArqSender

FIXTURE = pathlib.Path(__file__).parent / "data" / "net_multiflow_24flow.json"


def _reno(max_window=16, timeout=3.0, cwnd=None, ssthresh=None) -> RenoController:
    """A Reno controller, optionally placed at a given window state."""
    reno = RenoController(max_window=max_window, timeout_s=timeout)
    if cwnd is not None:
        reno.cwnd = cwnd
    if ssthresh is not None:
        reno.ssthresh = ssthresh
    return reno


# ----------------------------------------------------------------- AdaptiveRto
def test_adaptive_rto_first_sample_initializes_srtt_and_rttvar():
    rto = AdaptiveRto(initial_rto_s=3.0)
    assert rto.current_s() == pytest.approx(3.0)
    rto.on_sample(4.0)
    assert rto.srtt_s == pytest.approx(4.0)
    assert rto.rttvar_s == pytest.approx(2.0)
    # RTO = SRTT + max(granularity, 4 * RTTVAR) = 4 + 8.
    assert rto.current_s() == pytest.approx(12.0)


def test_adaptive_rto_smooths_with_standard_gains():
    rto = AdaptiveRto(initial_rto_s=3.0)
    rto.on_sample(4.0)
    rto.on_sample(2.0)
    # RTTVAR' = 0.75*2 + 0.25*|4-2|, SRTT' = 0.875*4 + 0.125*2.
    assert rto.rttvar_s == pytest.approx(2.0)
    assert rto.srtt_s == pytest.approx(3.75)
    assert rto.current_s() == pytest.approx(3.75 + 8.0)


def test_adaptive_rto_backoff_is_monotone_and_capped():
    rto = AdaptiveRto(initial_rto_s=2.0)
    values = []
    for _ in range(8):
        values.append(rto.current_s())
        rto.on_timeout()
    # Sustained loss: each backoff at least matches the previous RTO.
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(2.0)
    assert values[1] == pytest.approx(4.0)
    # Doubling is capped (here by MAX_RTO_S long before MAX_BACKOFF).
    assert values[-1] == pytest.approx(120.0)
    assert rto.current_s() <= 120.0


def test_adaptive_rto_sample_resets_backoff():
    rto = AdaptiveRto(initial_rto_s=2.0)
    rto.on_timeout()
    rto.on_timeout()
    assert rto.backoff == 4
    rto.on_sample(1.5)
    assert rto.backoff == 1
    assert rto.current_s() < 8.0


def test_adaptive_rto_clamps_to_floor_and_validates():
    rto = AdaptiveRto(initial_rto_s=3.0)
    rto.on_sample(0.1)  # tiny acoustic RTT: floor must hold
    assert rto.current_s() == pytest.approx(1.0)
    rto.on_sample(-5.0)  # negative samples are ignored
    assert rto.current_s() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        AdaptiveRto(initial_rto_s=0.0)


# ------------------------------------------------------------------ FixedWindow
def test_fixed_window_is_constant_and_hooks_are_noops():
    controller = FixedWindow(window_size=4, timeout_s=6.0)
    controller.on_ack(3, 1.0)
    controller.on_duplicate_ack(2.0)
    controller.on_fast_retransmit(3.0)
    controller.on_timeout(4.0)
    controller.on_rtt_sample(2.5, 5.0)
    assert controller.window() == 4
    assert controller.rto_s() == pytest.approx(6.0)
    assert controller.trajectory is None
    assert controller.state == "fixed"
    with pytest.raises(ValueError):
        FixedWindow(window_size=0, timeout_s=1.0)
    with pytest.raises(ValueError):
        FixedWindow(window_size=1, timeout_s=0.0)


def test_build_controller_catalog():
    config = ArqConfig(window_size=8, timeout_s=3.0)
    assert isinstance(build_controller("fixed", config), FixedWindow)
    reno = build_controller("reno", config)
    assert isinstance(reno, RenoController)
    assert reno.max_window == 8
    with pytest.raises(ValueError):
        build_controller("vegas", config)
    assert set(CC_KINDS) == {"fixed", "reno"}


# ------------------------------------------------------------------------ Reno
def test_reno_slow_start_doubles_per_window():
    reno = _reno(max_window=32)
    assert reno.state == "slow-start"
    assert reno.window() == 1
    reno.on_ack(1, 1.0)
    assert reno.window() == 2
    reno.on_ack(2, 2.0)
    assert reno.window() == 4
    reno.on_ack(4, 3.0)
    assert reno.window() == 8  # exponential growth per acked window


def test_reno_congestion_avoidance_grows_linearly():
    reno = _reno(max_window=32, cwnd=8.0, ssthresh=8.0)
    assert reno.state == "congestion-avoidance"
    # One full window of ACKs grows cwnd by ~1 segment.
    reno.on_ack(8, 1.0)
    assert reno.cwnd == pytest.approx(9.0)
    reno.on_ack(9, 2.0)
    assert reno.cwnd == pytest.approx(10.0)


def test_reno_window_is_capped_by_max_window():
    reno = _reno(max_window=4)
    for now in range(10):
        reno.on_ack(4, float(now))
    assert reno.window() == 4
    assert reno.cwnd == 4.0  # clamped, not just floored by window()


def test_reno_fast_recovery_inflates_and_deflates():
    reno = _reno(max_window=64, cwnd=16.0, ssthresh=8.0)
    reno.on_fast_retransmit(1.0)
    assert reno.state == "fast-recovery"
    assert reno.ssthresh == pytest.approx(8.0)
    assert reno.cwnd == pytest.approx(11.0)  # ssthresh + 3
    reno.on_duplicate_ack(1.1)
    reno.on_duplicate_ack(1.2)
    assert reno.cwnd == pytest.approx(13.0)  # inflation per dup ACK
    reno.on_ack(5, 2.0)  # new data acked: deflate
    assert not reno.in_fast_recovery
    assert reno.cwnd == pytest.approx(8.0)
    assert reno.state == "congestion-avoidance"


def test_reno_duplicate_acks_outside_recovery_do_nothing():
    reno = _reno(max_window=16, cwnd=4.0)
    reno.on_duplicate_ack(1.0)
    assert reno.cwnd == pytest.approx(4.0)


def test_reno_timeout_collapses_to_one_and_backs_off():
    reno = _reno(max_window=32, cwnd=20.0, ssthresh=32.0)
    rto_before = reno.rto_s()
    reno.on_timeout(5.0)
    assert reno.cwnd == 1.0
    assert reno.window() == 1
    assert reno.ssthresh == pytest.approx(10.0)
    assert reno.state == "slow-start"
    assert reno.rto_s() >= 2.0 * rto_before - 1e-9
    # ssthresh never collapses below 2 segments.
    reno.on_timeout(6.0)
    assert reno.ssthresh == pytest.approx(2.0)


def test_reno_trajectory_records_and_truncates():
    reno = _reno(max_window=8)
    for now in range(5):
        reno.on_ack(1, float(now))
    times, cwnds = reno.trajectory.times_s, reno.trajectory.cwnds
    assert len(reno.trajectory) == 6  # initial sample + 5 ACKs
    assert times[0] == 0.0 and cwnds[0] == 1.0
    assert not reno.trajectory.truncated
    trajectory = CwndTrajectory()
    for i in range(MAX_CWND_SAMPLES + 10):
        trajectory.record(float(i), 1.0)
    assert len(trajectory) == MAX_CWND_SAMPLES
    assert trajectory.truncated


def test_reno_validates_arguments():
    with pytest.raises(ValueError):
        RenoController(max_window=0, timeout_s=3.0)


# ------------------------------------------------------------------ relay queue
def _burst(queue_capacity, messages=6):
    """``messages`` sends queued at one node at once; the run's metrics."""
    simulator = NetworkSimulator(
        line_topology(2, spacing_m=5.0), FloodingRouting(),
        queue_capacity=queue_capacity, seed=0,
    )
    for _ in range(messages):
        simulator.send_message("n0", "n1")
    return simulator.run().metrics


def test_relay_queue_tail_drop():
    # The first send goes straight on air; the rest wait in n0's buffer,
    # which tail-drops whatever exceeds its capacity.
    assert _burst(None).queue_drops == 0
    assert _burst(3).queue_drops == 2
    assert _burst(1).queue_drops == 4


def test_relay_queue_validation():
    with pytest.raises(ValueError):
        _burst(0)


# ------------------------------------------------------------------------ jain
def test_jain_fairness_index_extremes():
    assert jain_fairness_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert np.isnan(jain_fairness_index([]))
    assert np.isnan(jain_fairness_index([0.0, 0.0]))
    # Scale invariance.
    assert jain_fairness_index([1, 2, 3]) == pytest.approx(
        jain_fairness_index([10, 20, 30])
    )


# -------------------------------------------------------- sender + controller
def _gbn(window=8, timeout=3.0, retries=4) -> ArqConfig:
    return ArqConfig(window_size=window, seq_modulus=2 * window,
                     timeout_s=timeout, max_retries=retries, mode="go-back-n")


def test_sender_defaults_to_fixed_window_controller():
    sender = ArqSender("f", _gbn(window=8))
    assert isinstance(sender.controller, FixedWindow)
    assert sender.effective_window == 8


def test_effective_window_is_min_of_config_and_controller():
    reno = _reno(max_window=8)
    sender = ArqSender("f", _gbn(window=8), controller=reno)
    for payload in range(8):
        sender.offer(payload)
    assert sender.effective_window == 1  # initial cwnd
    assert len(sender.window_transmissions(0.0)) == 1


def test_sender_grows_window_as_acks_arrive():
    config = _gbn(window=8)
    sender = ArqSender("f", config, controller=_reno(max_window=8))
    receiver = ArqReceiver("f", config)
    for payload in range(20):
        sender.offer(payload)
    now, batches = 0.0, []
    while not sender.done:
        segments = sender.window_transmissions(now)
        batches.append(len(segments))
        for segment in segments:
            _, ack = receiver.on_data(segment)
            sender.on_ack(ack, now + 0.5)
        now += 1.0
    assert sender.done
    assert receiver.delivered == list(range(20))
    # Slow start: each lossless round roughly doubles the burst until the
    # window cap, so early batches are strictly increasing.
    assert batches[0] == 1
    assert max(batches) == 8


def test_karn_rule_excludes_retransmitted_segments():
    samples = []

    class Probe(RenoController):
        def on_rtt_sample(self, rtt_s, now_s):
            samples.append(rtt_s)
            super().on_rtt_sample(rtt_s, now_s)

    config = _gbn(window=4, timeout=2.0)
    sender = ArqSender("f", config, controller=Probe(max_window=4, timeout_s=2.0))
    receiver = ArqReceiver("f", config)
    for payload in range(2):
        sender.offer(payload)
    seg0 = sender.window_transmissions(0.0)[0]
    resent = sender.on_timeout(2.0)  # seg0 lost: retransmit it
    assert [s.seq for s in resent] == [0]
    _, ack = receiver.on_data(resent[0])
    sender.on_ack(ack, 3.0)
    # The acked segment was retransmitted: its ambiguous RTT is never
    # sampled (Karn's rule).
    assert samples == []
    del seg0
    # The next segment goes through cleanly and does get sampled.
    seg1 = sender.window_transmissions(3.0)[0]
    _, ack = receiver.on_data(seg1)
    sender.on_ack(ack, 4.5)
    assert samples == [pytest.approx(1.5)]


def test_timeout_with_reno_resends_one_not_the_window():
    # Queue-overflow regime: the whole window is outstanding and lost.
    # The fixed controller re-floods all of it; Reno collapses to one
    # segment, which is exactly the retransmission storm the congestion
    # PR is about.
    config = _gbn(window=8, timeout=2.0)
    fixed = ArqSender("f", config)
    for payload in range(8):
        fixed.offer(payload)
    fixed.window_transmissions(0.0)
    assert len(fixed.on_timeout(2.0)) == 8  # legacy full-window resend

    reno = ArqSender("f", config, controller=_reno(max_window=8, timeout=2.0))
    receiver = ArqReceiver("f", config)
    for payload in range(12):
        reno.offer(payload)
    for now in (0.0, 1.0):  # two lossless rounds grow cwnd to 4
        for segment in reno.window_transmissions(now):
            _, ack = receiver.on_data(segment)
            reno.on_ack(ack, now + 0.5)
    burst = reno.window_transmissions(2.0)  # all lost
    assert len(burst) >= 4
    assert len(reno.on_timeout(10.0)) == 1  # collapse: only the base


def test_rto_backoff_spaces_out_retries_until_abort():
    config = _gbn(window=1, timeout=2.0, retries=3)
    sender = ArqSender("f", config, controller=_reno(max_window=1, timeout=2.0))
    sender.offer(0)
    sender.window_transmissions(0.0)
    deadlines = []
    now = 0.0
    while not sender.failed:
        now = sender.next_timeout_s()
        assert sender.on_timeout(now) or sender.failed
        if not sender.failed:
            deadlines.append(sender.next_timeout_s() - now)
    # Exponential backoff: every retry waits at least as long as the
    # previous one (monotone RTO under sustained loss).
    assert len(deadlines) == 3
    assert all(b >= a for a, b in zip(deadlines, deadlines[1:]))
    assert deadlines[-1] >= 2.0 * deadlines[0] - 1e-9
    # Max retries exhausted: the flow aborts and goes quiet.
    assert sender.failed and not sender.done
    assert sender.window_transmissions(now) == []
    assert sender.next_timeout_s() is None


# -------------------------------------------------------------- scheduler keys
def test_scheduler_key_orders_same_time_events():
    scheduler = Scheduler()
    fired = []
    scheduler.at(1.0, lambda: fired.append("z"), key=("n9", "n0"))
    scheduler.at(1.0, lambda: fired.append("a"), key=("n1", "n0"))
    scheduler.at(1.0, lambda: fired.append("default"))  # key=() sorts first
    scheduler.run()
    assert fired == ["default", "a", "z"]


def test_scheduler_key_makes_flow_timers_order_independent():
    def run(order):
        scheduler = Scheduler()
        fired = []
        for name in order:
            scheduler.at(
                2.0, lambda name=name: fired.append(name), key=(name, "n0")
            )
        scheduler.run()
        return fired

    assert run(["n3", "n1", "n2"]) == run(["n1", "n2", "n3"]) == ["n1", "n2", "n3"]


# ------------------------------------------------------------ scenario plumbing
def test_convergecast_sources_picks_farthest_nodes():
    topology = grid_topology(1, 5, spacing_m=10.0)
    assert convergecast_sources(topology, 2, "n0") == ("n3", "n4")
    assert convergecast_sources(topology, 4, "n0") == ("n1", "n2", "n3", "n4")
    with pytest.raises(ValueError):
        convergecast_sources(topology, 5, "n0")
    with pytest.raises(ValueError):
        convergecast_sources(topology, 0, "n0")
    with pytest.raises(ValueError):
        convergecast_sources(topology, 1, "n99")


def test_net_scenario_validates_congestion_fields():
    with pytest.raises(ValueError):
        NetScenario(cc="vegas")
    with pytest.raises(ValueError):
        NetScenario(num_flows=0)
    with pytest.raises(ValueError):
        NetScenario(num_nodes=9, num_flows=9)
    with pytest.raises(ValueError):
        NetScenario(num_flows=4, traffic="sos")
    with pytest.raises(ValueError):
        NetScenario(num_flows=4, arq="none")
    with pytest.raises(ValueError):
        NetScenario(queue_capacity=0)
    described = NetScenario(num_flows=4, cc="reno").describe()
    assert "cc reno" in described and "4 flows" in described


def test_every_run_reports_the_same_strict_json_keys():
    # Runs that engage different subsystems report one schema: an idle
    # section is present (zero, empty or null), never left out.
    base = NetScenario(num_nodes=9, duration_s=60.0, rate_msgs_per_s=0.05, seed=3)
    churn = FaultSchedule(churn=ChurnProcess(
        rate_per_node_per_s=0.01, mean_downtime_s=20.0, end_s=60.0, seed=1,
        protect=("n0",),
    ))
    scenarios = {
        "flooding": base.replace(routing="flooding", arq="none"),
        "fixed": base,
        "reno": base.replace(cc="reno", queue_capacity=4),
        "churn": base.with_faults(churn),
    }
    reports = {name: s.run().to_dict() for name, s in scenarios.items()}
    assert reports["flooding"]["flows"] == {}
    assert reports["flooding"]["mean_time_to_repair_s"] is None
    assert reports["churn"]["node_crashes"] > 0
    key_sets = {name: set(report) for name, report in reports.items()}
    assert all(keys == key_sets["flooding"] for keys in key_sets.values())
    row_keys = {
        frozenset(row)
        for report in reports.values()
        for row in report["flows"].values()
    }
    assert len(row_keys) == 1
    for name, scenario in scenarios.items():
        json.dumps(reports[name], allow_nan=False)
        assert scenario.run().to_dict() == reports[name]


def test_fixed_cc_flow_ledger_balances_in_the_report():
    # Every ARQ flow keeps its books, fixed window included, and the
    # report carries one row per flow epoch.
    result = NetScenario(
        num_nodes=9, num_flows=4, rate_msgs_per_s=0.05, duration_s=200.0,
        timeout_s=2.0, max_retries=2, seed=2,
    ).run()
    metrics = result.metrics
    flows = list(metrics.flows.values())
    assert len(flows) > 4 and result.aborted_flows > 0
    assert sum(flow.offered for flow in flows) == metrics.offered
    assert sum(flow.delivered for flow in flows) == metrics.delivered
    assert sum(flow.aborted for flow in flows) == result.aborted_flows
    assert all(flow.offered == flow.delivered + flow.lost for flow in flows)
    assert result.to_dict()["flows"] == metrics.per_flow()


def test_multiflow_run_reports_per_flow_counters():
    scenario = NetScenario(
        num_nodes=9, num_flows=4, cc="reno", queue_capacity=4,
        rate_msgs_per_s=0.02, duration_s=120.0, timeout_s=3.0, seed=5,
    )
    result = scenario.run()
    data = result.to_dict()
    assert data["offered"] > 0
    assert set(data) >= {"queue_drops", "jain_fairness_index",
                         "aggregate_goodput_bps", "flows"}
    flows = data["flows"]
    assert len(flows) >= 4
    sources = {row["source"] for row in flows.values()}
    assert len(sources) == 4  # one convergecast source per requested flow
    for row in flows.values():
        assert row["destination"] == "n0"
        assert row["offered"] >= row["delivered"] >= 0
        assert row["retransmissions"] >= 0
    # Delivered payloads reconcile between aggregate and per-flow views.
    assert sum(row["delivered"] for row in flows.values()) == data["delivered"]
    summary = result.describe()
    assert "jain" in summary and "queue drops" in summary


def test_aborted_epoch_restarts_and_pools_into_pair_fairness():
    # Drive a scenario harsh enough that some flow aborts, then check
    # that the pair keeps flowing under a fresh epoch and that fairness
    # pools the epochs per (source, destination) pair.
    scenario = NetScenario(
        num_nodes=9, num_flows=4, cc="reno", queue_capacity=2,
        rate_msgs_per_s=0.05, duration_s=300.0, timeout_s=2.0,
        max_retries=2, seed=7,
    )
    result = scenario.run()
    metrics = result.metrics
    assert result.aborted_flows > 0
    assert metrics.num_flows > 4  # aborted pairs re-opened as new epochs
    pair_bits = metrics.pair_delivered_bits()
    assert pair_bits.size <= 4
    assert metrics.jain_fairness() == pytest.approx(
        jain_fairness_index(pair_bits), nan_ok=True
    )


# ------------------------------------------------------- committed 24-flow gate
@pytest.fixture(scope="module")
def multiflow_fixture():
    data = json.loads(FIXTURE.read_text())
    scenario = NetScenario.from_dict(data["scenario"])
    results = {
        cc: scenario.replace(cc=cc).run() for cc in ("fixed", "reno")
    }
    return data["gates"], results


def test_committed_24flow_scenario_gates(multiflow_fixture):
    gates, results = multiflow_fixture
    fixed, reno = results["fixed"], results["reno"]
    jain_fixed = fixed.metrics.jain_fairness()
    jain_reno = reno.metrics.jain_fairness()
    # The headline CI gate: Reno keeps the 24 contending flows fair.
    assert jain_reno >= gates["jain_reno_min"]
    # The collapse: fixed-window service is captured by near flows ...
    assert jain_fixed <= gates["jain_fixed_max"]
    # ... and its tight constant timeout retransmits into multi-second
    # congested RTTs, a storm Reno's adaptive RTO avoids.
    ratio = fixed.total_retransmissions / max(1, reno.total_retransmissions)
    assert ratio >= gates["retransmission_ratio_min"]
    if gates["reno_pdr_at_least_fixed"]:
        assert (reno.metrics.packet_delivery_ratio
                >= fixed.metrics.packet_delivery_ratio)
    if gates["reno_goodput_at_least_fixed_at_common_horizon"]:
        # Goodput compared over a common horizon: the drain phases differ
        # (Reno's backed-off timers run longer), so each run's own
        # duration would dilute the slower one.
        horizon = max(fixed.duration_s, reno.duration_s)
        goodput = {
            cc: float(np.sum(results[cc].metrics.flow_delivered_bits())) / horizon
            for cc in results
        }
        assert goodput["reno"] >= goodput["fixed"]


def test_committed_24flow_scenario_is_deterministic(multiflow_fixture):
    _, results = multiflow_fixture
    rerun = NetScenario.from_dict(
        json.loads(FIXTURE.read_text())["scenario"]
    ).replace(cc="reno").run()
    assert rerun.to_dict() == results["reno"].to_dict()
