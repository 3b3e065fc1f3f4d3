"""Tests for the repro.trace subsystem: capture, replay, synthesis, QoE."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
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
from repro.net.links import CalibratedLink, LinkCalibration
from repro.net.metrics import DeliveryRecord, NetworkMetrics
from repro.net.packet import BROADCAST
from repro.net.routing import StaticShortestPathRouting
from repro.net.simulator import NetworkSimulator
from repro.trace.events import TRACE_VERSION
from repro.trace import (
    PopulationWorkload,
    Trace,
    TraceEvent,
    TraceRecorder,
    capture_scenario,
    check_roundtrip,
    compare_stacks,
    load_trace,
    qoe_delta,
    qoe_report,
    replay_trace,
    save_trace,
    scenario_from_trace,
    synthesize_trace,
)
from repro.trace.population import (
    IN_GROUP_FRACTION,
    LEADER_FRACTION,
    MAX_SIZE_BITS,
    MIN_SIZE_BITS,
)
from repro.trace.replay import TraceTrafficGenerator

FIXTURE = Path(__file__).parent / "data" / "trace_fixture_9node.jsonl"


def _small_scenario(**overrides) -> NetScenario:
    fields = dict(num_nodes=5, duration_s=30.0, rate_msgs_per_s=0.05, seed=7)
    fields.update(overrides)
    return NetScenario(**fields)


# -------------------------------------------------------------- event schema
def test_trace_event_rejects_unknown_event_kind():
    with pytest.raises(ValueError, match="unknown event"):
        TraceEvent(time_s=0.0, event="teleport", uid=1, source="a", destination="b")


def test_trace_event_rejects_unknown_payload_kind():
    with pytest.raises(ValueError, match="unknown payload kind"):
        TraceEvent(time_s=0.0, event="send", uid=1, source="a",
                   destination="b", kind="video")


def test_trace_event_dict_roundtrip_is_compact():
    event = TraceEvent(time_s=1.5, event="send", uid=3, source="n0",
                       destination="n1", size_bits=16, kind="data")
    data = event.to_dict()
    # Zero-valued optionals are omitted from the JSON-line form.
    assert "hops" not in data and "flow" not in data
    assert TraceEvent.from_dict(data) == event


# ------------------------------------------------------------ serialization
def _sample_trace() -> Trace:
    events = [
        TraceEvent(0.5, "send", 0, "n0", "n2", size_bits=16, kind="data"),
        TraceEvent(1.0, "send", 1, "n1", BROADCAST, size_bits=6, kind="broadcast"),
        TraceEvent(2.5, "deliver", 0, "n0", "n2", hop_count=2, kind="data"),
        TraceEvent(9.0, "drop", 1, "n1", "n2", kind="broadcast"),
        TraceEvent(9.0, "abort", -1, "", "", flow_id="n0->n2#0"),
    ]
    return Trace(events=events, meta={"note": "sample"})


def test_jsonl_roundtrip_preserves_events_and_meta():
    trace = _sample_trace()
    restored = Trace.loads(trace.dumps())
    assert restored.events == trace.events
    assert restored.meta == trace.meta
    assert restored.version == trace.version


def test_jsonl_rejects_foreign_and_wrong_version_documents():
    with pytest.raises(ValueError, match="empty trace"):
        Trace.loads("")
    with pytest.raises(ValueError, match="not a repro.trace"):
        Trace.loads('{"format": "other", "version": 1}\n')
    text = _sample_trace().dumps().replace(
        f'"version": {TRACE_VERSION}', '"version": 99'
    )
    with pytest.raises(ValueError, match="unsupported trace version 99"):
        Trace.loads(text)


def test_jsonl_accepts_v1_documents():
    # v1 read-compat: every v1 document is a valid v2 document with
    # empty reasons, so old committed fixtures keep loading.
    text = _sample_trace().dumps().replace(
        f'"version": {TRACE_VERSION}', '"version": 1'
    )
    restored = Trace.loads(text)
    assert restored.version == 1
    assert restored.events == _sample_trace().events
    assert all(event.reason == "" for event in restored.events)


def test_v2_reason_field_roundtrips_jsonl_and_columnar():
    events = [
        TraceEvent(1.0, "send", 0, "n0", "n1", size_bits=16, kind="data"),
        TraceEvent(5.0, "drop", 0, "n0", "n1", kind="data", reason="ttl"),
        TraceEvent(6.0, "abort", -1, "", "", flow_id="n0>n1#0",
                   reason="dest-dead"),
    ]
    trace = Trace(events=events)
    assert Trace.loads(trace.dumps()).events == events
    assert Trace.from_columns(trace.to_columns()).events == events
    # Zero-value omission: events without a reason stay compact.
    assert "reason" not in events[0].to_dict()
    assert events[1].to_dict()["reason"] == "ttl"


def test_columnar_v1_archive_without_reason_columns_loads():
    trace = _sample_trace()
    columns = trace.to_columns()
    del columns["reason"], columns["reasons"]
    restored = Trace.from_columns(columns, meta=trace.meta)
    assert restored.events == trace.events


def test_jsonl_rejects_truncated_documents():
    lines = _sample_trace().dumps().splitlines()
    with pytest.raises(ValueError, match="truncated"):
        Trace.loads("\n".join(lines[:-1]))


def test_columnar_roundtrip_is_exact():
    trace = _sample_trace()
    restored = Trace.from_columns(trace.to_columns(), meta=trace.meta)
    assert restored.events == trace.events
    assert restored.meta == trace.meta


def test_save_load_dispatch_on_extension(tmp_path):
    trace = _sample_trace()
    for name in ("t.jsonl", "t.npz"):
        path = tmp_path / name
        save_trace(trace, path)
        restored = load_trace(path)
        assert restored.events == trace.events
        assert restored.meta == trace.meta


def test_npz_rejects_wrong_version(tmp_path):
    trace = _sample_trace()
    trace.version = 99
    path = tmp_path / "t.npz"
    trace.save_npz(path)
    with pytest.raises(ValueError, match="unsupported trace version 99"):
        Trace.load_npz(path)


def test_trace_summary_counts_and_duration():
    trace = _sample_trace()
    assert len(trace.sends()) == 2
    assert trace.duration_s == 9.0
    assert "2 sends, 1 deliveries, 1 drops, 1 aborts" in trace.summary()


# ----------------------------------------------------------------- capture
def test_recorder_counts_match_run_metrics():
    result, trace = capture_scenario(_small_scenario())
    assert len(trace.sends()) == result.metrics.offered
    deliveries = sum(e.event == "deliver" for e in trace.events)
    drops = sum(e.event == "drop" for e in trace.events)
    assert deliveries == result.metrics.delivered
    assert deliveries + drops == result.metrics.offered
    assert trace.meta["scenario"] == _small_scenario().to_dict()
    assert trace.meta["capture_metrics"] == result.metrics.to_dict()


def test_recorder_trace_is_time_sorted():
    _, trace = capture_scenario(_small_scenario())
    times = [e.time_s for e in trace.events]
    assert times == sorted(times)


def test_recorder_records_flow_aborts():
    # A lossy link with minimal retries forces ARQ aborts.
    lossy = CalibratedLink(LinkCalibration(
        site_name="lake", distances_m=(1.0, 40.0),
        packet_error_rate=(0.9, 0.9), bitrate_bps=(1000.0, 1000.0),
    ))
    from repro.net.transport import ArqConfig

    recorder = TraceRecorder()
    simulator = NetworkSimulator(
        line_topology(2, spacing_m=8.0, comm_range_m=10.0),
        StaticShortestPathRouting(), lossy,
        arq=ArqConfig(window_size=2, timeout_s=2.0, max_retries=1),
        seed=5, observer=recorder,
    )
    simulator.send_message("n0", "n1", time_s=0.0)
    simulator.run()
    trace = recorder.trace()
    aborts = [e for e in trace.events if e.event == "abort"]
    assert aborts and all(e.flow_id for e in aborts)


# ------------------------------------------------------------------- replay
def test_capture_replay_roundtrip_is_bit_deterministic():
    _, trace = capture_scenario(_small_scenario())
    identical, captured, replayed = check_roundtrip(trace)
    assert identical, f"roundtrip diverged: {captured} != {replayed}"


def test_replay_twice_is_identical():
    _, trace = capture_scenario(_small_scenario())
    first = replay_trace(trace).metrics.to_dict()
    second = replay_trace(trace).metrics.to_dict()
    assert first == second


def test_replay_through_serialization_is_still_identical(tmp_path):
    _, trace = capture_scenario(_small_scenario())
    path = tmp_path / "run.npz"
    save_trace(trace, path)
    identical, _, _ = check_roundtrip(load_trace(path))
    assert identical


def test_replay_with_stack_override_changes_results():
    _, trace = capture_scenario(_small_scenario())
    baseline = replay_trace(trace)
    no_arq = replay_trace(trace, scenario_from_trace(trace, arq="none"))
    assert no_arq.metrics.offered == baseline.metrics.offered
    assert no_arq.metrics.transmissions < baseline.metrics.transmissions


def test_replay_rejects_foreign_topology():
    _, trace = capture_scenario(_small_scenario())
    generator = TraceTrafficGenerator(trace)
    tiny = line_topology(2, spacing_m=8.0, comm_range_m=10.0)
    with pytest.raises(ValueError, match="not in the topology"):
        generator.messages(tiny, np.random.default_rng(0))


def test_scenario_from_trace_requires_metadata():
    with pytest.raises(ValueError, match="no scenario metadata"):
        scenario_from_trace(Trace())


def test_check_roundtrip_requires_capture_metrics():
    scenario = _small_scenario()
    trace = synthesize_trace(
        PopulationWorkload(duration_s=30.0), scenario.build_topology(),
        meta={"scenario": scenario.to_dict()},
    )
    with pytest.raises(ValueError, match="no capture_metrics"):
        check_roundtrip(trace)


def test_committed_fixture_replays_bit_identically():
    """The regression gate: the committed trace must keep reproducing."""
    trace = load_trace(FIXTURE)
    identical, captured, replayed = check_roundtrip(trace)
    assert identical, (
        f"fixture replay diverged from its recorded capture metrics: "
        f"{captured} != {replayed}"
    )


# --------------------------------------------------------------- population
def test_population_is_deterministic_per_seed():
    workload = PopulationWorkload(duration_s=600.0, base_rate_msgs_per_s=0.05,
                                  diurnal_period_s=300.0)
    topology = _small_scenario(num_nodes=8).build_topology()
    first = workload.messages(topology, np.random.default_rng(3))
    second = workload.messages(topology, np.random.default_rng(3))
    third = workload.messages(topology, np.random.default_rng(4))
    assert first == second
    assert first != third


def test_population_messages_are_sorted_and_bounded():
    workload = PopulationWorkload(duration_s=600.0, base_rate_msgs_per_s=0.1)
    topology = _small_scenario(num_nodes=8).build_topology()
    messages = workload.messages(topology, np.random.default_rng(1))
    assert messages
    times = [m.time_s for m in messages]
    assert times == sorted(times)
    assert all(0.0 <= t < 600.0 for t in times)
    assert all(MIN_SIZE_BITS <= m.size_bits <= MAX_SIZE_BITS for m in messages)
    assert all(m.destination != m.source for m in messages)


def test_population_groups_partition_the_deployment():
    workload = PopulationWorkload(duration_s=60.0, group_size=3)
    topology = _small_scenario(num_nodes=8).build_topology()
    groups = workload.groups_for(topology)
    assert [len(g) for g in groups] == [3, 3, 2]
    assert [name for group in groups for name in group] == list(topology.names)


class _FixedDraw:
    """Generator stand-in: a fixed uniform draw, the last index offered."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def integers(self, low, high):
        return high - 1


_GROUP = ("n0", "n1", "n2", "n3")
_EVERYONE = _GROUP + ("n4", "n5", "n6", "n7")


def test_population_leader_policy_routes_to_group_leader():
    workload = PopulationWorkload(duration_s=60.0)
    below = _FixedDraw(LEADER_FRACTION / 2)
    assert workload._destination("n2", _GROUP, _EVERYONE, below) == "n0"
    # The leader's own share goes to a group peer instead.
    assert workload._destination("n0", _GROUP, _EVERYONE, below) == "n3"


def test_population_in_group_policy_stays_inside_the_group():
    workload = PopulationWorkload(duration_s=600.0, base_rate_msgs_per_s=0.1)
    peer = _FixedDraw(LEADER_FRACTION + IN_GROUP_FRACTION / 2)
    assert workload._destination("n1", _GROUP, _EVERYONE, peer) == "n3"
    anyone = _FixedDraw(LEADER_FRACTION + IN_GROUP_FRACTION)
    assert workload._destination("n1", _GROUP, _EVERYONE, anyone) == "n7"
    # Over a run, the leader and in-group shares keep most traffic local
    # (expected 0.94 with groups of 4 in 8 nodes).
    topology = _small_scenario(num_nodes=8).build_topology()
    member_group = {
        name: set(group)
        for group in workload.groups_for(topology) for name in group
    }
    messages = workload.messages(topology, np.random.default_rng(2))
    local = sum(m.destination in member_group[m.source] for m in messages)
    assert local >= 0.9 * len(messages)


def test_population_diurnal_modulation_shifts_mass_to_the_peak():
    # Trough at t=0 and t=period, peak at period/2: the peak-centered
    # middle half must carry most of the mass ((pi+2)/(pi-2) ~ 4.5x at
    # full depth) with always-on sessions.
    workload = PopulationWorkload(
        duration_s=4000.0, base_rate_msgs_per_s=0.2, activity_duty=1.0,
        diurnal_period_s=4000.0, diurnal_depth=1.0,
    )
    topology = _small_scenario(num_nodes=8).build_topology()
    messages = workload.messages(topology, np.random.default_rng(9))
    middle = sum(1000.0 <= m.time_s < 3000.0 for m in messages)
    outer = len(messages) - middle
    assert middle > 2 * outer


def test_population_requires_two_users():
    topology = line_topology(1, spacing_m=8.0, comm_range_m=10.0)
    workload = PopulationWorkload(
        duration_s=60.0, base_rate_msgs_per_s=1.0, activity_duty=1.0,
    )
    with pytest.raises(ValueError, match="at least two users"):
        workload.messages(topology, np.random.default_rng(0))


def test_population_rejects_invalid_parameters():
    with pytest.raises(ValueError, match="activity_duty"):
        PopulationWorkload(duration_s=60.0, activity_duty=0.0)
    with pytest.raises(ValueError, match="size_sigma"):
        PopulationWorkload(duration_s=60.0, size_sigma=-1.0)


def test_synthesized_trace_replays_as_offered_load():
    scenario = _small_scenario(traffic="population")
    workload = PopulationWorkload(duration_s=30.0, base_rate_msgs_per_s=0.1)
    trace = synthesize_trace(
        workload, scenario.build_topology(), seed=5,
        meta={"scenario": scenario.to_dict()},
    )
    assert trace.meta["synthesized"] is True
    assert all(e.event == "send" for e in trace.events)
    result = replay_trace(trace)
    assert result.metrics.offered == len(trace.sends())


def test_population_scenario_runs_through_net_scenario():
    result = _small_scenario(traffic="population", duration_s=120.0).run()
    assert result.metrics.offered > 0


# ---------------------------------------------------------------------- qoe
def test_qoe_score_decays_with_latency_and_zeroes_losses():
    tau = 10.0
    metrics = NetworkMetrics(records=[
        DeliveryRecord(0, "a", "b", created_s=0.0, delivered_s=0.0),
        DeliveryRecord(1, "a", "b", created_s=0.0, delivered_s=tau),
        DeliveryRecord(2, "a", "b", created_s=0.0),  # lost
    ])
    report = qoe_report(metrics, latency_tau_s=tau)
    expected = (1.0 + np.exp(-1.0) + 0.0) / 3.0
    assert report.qoe_score == pytest.approx(expected)
    assert report.offered == 3 and report.delivered == 2


def test_qoe_sos_deadline_misses_count_losses_and_late_deliveries():
    metrics = NetworkMetrics(records=[
        DeliveryRecord(0, "a", "b", 0.0, delivered_s=10.0, kind="broadcast"),
        DeliveryRecord(1, "a", "c", 0.0, delivered_s=90.0, kind="broadcast"),
        DeliveryRecord(2, "a", "d", 0.0, kind="broadcast"),  # lost
        DeliveryRecord(3, "a", "b", 0.0, delivered_s=90.0, kind="data"),
    ])
    report = qoe_report(metrics, sos_deadline_s=60.0)
    assert report.sos_offered == 3
    assert report.sos_deadline_misses == 2


def test_qoe_delta_markdown_reports_percentile_rows():
    metrics = NetworkMetrics(records=[
        DeliveryRecord(i, "a", "b", 0.0, delivered_s=float(i + 1))
        for i in range(10)
    ])
    delta = qoe_delta(metrics, metrics, label_a="fast", label_b="reference")
    table = delta.to_markdown()
    assert "| fast | reference |" in table
    assert "latency p95" in table
    assert delta.pdr_delta == 0.0
    assert delta.qoe_delta == pytest.approx(0.0)


def test_compare_stacks_pairs_the_same_workload():
    _, trace = capture_scenario(_small_scenario())
    delta = compare_stacks(
        trace,
        scenario_a=scenario_from_trace(trace),
        scenario_b=_small_scenario(arq="none"),
    )
    assert delta.a.offered == delta.b.offered == len(trace.sends())
    assert delta.label_a == "calibrated+greedy+go-back-n"
    assert delta.label_b == "calibrated+greedy+none"


# ----------------------------------------------------- metrics satellites
def test_metrics_p95_latency():
    metrics = NetworkMetrics(records=[
        DeliveryRecord(i, "a", "b", 0.0, delivered_s=float(i + 1))
        for i in range(100)
    ])
    assert metrics.p95_latency_s == pytest.approx(
        np.percentile(np.arange(1.0, 101.0), 95.0)
    )
    assert np.isnan(NetworkMetrics().p95_latency_s)


def test_run_progress_callback_receives_eta_lines():
    scenario = _small_scenario()
    lines: list[str] = []
    simulator = scenario.build_simulator()
    simulator.run(traffic=scenario.build_traffic(), progress=lines.append)
    assert lines
    assert all("net run:" in line and "eta" in line for line in lines)


# ----------------------------------------------------------------- cli
def test_cli_trace_capture_replay_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", "capture", "--nodes", "5", "--duration", "30",
                 "--seed", "7", "--out", str(out)]) == 0
    assert "trace written to" in capsys.readouterr().out
    assert main(["trace", "replay", "--trace", str(out),
                 "--check-roundtrip"]) == 0
    assert "roundtrip OK" in capsys.readouterr().out


def test_cli_trace_replay_with_override_and_json(tmp_path, capsys):
    out = tmp_path / "run.npz"
    report = tmp_path / "replay.json"
    assert main(["trace", "capture", "--nodes", "5", "--duration", "30",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "replay", "--trace", str(out), "--arq", "none",
                 "--json", str(report)]) == 0
    assert "message QoE score" in capsys.readouterr().out
    import json

    payload = json.loads(report.read_text())
    assert payload["scenario"]["arq"] == "none"
    assert payload["qoe"]["offered"] == payload["metrics"]["offered"]


def test_cli_trace_replay_roundtrip_rejects_overrides(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", "capture", "--nodes", "5", "--duration", "30",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "replay", "--trace", str(out), "--arq", "none",
                 "--check-roundtrip"]) == 2
    assert "drop the stack overrides" in capsys.readouterr().err


def test_cli_trace_synth_then_replay(tmp_path, capsys):
    out = tmp_path / "pop.jsonl"
    assert main(["trace", "synth", "--nodes", "8", "--duration", "120",
                 "--rate", "0.05", "--seed", "3", "--out", str(out)]) == 0
    assert "sends" in capsys.readouterr().out
    assert main(["trace", "replay", "--trace", str(out)]) == 0
    assert "delivered" in capsys.readouterr().out


def test_cli_trace_compare_reports_qoe_table(capsys):
    assert main(["trace", "compare", "--trace", str(FIXTURE),
                 "--b-link", "calibrated", "--b-arq", "none"]) == 0
    output = capsys.readouterr().out
    assert "| PDR |" in output
    assert "latency p95" in output
    assert "delta (b-a)" in output


def test_cli_trace_errors_are_reported(tmp_path, capsys):
    assert main(["trace", "replay", "--trace",
                 str(tmp_path / "missing.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "other"}\n')
    assert main(["trace", "replay", "--trace", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- fail closed
_FIXTURE_LINES = [json.loads(line) for line in FIXTURE.read_text().splitlines()]


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """A scratch path per form, and the fixture saved as an archive."""
    root = tmp_path_factory.mktemp("traces")
    archive = root / "fixture.npz"
    Trace.load_jsonl(FIXTURE).save_npz(archive)
    return root / "scratch.jsonl", root / "scratch.npz", archive.read_bytes()


def _load_or_value_error(load, path):
    """``load(path)``: a trace, or ``None`` when it raised ValueError (any
    other exception fails the test).  What loads has integer uids and
    finite times."""
    try:
        trace = load(path)
    except ValueError:
        return None
    for event in trace.events:
        assert type(event.uid) is int and math.isfinite(event.time_s), event
    return trace


@settings(max_examples=100)
@given(path=st.sampled_from(json_paths(_FIXTURE_LINES, depth=2)), value=FIELD_VALUES)
@example(path=(1, "uid"), value=None)
@example(path=(1, "uid"), value=1.5)
@example(path=(1, "t"), value=float("nan"))
@example(path=(0, "meta"), value=[])
def test_corrupt_trace_fields_raise_only_value_errors(trace_files, path, value):
    scratch = trace_files[0]
    lines = replace_at(_FIXTURE_LINES, path, value)
    scratch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    _load_or_value_error(Trace.load_jsonl, scratch)


@settings(max_examples=60)
@given(**BYTE_DAMAGE)
@example(flip=False, where=0.5, bit=0)
@example(flip=True, where=3853.5 / 6161, bit=0)  # renames an event's "t" key
def test_damaged_trace_files_raise_only_value_errors(trace_files, flip, where, bit):
    scratch = trace_files[0]
    scratch.write_bytes(damage_bytes(FIXTURE.read_bytes(), flip, where, bit))
    _load_or_value_error(Trace.load_jsonl, scratch)


@settings(max_examples=60)
@given(**BYTE_DAMAGE)
@example(flip=False, where=0.0, bit=0)
@example(flip=True, where=0.25, bit=0)
@example(flip=True, where=28.5 / 4228, bit=0)  # a deflate stream zlib rejects
def test_damaged_trace_archives_raise_only_value_errors(trace_files, flip, where, bit):
    _, scratch, original = trace_files
    scratch.write_bytes(damage_bytes(original, flip, where, bit))
    trace = _load_or_value_error(Trace.load_npz, scratch)
    if trace is not None:  # the zip's checksums leave nothing silently changed
        assert trace.events == Trace.load_jsonl(FIXTURE).events


# The scenario a trace's header records.  The fixture predates the cc,
# num_flows, queue_capacity and faults_json fields, so it also covers
# documents that lack a key.
_RECORDED_SCENARIO = _FIXTURE_LINES[0]["meta"]["scenario"]
_DECLARED = {
    field.name: field.type for field in dataclasses.fields(NetScenario)
}


@settings(max_examples=100)
@given(path=st.sampled_from(json_paths(_RECORDED_SCENARIO, depth=1)), value=FIELD_VALUES)
@example(path=("num_nodes",), value=None)
@example(path=("num_nodes",), value=float("nan"))
@example(path=("spacing_m",), value=float("inf"))
@example(path=("calibration_progress",), value=0)
@example(path=("seed",), value=True)
def test_corrupt_recorded_scenario_fields_raise_only_value_errors(path, value):
    try:
        scenario = NetScenario.from_dict(replace_at(_RECORDED_SCENARIO, path, value))
    except ValueError:
        return
    # What decodes holds its declared types and finite numbers.
    for name, kind in _DECLARED.items():
        field_value = getattr(scenario, name)
        if kind.endswith(" | None") and field_value is None:
            continue
        expected = {"str": str, "int": int, "float": float, "bool": bool}[
            kind.removesuffix(" | None")
        ]
        assert type(field_value) is expected, (name, field_value)
        if expected is float:
            assert math.isfinite(field_value), (name, field_value)


def test_recorded_scenario_keys_are_checked():
    assert NetScenario.from_dict(_RECORDED_SCENARIO).seed == 42
    with pytest.raises(ValueError, match="unknown field"):
        NetScenario.from_dict(dict(_RECORDED_SCENARIO, num_nodez=9))
    with pytest.raises(ValueError, match="must be a JSON object"):
        NetScenario.from_dict([])
    # A key the document lacks keeps its default.
    lacking = {k: v for k, v in _RECORDED_SCENARIO.items() if k != "ttl"}
    assert NetScenario.from_dict(lacking).ttl == NetScenario().ttl


@pytest.mark.parametrize("command", [["replay"], ["replay", "--check-roundtrip"], ["compare"]])
@pytest.mark.parametrize("edit", ["renamed key", "null count"])
def test_cli_refuses_a_damaged_recorded_scenario(tmp_path, capsys, command, edit):
    lines = json.loads(json.dumps(_FIXTURE_LINES))
    scenario = lines[0]["meta"]["scenario"]
    if edit == "renamed key":
        scenario["num_nodez"] = scenario.pop("num_nodes")
    else:
        scenario["num_nodes"] = None
    path = tmp_path / "damaged.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    assert main(["trace", command[0], "--trace", str(path), *command[1:]]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("column, values, message", [
    ("uid", [1.5], "uid must hold integers"),
    ("uid", ["7"], "uid must hold integers"),
    ("time_s", [math.nan], "time_s must hold finite times"),
    ("time_s", [-math.inf], "time_s must hold finite times"),
    ("time_s", ["0.5"], "time_s must hold finite times"),
])
def test_trace_archive_with_a_bad_column_is_refused(tmp_path, column, values, message):
    columns = _sample_trace().to_columns()
    columns[column] = np.resize(np.array(values), columns[column].shape)
    header = json.dumps({"format": "repro.trace", "version": TRACE_VERSION, "meta": {}})
    path = tmp_path / "bad.npz"
    np.savez_compressed(path, __header__=np.array(header), **columns)
    with pytest.raises(ValueError, match=message):
        Trace.load_npz(path)


@pytest.mark.parametrize("field, value", [("uid", None), ("t", math.nan)])
def test_cli_trace_replay_refuses_a_bad_event(tmp_path, capsys, field, value):
    lines = replace_at(_FIXTURE_LINES, (1, field), value)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    assert main(["trace", "replay", "--trace", str(bad)]) == 2
    assert "error: trace event" in capsys.readouterr().err
