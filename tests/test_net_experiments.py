"""Tests for NetScenario, the experiments wiring and the net CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import NetScenario
from repro.net.simulator import NetworkResult


def test_net_scenario_validation():
    with pytest.raises(ValueError):
        NetScenario(site="atlantis")
    with pytest.raises(ValueError):
        NetScenario(topology="ring")
    with pytest.raises(ValueError):
        NetScenario(routing="ospf")
    with pytest.raises(ValueError):
        NetScenario(link="fiber")
    with pytest.raises(ValueError):
        NetScenario(arq="tcp")
    with pytest.raises(ValueError):
        NetScenario(traffic="bursty")
    with pytest.raises(ValueError):
        NetScenario(num_nodes=1)
    with pytest.raises(ValueError):
        NetScenario(duration_s=0.0)
    with pytest.raises(ValueError):
        NetScenario(ttl=0)
    for spacing_m in (0.0, -5.0):
        with pytest.raises(ValueError):
            NetScenario(spacing_m=spacing_m)
    with pytest.raises(ValueError):
        NetScenario(num_nodes=4, destination="n9")
    # Depth-greedy only moves packets shallower: ACKs cannot return.
    with pytest.raises(ValueError):
        NetScenario(routing="greedy-depth", arq="go-back-n")
    assert NetScenario(routing="greedy-depth", arq="none").routing == "greedy-depth"


def test_net_scenario_builders():
    scenario = NetScenario(num_nodes=6, topology="line", spacing_m=5.0,
                           comm_range_m=6.0)
    topology = scenario.build_topology()
    assert topology.num_nodes == 6
    assert topology.distance_m("n0", "n5") == pytest.approx(25.0)

    grid = NetScenario(num_nodes=7, topology="grid", spacing_m=4.0)
    assert grid.build_topology().num_nodes == 7

    random = NetScenario(num_nodes=10, topology="random", seed=3)
    assert random.build_topology().num_nodes == 10

    assert NetScenario(link="physical").build_link_model().name == "physical"
    assert NetScenario(link="calibrated").build_link_model().name == "calibrated"


def test_net_scenario_hash_dict_roundtrip_and_describe():
    scenario = NetScenario(num_nodes=12, routing="flooding", label="demo")
    rebuilt = NetScenario.from_dict(scenario.to_dict())
    assert rebuilt == scenario
    assert rebuilt.scenario_hash() == scenario.scenario_hash()
    assert scenario.replace(seed=9).scenario_hash() != scenario.scenario_hash()
    description = scenario.describe()
    assert "demo" in description and "flooding" in description


def test_net_scenario_runs_and_is_deterministic():
    scenario = NetScenario(
        num_nodes=9, routing="greedy", arq="selective-repeat",
        duration_s=60.0, rate_msgs_per_s=0.02, destination="n0", seed=13,
    )
    first = scenario.run()
    second = scenario.run()
    assert isinstance(first, NetworkResult)
    assert first.to_dict() == second.to_dict()
    assert first.metrics.offered > 0


def test_net_scenario_sos_traffic():
    result = NetScenario(
        num_nodes=6, routing="flooding", arq="none", traffic="sos",
        duration_s=61.0, comm_range_m=14.0, seed=2,
    ).run()
    # Three beacons (t=0/30/60) times five potential receivers.
    assert result.metrics.offered == 15
    assert result.metrics.packet_delivery_ratio > 0.5


def test_cli_net_prints_report(capsys):
    exit_code = main([
        "net", "--nodes", "6", "--topology", "line", "--spacing", "6",
        "--range", "8", "--routing", "shortest-path", "--duration", "40",
        "--rate", "0.05", "--destination", "n5", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "PDR" in captured.out
    assert "hop count" in captured.out
    assert "shortest-path" in captured.out


def test_cli_net_writes_json(tmp_path, capsys):
    path = tmp_path / "net.json"
    exit_code = main([
        "net", "--nodes", "5", "--topology", "line", "--spacing", "6",
        "--range", "8", "--duration", "30", "--rate", "0.05",
        "--destination", "n0", "--seed", "1", "--json", str(path),
    ])
    capsys.readouterr()
    assert exit_code == 0
    data = json.loads(path.read_text())
    assert data["num_nodes"] == 5
    assert "packet_delivery_ratio" in data
    assert data["routing"] == "greedy"


def test_cli_net_rejects_bad_destination(capsys):
    exit_code = main([
        "net", "--nodes", "4", "--destination", "n99", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error" in captured.err


def test_calibration_packets_per_point_requires_calibrated_link():
    with pytest.raises(ValueError, match="calibrated"):
        NetScenario(link="physical", calibration_packets_per_point=4)
    with pytest.raises(ValueError, match="at least 1"):
        NetScenario(calibration_packets_per_point=0)
