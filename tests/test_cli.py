"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sites_command_lists_all_sites(capsys):
    assert main(["sites"]) == 0
    output = capsys.readouterr().out
    for name in ("bridge", "park", "lake", "beach", "museum", "bay"):
        assert name in output


def test_link_command_runs_small_experiment(capsys):
    code = main(["link", "--site", "bridge", "--distance", "5", "--packets", "3",
                 "--seed", "1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "packet error rate" in output
    assert "median coded bitrate" in output


def test_link_command_with_fixed_scheme(capsys):
    code = main(["link", "--site", "lake", "--distance", "5", "--packets", "2",
                 "--scheme", "fixed-0.5k", "--seed", "2"])
    assert code == 0
    assert "scheme=fixed-0.5k" in capsys.readouterr().out


def test_sweep_command_runs_grid(capsys):
    code = main(["sweep", "--site", "bridge", "--distance", "5", "10",
                 "--packets", "2", "--workers", "1", "--seed", "1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "2 scenario(s)" in output
    assert "median_bps" in output
    assert output.count("bridge") >= 2


def test_sweep_command_writes_json(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--site", "bridge", "--distance", "5",
                 "--scheme", "adaptive", "fixed-0.5k",
                 "--packets", "2", "--workers", "1", "--seed", "3",
                 "--json", str(out)])
    assert code == 0
    from repro.experiments import ResultSet

    results = ResultSet.load(out)
    assert len(results) == 2
    assert {r.scenario.scheme_key for r in results} == {"adaptive", "fixed-0.5k"}
    # Deterministic per-scenario seeding: seed + index.
    assert [r.scenario.seed for r in results] == [3, 4]


def test_sweep_command_uses_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", "--site", "bridge", "--distance", "5", "--packets", "2",
            "--workers", "1", "--seed", "5", "--cache", str(cache)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "cache hits 0/1" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "cache hits 1/1" in second


def test_sweep_command_writes_npz_artifact(capsys, tmp_path):
    out = tmp_path / "sweep.npz"
    code = main(["sweep", "--site", "bridge", "--distance", "5",
                 "--scheme", "adaptive", "fixed-0.5k",
                 "--packets", "2", "--workers", "1", "--seed", "3",
                 "--npz", str(out)])
    assert code == 0
    assert "columnar artifact" in capsys.readouterr().out
    from repro.experiments import ColumnarResultSet

    results = ColumnarResultSet.load_npz(out)
    assert len(results) == 2
    assert {r.scenario.scheme_key for r in results} == {"adaptive", "fixed-0.5k"}


def test_sweep_command_stream_prints_progress(capsys):
    code = main(["sweep", "--site", "bridge", "--distance", "5", "--packets", "2",
                 "--workers", "1", "--seed", "1", "--stream"])
    assert code == 0
    captured = capsys.readouterr()
    assert "sweep 1/1" in captured.err
    assert "eta" in captured.err


def _serve_args(jobs_dir, distances=("4", "5", "6")):
    return ["serve", "--site", "bridge", "--distance", *distances,
            "--packets", "2", "--workers", "1", "--seed", "7",
            "--jobs", str(jobs_dir)]


def test_serve_command_streams_then_replays_from_artifact(capsys, tmp_path):
    root = tmp_path / "svc"
    assert main(_serve_args(root)) == 0
    first = capsys.readouterr().out
    assert "3 scenario(s), state=submitted" in first
    for k in (1, 2, 3):
        assert f"[{k}/3]" in first
    assert "median_bps" in first
    assert "cache hits 0/3" in first
    # Resubmitting the identical grid is served entirely from the
    # artifact: state=done at submission, 100% cache hit reported.
    assert main(_serve_args(root)) == 0
    second = capsys.readouterr().out
    assert "state=done" in second
    assert "[3/3]" in second
    assert "cache hits 3/3" in second


def test_jobs_command_lists_shows_and_fetches(capsys, tmp_path):
    root = tmp_path / "svc"
    assert main(_serve_args(root, distances=("4", "5"))) == 0
    job_id = capsys.readouterr().out.split()[1].rstrip(":")

    assert main(["jobs", "--jobs", str(root)]) == 0
    listing = capsys.readouterr().out
    assert job_id in listing and "done" in listing

    assert main(["jobs", "--jobs", str(root), "--show", job_id]) == 0
    shown = capsys.readouterr().out
    assert "state=done" in shown and "completed=2/2" in shown
    assert "median_bps" in shown  # finished jobs print their table

    out = tmp_path / "fetched.npz"
    assert main(["jobs", "--jobs", str(root), "--fetch", job_id,
                 "--out", str(out)]) == 0
    assert "artifact written to" in capsys.readouterr().out
    from repro.experiments import ColumnarResultSet

    assert len(ColumnarResultSet.load_npz(out)) == 2


def test_jobs_command_rejects_bad_requests(capsys, tmp_path):
    root = tmp_path / "svc"
    assert main(["jobs", "--jobs", str(root)]) == 0
    assert "no jobs" in capsys.readouterr().out
    assert not root.exists()  # listing jobs is read-only
    assert main(["jobs", "--jobs", str(root), "--show", "no-such-job"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["jobs", "--jobs", str(root), "--fetch", "no-such-job"]) == 2
    assert "--fetch requires --out" in capsys.readouterr().err
    assert main(["jobs", "--jobs", str(root), "--fetch", "no-such-job",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err
    # A job root written by an older manifest version is refused, not
    # listed with a traceback.
    import json

    from repro.experiments import Scenario, SweepService

    job = SweepService(root).submit([Scenario(site="bridge", num_packets=1)])
    manifest = root / "jobs" / job.job_id / "manifest.json"
    data = json.loads(manifest.read_text())
    data["manifest_version"] = 1
    manifest.write_text(json.dumps(data))
    assert main(["jobs", "--jobs", str(root)]) == 2
    assert "unsupported manifest version 1" in capsys.readouterr().err


def test_sweep_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["sweep", "--scheme", "fixed-9k"])


def test_sos_command(capsys):
    code = main(["sos", "--distance", "50", "--rate", "20", "--repetitions", "2",
                 "--seed", "3"])
    assert code == 0
    output = capsys.readouterr().out
    assert "correctly decoded IDs" in output


def test_mac_command_with_and_without_carrier_sense(capsys):
    assert main(["mac", "--transmitters", "2", "--packets", "20", "--seed", "4"]) == 0
    with_cs = capsys.readouterr().out
    assert "carrier sense enabled" in with_cs
    assert main(["mac", "--transmitters", "2", "--packets", "20", "--seed", "4",
                 "--no-carrier-sense"]) == 0
    without_cs = capsys.readouterr().out
    assert "carrier sense disabled" in without_cs


def test_invalid_site_rejected():
    with pytest.raises(SystemExit):
        main(["link", "--site", "atlantis"])


_SMALL_NET = ["--nodes", "4", "--duration", "20"]
_MISSING_FILE = str(pathlib.Path(__file__).parent / "data" / "no-such-schedule.json")
_NOT_A_SCHEDULE = str(pathlib.Path(__file__).parent / "data" / "trace_fixture_9node.jsonl")


@pytest.mark.parametrize("argv", [
    ["link", "--site", "bay", "--distance", "50"],
    ["sos", "--repetitions", "0"],
    ["mac", "--transmitters", "0"],
    ["net", "--ttl", "0"],
    ["net", *_SMALL_NET, "--faults", _MISSING_FILE],
    ["chaos", *_SMALL_NET, "--faults", _MISSING_FILE],
    ["chaos", *_SMALL_NET, "--faults", _NOT_A_SCHEDULE],
    ["chaos", *_SMALL_NET, "--churn-rate", "-1"],
    ["chaos", *_SMALL_NET, "--mean-downtime", "0"],
    ["validate", "--quick", "--figure", "ber_vs_snr", "--trials", "1",
     "--workers", "-1"],
    ["mac", "--packets", "0"],
])
def test_bad_run_parameters_exit_2_with_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_serve_rejects_negative_workers_before_submitting(capsys, tmp_path):
    root = tmp_path / "svc"
    code = main(["serve", "--site", "bridge", "--distance", "5", "--packets", "1",
                 "--workers", "-1", "--jobs", str(root)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (root / "jobs").exists()


def test_serve_refuses_an_older_or_unreadable_job_directory(capsys, tmp_path):
    import json

    root = tmp_path / "svc"
    argv = ["serve", "--site", "bridge", "--distance", "5", "--packets", "1",
            "--workers", "1", "--jobs", str(root)]
    assert main(argv) == 0
    job_id = capsys.readouterr().out.split()[1].rstrip(":")
    manifest = root / "jobs" / job_id / "manifest.json"
    data = json.loads(manifest.read_text())
    data["manifest_version"] = 2
    manifest.write_text(json.dumps(data))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: job {job_id}: unsupported manifest version 2")
    manifest.write_text("{truncated")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: job {job_id}: unreadable manifest")


def test_validate_command_quick_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--figure", "ber_vs_snr", "--trials", "1",
                 "--quick", "--workers", "1", "--json", str(out)])
    assert code == 0
    output = capsys.readouterr().out
    assert "ber_vs_snr" in output
    assert "95% CI" in output
    assert "validation gate" not in output  # nothing gated without a reference
    import json

    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert sorted(payload) == ["figures", "passed", "schema_version"]


def test_validate_command_runs_a_repeated_figure_once(capsys, tmp_path):
    import json

    out = tmp_path / "report.json"
    code = main(["validate", "--quick", "--trials", "1", "--json", str(out),
                 "--figure", "net_pdr_vs_hops", "sos_range", "net_pdr_vs_hops"])
    assert code == 0
    assert capsys.readouterr().out.count("(`net_pdr_vs_hops`") == 1
    figures = json.loads(out.read_text())["figures"]
    assert [f["result"]["figure"] for f in figures] == ["net_pdr_vs_hops", "sos_range"]


def test_validate_command_write_then_compare_reference(capsys, tmp_path):
    base = ["validate", "--figure", "sos_range", "--trials", "1",
            "--reference-dir", str(tmp_path)]
    # References come from full runs; the later quick comparison sweeps
    # the quick subset of the same grid against them.
    assert main(base + ["--write-reference"]) == 0
    assert (tmp_path / "VALID_sos_range.json").exists()
    capsys.readouterr()
    assert main(base + ["--quick", "--compare-reference"]) == 0
    output = capsys.readouterr().out
    assert "envelope gate" in output
    assert "validation gate passed" in output


def test_validate_command_refuses_quick_reference_write(capsys, tmp_path):
    # A quick-grid envelope would make every later full-grid comparison
    # fail on the missing points, so writing one is an error.
    code = main(["validate", "--figure", "sos_range", "--trials", "1",
                 "--quick", "--write-reference",
                 "--reference-dir", str(tmp_path)])
    assert code == 2
    assert "full run" in capsys.readouterr().err
    assert not (tmp_path / "VALID_sos_range.json").exists()


def test_validate_command_missing_envelope_errors(capsys, tmp_path, monkeypatch):
    # The envelopes are read before any trial runs, so a missing one fails
    # fast, even when it belongs to the last figure named.
    from repro.validation import MonteCarloRunner

    def no_trials(*args, **kwargs):
        raise AssertionError("ran a figure before reading every envelope")

    monkeypatch.setattr(MonteCarloRunner, "run", no_trials)
    (tmp_path / "VALID_band_parameters.json").write_text(
        (pathlib.Path(__file__).parents[1] / "VALID_band_parameters.json").read_text()
    )
    code = main(["validate", "--figure", "band_parameters", "net_pdr_vs_hops",
                 "--trials", "1", "--quick", "--compare-reference",
                 "--reference-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read envelope" in err
    assert "VALID_net_pdr_vs_hops.json" in err


def test_validate_command_fails_on_shifted_envelope(capsys, tmp_path):
    import json

    base = ["validate", "--figure", "net_pdr_vs_hops", "--trials", "1",
            "--reference-dir", str(tmp_path)]
    assert main(base + ["--write-reference"]) == 0
    path = tmp_path / "VALID_net_pdr_vs_hops.json"
    data = json.loads(path.read_text())
    for point in data["result"]["points"]:
        pdr = point["summaries"]["pdr"]
        pdr["mean"], pdr["ci_low"], pdr["ci_high"] = 0.05, 0.04, 0.06
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(base + ["--compare-reference"])
    assert code == 1
    assert "VALIDATION GATE FAILED" in capsys.readouterr().err


def test_validate_command_rejects_bad_flags(capsys):
    assert main(["validate", "--trials", "0"]) == 2
    assert "--trials" in capsys.readouterr().err
    assert main(["validate", "--compare-reference", "--write-reference"]) == 2
    assert "exclusive" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["validate", "--figure", "fig99"])


def test_net_command_packets_per_point_rebuilds_table(capsys):
    code = main(["net", "--nodes", "4", "--topology", "line", "--spacing", "6",
                 "--range", "8", "--routing", "flooding", "--arq", "none",
                 "--traffic", "cbr", "--rate", "0.05", "--duration", "20",
                 "--destination", "n3", "--seed", "1",
                 "--packets-per-point", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "calibrate[lake]" in captured.err
    assert "eta" in captured.err


def test_net_command_rebuilds_a_table_at_a_short_range_site(capsys):
    # The bridge's range ends at 20 m: its table stops there, not at 25 m.
    assert main(["net", "--site", "bridge", "--packets-per-point", "1"]) == 0
    err = capsys.readouterr().err
    assert "calibrate[bridge] 20 m" in err and "(5/5," in err
    assert "25 m" not in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_net_command_json_is_strict_when_nothing_is_delivered(capsys, tmp_path):
    import json

    out = tmp_path / "net.json"
    # Relays 30 m apart with a 12 m range: no payload reaches n2, so the
    # mean latency is undefined and must be written as null, not NaN.
    code = main(["net", "--nodes", "3", "--topology", "line", "--spacing", "30",
                 "--range", "12", "--routing", "shortest-path", "--arq", "none",
                 "--traffic", "cbr", "--rate", "0.05", "--duration", "60",
                 "--destination", "n2", "--seed", "1", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)
    assert data["offered"] == 6 and data["delivered"] == 0
    assert data["mean_latency_s"] is None
