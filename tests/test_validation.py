"""Tests for the repro.validation Monte-Carlo figure harness."""

import json
import math

import pytest

from repro.validation import (
    FIGURE_REGISTRY,
    FigureReport,
    FigureSpec,
    MetricSummary,
    MonteCarloRunner,
    ValidationReport,
    available_figures,
    check_against_envelope,
    get_figure,
    intervals_overlap,
    load_envelope,
    normal_interval,
    summarize_continuous,
    summarize_proportion,
    valid_json_path,
    wilson_interval,
    write_envelope,
)
from repro.validation.figures import TrialOutcome, link_scenario
from repro.validation.montecarlo import FigureResult, summarize_point


# ---------------------------------------------------------------------- stats
def test_wilson_interval_brackets_the_proportion():
    low, high = wilson_interval(30, 100)
    assert 0.0 <= low < 0.3 < high <= 1.0


def test_wilson_interval_zero_successes_has_meaningful_upper_bound():
    low, high = wilson_interval(0, 200)
    assert low == 0.0
    assert 0.0 < high < 0.05  # not degenerate, unlike the Wald interval


def test_wilson_interval_all_successes_mirrors_zero():
    low_zero, high_zero = wilson_interval(0, 50)
    low_all, high_all = wilson_interval(50, 50)
    assert low_all == pytest.approx(1.0 - high_zero, abs=1e-12)
    assert high_all == 1.0 and low_zero == 0.0


def test_wilson_interval_narrows_with_more_trials():
    _, high_small = wilson_interval(5, 10)
    low_small, _ = wilson_interval(5, 10)
    low_big, high_big = wilson_interval(500, 1000)
    assert (high_big - low_big) < (high_small - low_small)


def test_wilson_interval_edge_cases():
    assert all(math.isnan(v) for v in wilson_interval(0, 0))
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)
    with pytest.raises(ValueError):
        wilson_interval(1, 3, z=0.0)


def test_normal_interval_single_trial_is_degenerate():
    low, high = normal_interval(3.0, 1.0, 1)
    assert low == high == 3.0


def test_summarize_proportion_pools_counts():
    summary = summarize_proportion("per", [(1, 10), (0, 10), (2, 10)])
    assert summary.successes == 3 and summary.total == 30
    assert summary.mean == pytest.approx(0.1)
    assert summary.kind == "proportion"
    assert summary.ci_low < 0.1 < summary.ci_high
    assert summary.n_trials == 3


def test_summarize_continuous_drops_nan_trials():
    summary = summarize_continuous("goodput", [10.0, float("nan"), 14.0])
    assert summary.mean == pytest.approx(12.0)
    assert summary.ci_low < 12.0 < summary.ci_high


def test_design_effect_widens_ci_for_clustered_failures():
    """Whole-packet failures make bits within a trial move together; the
    corrected interval must be much wider than the naive pooled one."""
    from repro.validation.stats import design_effect

    clustered = [(24, 24), (0, 24), (24, 24), (0, 24)]  # all-or-nothing trials
    assert design_effect(clustered) > 10.0
    summary = summarize_proportion("coded_ber", clustered)
    naive_low, naive_high = wilson_interval(48, 96)
    assert (summary.ci_high - summary.ci_low) > 2 * (naive_high - naive_low)
    # The point estimate and raw pooled counts stay untouched.
    assert summary.mean == pytest.approx(0.5)
    assert summary.successes == 48 and summary.total == 96


def test_design_effect_degenerate_cases_are_neutral():
    from repro.validation.stats import design_effect

    assert design_effect([(0, 10), (0, 10)]) == 1.0  # p == 0
    assert design_effect([(10, 10), (10, 10)]) == 1.0  # p == 1
    assert design_effect([(3, 10)]) == 1.0  # one trial: nothing to estimate
    assert design_effect([]) == 1.0


def test_metric_summary_roundtrip():
    summary = summarize_proportion("ber", [(3, 100), (1, 100)])
    rebuilt = MetricSummary.from_dict(summary.to_dict())
    assert rebuilt == summary


def test_metric_summary_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MetricSummary(name="x", kind="fuzzy", mean=0.0, std=0.0,
                      ci_low=0.0, ci_high=0.0, n_trials=1)


def test_intervals_overlap_with_slack_and_nan():
    assert intervals_overlap(0.0, 1.0, 0.5, 2.0)
    assert not intervals_overlap(0.0, 1.0, 1.2, 2.0)
    assert intervals_overlap(0.0, 1.0, 1.2, 2.0, slack=0.3)
    assert not intervals_overlap(float("nan"), 1.0, 0.0, 2.0)


# -------------------------------------------------------------------- figures
def test_registry_specs_are_coherent():
    assert len(available_figures()) >= 4
    for name, spec in FIGURE_REGISTRY.items():
        assert spec.name == name
        assert set(spec.quick_values) <= set(spec.values)
        assert spec.headline in spec.metrics
        assert spec.kind in ("link", "sos", "net", "cc", "faults")


def test_figure_spec_validation_errors():
    with pytest.raises(ValueError):
        FigureSpec(name="x", title="x", kind="warp", axis="a", values=(1,),
                   quick_values=(1,), metrics=("m",), headline="m", tolerance=0.1)
    with pytest.raises(ValueError):
        FigureSpec(name="x", title="x", kind="link", axis="a", values=(1,),
                   quick_values=(2,), metrics=("m",), headline="m", tolerance=0.1)
    with pytest.raises(ValueError):
        FigureSpec(name="x", title="x", kind="link", axis="a", values=(1,),
                   quick_values=(1,), metrics=("m",), headline="other", tolerance=0.1)
    with pytest.raises(ValueError):
        get_figure("nonexistent_figure")


def test_point_seed_is_stable_across_quick_and_full_grids():
    spec = get_figure("ber_vs_snr")
    # quick sweeps a subset of values, but a shared axis value must land on
    # the same seed so quick CI runs replay the committed envelope's trials.
    for value in spec.quick_values:
        assert spec.point_seed(value, trial=1) == spec.point_seed(value, trial=1)
    seeds = {spec.point_seed(v, t) for v in spec.values for t in range(3)}
    assert len(seeds) == len(spec.values) * 3  # no collisions on the grid


def test_link_scenario_carries_axis_value_and_seed():
    spec = get_figure("ber_vs_snr")
    scenario = link_scenario(spec, 20.0, trial=2, base_seed=7, quick=True)
    assert scenario.distance_m == 20.0
    assert scenario.seed == spec.point_seed(20.0, 2, 7)
    assert scenario.num_packets == spec.param("num_packets", quick=True)


# ----------------------------------------------------------------- montecarlo
@pytest.fixture(scope="module")
def tiny_link_result():
    spec = get_figure("ber_vs_snr")
    runner = MonteCarloRunner(trials=2, max_workers=1)
    return spec, runner.run(spec, quick=True)


def test_montecarlo_link_figure_structure(tiny_link_result):
    spec, result = tiny_link_result
    assert result.figure == "ber_vs_snr"
    assert [p.axis_value for p in result.points] == list(spec.quick_values)
    for point in result.points:
        assert point.n_trials == 2
        for metric in spec.metrics:
            summary = point.summary(metric)
            assert summary.n_trials == 2
            if summary.kind == "proportion":
                assert 0.0 <= summary.ci_low <= summary.ci_high <= 1.0
    # Wilson CIs run over genuine bit counts, not trial counts.
    ber = result.points[0].summary("coded_ber")
    assert ber.total > 100


def test_montecarlo_is_reproducible(tiny_link_result):
    spec, first = tiny_link_result
    second = MonteCarloRunner(trials=2, max_workers=1).run(spec, quick=True)
    assert second.points == first.points


def test_montecarlo_result_json_roundtrip(tiny_link_result):
    _, result = tiny_link_result
    rebuilt = FigureResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.points == result.points
    assert rebuilt.figure == result.figure


def test_montecarlo_sos_and_net_figures_run():
    runner = MonteCarloRunner(trials=1)
    sos = runner.run("sos_range", quick=True)
    assert {m for p in sos.points for m in p.summaries} >= {
        "id_detection_rate", "sos_bit_error_rate", "mean_confidence_db"}
    net = runner.run("net_pdr_vs_hops", quick=True)
    pdr = net.points[0].summary("pdr")
    assert pdr.total > 0 and 0.0 <= pdr.mean <= 1.0


def test_montecarlo_memo_reuses_records_across_figures(monkeypatch):
    """ber_vs_snr and throughput_vs_distance sweep identical scenarios;
    one shared runner must simulate each grid cell exactly once."""
    import repro.validation.montecarlo as mc_module

    executed = []
    real_runner = mc_module.ExperimentRunner

    class CountingRunner(real_runner):
        def iter_run(self, scenarios, progress=None):
            scenarios = list(scenarios)
            executed.extend(s.scenario_hash() for s in scenarios)
            return super().iter_run(scenarios, progress=progress)

    monkeypatch.setattr(mc_module, "ExperimentRunner", CountingRunner)
    runner = MonteCarloRunner(trials=1, max_workers=1)
    first = runner.run("ber_vs_snr", quick=True)
    count_after_first = len(executed)
    second = runner.run("throughput_vs_distance", quick=True)
    assert count_after_first == 2  # 2 quick points x 1 trial
    assert len(executed) == count_after_first  # fully served from the memo
    assert first.points[0].axis_value == second.points[0].axis_value


def test_montecarlo_rejects_bad_trials():
    with pytest.raises(ValueError):
        MonteCarloRunner(trials=0)


def test_summarize_point_mixed_metrics():
    outcomes = [
        TrialOutcome(counts={"per": (1, 4)}, values={"goodput": 100.0}),
        TrialOutcome(counts={"per": (0, 4)}, values={"goodput": 120.0}),
    ]
    point = summarize_point(10.0, outcomes)
    assert point.summary("per").successes == 1
    assert point.summary("goodput").mean == pytest.approx(110.0)
    with pytest.raises(KeyError):
        point.summary("unknown")


# ------------------------------------------------------- envelopes / reports
def test_envelope_roundtrip_and_gate_passes(tiny_link_result, tmp_path):
    spec, result = tiny_link_result
    path = write_envelope(result, tmp_path)
    assert path == valid_json_path(spec.name, tmp_path)
    envelope = load_envelope(path)
    checks = check_against_envelope(result, envelope, spec)
    assert len(checks) == len(result.points)
    assert all(c.passed for c in checks)  # a run always matches itself


def test_envelope_gate_fails_on_shifted_physics(tiny_link_result, tmp_path):
    spec, result = tiny_link_result
    path = write_envelope(result, tmp_path)
    data = json.loads(path.read_text())
    # Simulate a decoder regression: the committed expectation says the
    # coded BER should sit far away from what the fresh run measured.
    for point in data["result"]["points"]:
        headline = point["summaries"][spec.headline]
        headline["mean"] = 0.9
        headline["ci_low"] = 0.89
        headline["ci_high"] = 0.91
    path.write_text(json.dumps(data))
    checks = check_against_envelope(result, load_envelope(path), spec)
    assert not any(c.passed for c in checks)
    assert "FAIL" in checks[0].describe()


def test_envelope_gate_fails_on_missing_point(tiny_link_result, tmp_path):
    spec, result = tiny_link_result
    path = write_envelope(result, tmp_path)
    data = json.loads(path.read_text())
    data["result"]["points"] = data["result"]["points"][:1]
    path.write_text(json.dumps(data))
    checks = check_against_envelope(result, load_envelope(path), spec)
    assert checks[0].passed and not checks[1].passed


def test_load_envelope_rejects_non_envelope(tmp_path):
    bad = tmp_path / "VALID_x.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_envelope(bad)


def test_validation_report_markdown_and_save(tiny_link_result, tmp_path):
    spec, result = tiny_link_result
    write_envelope(result, tmp_path)
    checks = check_against_envelope(result, load_envelope(
        valid_json_path(spec.name, tmp_path)), spec)
    report = ValidationReport()
    report.add(FigureReport(result=result, checks=checks, compared=True))
    markdown = report.to_markdown()
    assert spec.name in markdown
    assert "95% CI" in markdown
    assert "envelope gate" in markdown and "pass" in markdown
    assert report.passed
    path = report.save(tmp_path / "report.json")
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["figures"][0]["checks"]


# -------------------------------------------------------------- fast vs slow
def test_scenario_reference_path_produces_same_statistics(monkeypatch):
    """End-to-end spot check of the fast paths: one scenario rerun with the
    fftconvolve channel and the dense Toeplitz solve swapped in reproduces
    the fast run's packet outcomes exactly (decisions have margins ~1e9
    times the path error)."""
    from oracles.channel import FftconvolveChannel
    from oracles.dsp import dense_toeplitz_solve

    import repro.core.equalizer as equalizer_module
    from repro.channel.channel import UnderwaterAcousticChannel
    from repro.experiments import Scenario

    scenario = Scenario(site="lake", distance_m=10.0, num_packets=3, seed=91)
    fast_stats = scenario.run()
    monkeypatch.setattr(UnderwaterAcousticChannel, "_propagate",
                        FftconvolveChannel._propagate)
    monkeypatch.setattr(equalizer_module, "solve_symmetric_toeplitz",
                        dense_toeplitz_solve)
    slow_stats = scenario.run()
    assert fast_stats.packet_error_rate == slow_stats.packet_error_rate
    assert fast_stats.coded_bit_error_rate == slow_stats.coded_bit_error_rate
    assert (fast_stats.preamble_detection_rate
            == slow_stats.preamble_detection_rate)
