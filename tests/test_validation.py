"""Tests for the repro.validation Monte-Carlo figure harness."""

import dataclasses
import json
import math

import pytest

from repro.validation import (
    EXECUTORS,
    FIGURE_REGISTRY,
    FigureReport,
    FigureSpec,
    MetricSummary,
    MonteCarloRunner,
    ValidationReport,
    available_figures,
    check_against_envelope,
    evaluate_claims,
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
from repro.validation.claims import agg, cell, claim
from repro.validation.executors import KINDS, TrialOutcome, link_scenario
from repro.validation.montecarlo import FigureResult, PointEstimate, summarize_point


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
    kinds = ("link", "sos", "net", "cc", "faults", "response", "reciprocity",
             "case", "noise", "bins", "stability", "mac", "airtime", "protocol")
    assert set(KINDS) == set(kinds)
    assert len(available_figures()) >= 4
    for name, spec in FIGURE_REGISTRY.items():
        assert spec.name == name
        assert set(spec.quick_values) <= set(spec.values)
        assert spec.headline in spec.metrics
        assert spec.kind in kinds


def test_registry_claims_cite_the_paper_and_run_on_the_quick_grid():
    """Every claim names its panel and the paper's value and reads metrics,
    variants and axis values of its own spec (checked when the spec is
    built); every spec with claims evaluates at least one on its quick grid."""
    for spec in FIGURE_REGISTRY.values():
        for entry in spec.claims:
            assert entry.panel and entry.paper, spec.name
        quick_cells = {
            (variant, value)
            for variant in spec.variant_names(quick=True)
            for value in spec.quick_values
        }
        if spec.claims:
            assert any(
                all((t.variant, spec.values[0] if t.at is None else t.at) in quick_cells
                    for t in entry.cells())
                for entry in spec.claims
            ), spec.name


def test_new_figure_executors_produce_their_spec_metrics():
    """One trial of each kind the paper figures added, at minimal size."""
    minimal = {"num_packets": 1, "packets": 2, "probes": 2, "packets_per_tx": 10}
    for name in ("selectivity_by_device", "reciprocity", "case_air",
                 "ambient_noise", "bin_ber_vs_snr", "channel_stability",
                 "mac_carrier_sense", "message_latency", "band_parameters"):
        spec = get_figure(name)
        variant = spec.for_variant(spec.variant_names()[-1])
        small = dataclasses.replace(variant, params={
            **variant.params,
            **{key: value for key, value in minimal.items() if key in variant.params},
        })
        outcome = EXECUTORS[spec.kind](small, spec.values[-1], trial=0, base_seed=0, quick=False)
        produced = set(outcome.counts) | set(outcome.values)
        assert set(spec.metrics) <= produced, name


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
    # A link trial produces every metric a link figure reports, among them
    # the bitrate CDF columns (ordered) and the median band edges.
    means = {name: s.mean for name, s in result.points[0].summaries.items()}
    reported = {m for f in FIGURE_REGISTRY.values() if f.kind == "link" for m in f.metrics}
    assert reported <= set(means)
    cdf = [means[f"bitrate_p{p}_bps"] for p in (10, 25)] + [means["median_bitrate_bps"]]
    assert cdf == sorted(cdf) and means["band_start_hz"] < means["band_end_hz"]


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


def _count_trials(monkeypatch, kind: str) -> list:
    """Record ``(spec, axis value, trial)`` of every call of one kind's
    executor; the runner must be serial for the calls to be seen."""
    calls = []
    real = EXECUTORS[kind]

    def counting(spec, axis_value, trial, base_seed, quick):
        calls.append((spec, axis_value, trial))
        return real(spec, axis_value, trial, base_seed, quick)

    monkeypatch.setitem(EXECUTORS, kind, counting)
    return calls


def test_montecarlo_memo_reuses_records_across_figures(monkeypatch):
    """ber_vs_snr and throughput_vs_distance sweep identical link cells;
    one shared runner must run each cell exactly once."""
    calls = _count_trials(monkeypatch, "link")
    runner = MonteCarloRunner(trials=1, max_workers=1)
    first = runner.run("ber_vs_snr", quick=True)
    assert len(calls) == 2  # 2 quick points x 1 trial
    second = runner.run("throughput_vs_distance", quick=True)
    assert len(calls) == 2  # fully served from the memo
    assert [p.axis_value for p in first.points] == [p.axis_value for p in second.points]
    for a, b in zip(first.points, second.points):
        assert a.summary("per") == b.summary("per")


def test_montecarlo_variants_share_each_cell_seed(monkeypatch):
    """Every variant of a (point, trial) cell runs on that cell's seed and
    reports its metrics as ``metric@variant``."""
    calls = _count_trials(monkeypatch, "link")
    spec = get_figure("receive_chain")
    spec = dataclasses.replace(spec, params={**spec.params, "quick_num_packets": 1})
    result = MonteCarloRunner(trials=2, max_workers=1).run(spec, quick=True)
    scenarios = [link_scenario(s, value, trial, 0, True) for s, value, trial in calls]
    seeds = [spec.point_seed(20.0, t) for t in (0, 1)]
    assert sorted((s.seed, s.modem.use_equalizer) for s in scenarios) == sorted(
        (seed, equalizer) for seed in seeds for equalizer in (True, False)
    )
    assert {"per@full", "per@no-equalizer"} <= set(result.points[0].summaries)


def _shrunk(name: str, **params):
    spec = get_figure(name)
    return dataclasses.replace(spec, params={**spec.params, **params})


def test_montecarlo_points_do_not_depend_on_the_worker_count():
    """A trial's outcome depends only on its cell, so a pooled run and an
    in-process run of the same figures report equal points."""
    specs = [
        _shrunk("ber_vs_snr", quick_num_packets=1),
        _shrunk("sos_range", quick_repetitions=1),
        dataclasses.replace(get_figure("ambient_noise"), values=(0.25,),
                            quick_values=(0.25,)),
        _shrunk("net_pdr_vs_hops", quick_duration_s=20.0),
    ]
    serial, pooled = (MonteCarloRunner(trials=1, max_workers=workers)
                      for workers in (1, 2))
    for spec in specs:
        assert pooled.run(spec, quick=True).points == serial.run(spec, quick=True).points


def test_ambient_noise_twin_cell_runs_once(monkeypatch):
    """The lake site and the galaxy_s9 device variants of Fig. 4 are the
    same trial (the spec's defaults); it runs once and both report it."""
    calls = _count_trials(monkeypatch, "noise")
    spec = dataclasses.replace(get_figure("ambient_noise"), values=(0.25,),
                               quick_values=(0.25,))
    result = MonteCarloRunner(trials=1, max_workers=1).run(spec)
    assert len(spec.variants) == 9 and len(calls) == 8
    lake, s9 = (result.points[0].summary(f"band_1k_4k5_db@{name}")
                for name in ("lake", "galaxy_s9"))
    assert dataclasses.replace(lake, name=s9.name) == s9


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


# --------------------------------------------------------------------- claims
def _claims_spec(*claims):
    return FigureSpec(
        name="toy", title="toy figure", kind="airtime", axis="x",
        values=(1.0, 2.0, 3.0), quick_values=(1.0,), metrics=("m", "p"),
        headline="m", tolerance=0.0, variants={"a": {}, "b": {}}, claims=claims,
    )


def _toy_result(quick=False):
    """m@a falls 30 -> 20 -> 10 along x; m@b stays 15; p stays 25."""
    points = [
        PointEstimate(axis_value=x, n_trials=2, summaries={
            "m@a": summarize_continuous("m@a", [a - 1.0, a + 1.0]),
            "m@b": summarize_continuous("m@b", [15.0, 15.0]),
            "p@a": summarize_continuous("p@a", [25.0, 25.0]),
            "p@b": summarize_continuous("p@b", [25.0, 25.0]),
        })
        for x, a in ((1.0, 30.0), (2.0, 20.0), (3.0, 10.0))
        if not quick or x == 1.0
    ]
    return FigureResult(figure="toy", axis="x", trials=2, quick=quick,
                        points=tuple(points))


_A = [cell("m", "a", x) for x in (1.0, 2.0, 3.0)]


@pytest.mark.parametrize("chain, holds", [
    # monotone along the axis
    ((_A[0], ">", _A[1], ">", _A[2]), True),
    ((_A[0], "<", _A[1], "<", _A[2]), False),
    # A <= B against another metric, another variant, a constant
    ((cell("p", "a", 1.0), "<", _A[0]), True),
    ((cell("p", "a", 2.0), "<=", _A[1]), False),
    ((cell("m", "b", 2.0), "<=", _A[1]), True),
    ((_A[2], ">=", cell("m", "b", 3.0)), False),
    ((_A[2], "<", 10.5), True),
    ((_A[2], "<", 10.0), False),
    # inside a band
    ((5.0, "<", cell("m", "b", 1.0), "<", 20.0), True),
    ((16.0, "<", cell("m", "b", 1.0), "<", 20.0), False),
    # aggregates, scale and offset
    ((agg("max", *_A), "<=", 30.0), True),
    ((agg("mean", *_A), ">", 20.0), False),
    ((agg("sum", _A[0], _A[1]), ">=", 50.0), True),
    ((agg("spread", _A[0], cell("m", "b", 1.0)), ">", 15.0), False),
    ((agg("distinct", *(cell("m", "b", x) for x in (1.0, 2.0, 3.0))), ">", 1), False),
    ((_A[2], ">", cell("m", "b", 3.0, times=0.5, plus=2.0)), True),
    ((agg("min", _A[2], 12.0, plus=1.0), "<=", 11.0), True),
])
def test_claim_shapes_pass_and_fail_on_pooled_estimates(chain, holds):
    spec = _claims_spec(claim("Fig. 0", "paper value", *chain))
    [check] = evaluate_claims(spec, _toy_result())
    assert check.holds is holds
    assert check.passed is holds
    assert check.status == ("pass" if holds else "FAIL")


def test_claim_reports_its_estimates_with_intervals():
    spec = _claims_spec(claim("Fig. 0", "paper value", _A[0], ">", 25.0))
    [check] = evaluate_claims(spec, _toy_result())
    assert check.reproduced() == "30 [28.61, 31.39]"
    row = check.to_dict()
    assert row["claim"] == "m@a(1) > 25" and row["paper"] == "paper value"
    assert row["terms"][1] == [25.0, 25.0, 25.0] and row["gap"] is None


def test_known_gap_is_reported_but_never_fails_the_gate(monkeypatch):
    failing = claim("Fig. 0", "paper value", _A[2], ">", 100.0,
                    gap="measured 10; see the toy model")
    closed = claim("Fig. 0", "paper value", _A[0], ">", 0.0, gap="measured 30")
    spec = _claims_spec(failing, closed)
    monkeypatch.setitem(FIGURE_REGISTRY, "toy", spec)
    checks = evaluate_claims(spec, _toy_result())
    assert [c.status for c in checks] == ["known gap", "known gap: claim now holds"]
    report = ValidationReport()
    report.add(FigureReport(result=_toy_result(), claims=checks))
    assert report.passed
    markdown = report.to_markdown()
    assert "paper vs reproduction" in markdown
    assert "claim now holds" in markdown
    assert "measured 10; see the toy model" in markdown  # listed with every report
    statuses = [row["status"] for row in report.to_dict()["figures"][0]["claims"]]
    assert statuses == ["known gap", "known gap: claim now holds"]


def test_failed_claim_fails_the_report(monkeypatch):
    spec = _claims_spec(claim("Fig. 0", "paper value", _A[2], ">", 100.0))
    monkeypatch.setitem(FIGURE_REGISTRY, "toy", spec)
    report = ValidationReport()
    report.add(FigureReport(result=_toy_result(), claims=evaluate_claims(spec, _toy_result())))
    assert not report.passed
    assert "**FAIL**" in report.to_markdown()


def test_claims_outside_the_quick_grid_skip_quick_runs_but_bind_full_runs():
    spec = _claims_spec(
        claim("Fig. 0", "paper value", _A[2], "<", _A[0]),
        claim("Fig. 0", "paper value", _A[0], ">", 25.0),
    )
    assert len(evaluate_claims(spec, _toy_result(quick=True))) == 1
    full = _toy_result()
    truncated = FigureResult(figure="toy", axis="x", trials=2, quick=False,
                             points=full.points[:2])
    with pytest.raises(LookupError):
        evaluate_claims(spec, truncated)


def test_claims_are_checked_against_their_spec():
    with pytest.raises(ValueError):  # unknown metric
        _claims_spec(claim("Fig. 0", "p", cell("q", "a", 1.0), "<", 1.0))
    with pytest.raises(ValueError):  # unknown variant
        _claims_spec(claim("Fig. 0", "p", cell("m", "c", 1.0), "<", 1.0))
    with pytest.raises(ValueError):  # axis value off the grid
        _claims_spec(claim("Fig. 0", "p", cell("m", "a", 9.0), "<", 1.0))
    with pytest.raises(ValueError):  # no axis value on a multi-point grid
        _claims_spec(claim("Fig. 0", "p", cell("m", "a"), "<", 1.0))
    with pytest.raises(ValueError):  # two operators in one chain
        claim("Fig. 0", "p", _A[0], "<", _A[1], "<=", _A[2])
    with pytest.raises(ValueError):  # nothing measured
        claim("Fig. 0", "p", 1.0, "<", 2.0)
    with pytest.raises(ValueError):  # no panel
        claim("", "p", _A[0], "<", 2.0)
    with pytest.raises(ValueError):  # unknown aggregate
        agg("median", *_A)


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
