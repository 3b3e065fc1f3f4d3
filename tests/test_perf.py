"""Tests for the microbenchmark harness and suites (:mod:`repro.perf`)."""

import json

import numpy as np
import pytest

from repro.perf import (
    Benchmark,
    BenchResult,
    available_suites,
    bench_json_path,
    build_suite,
    compare_results,
    format_comparison,
    format_results,
    load_results,
    run_suite,
    write_results,
)


# ---------------------------------------------------------------------- harness
def test_benchmark_runs_warmup_and_repeats():
    calls = []
    bench = Benchmark(name="counter", func=lambda: calls.append(1), repeats=4, warmup=2)
    result = bench.run(suite="demo")
    assert len(calls) == 6  # 2 warmup + 4 timed
    assert result.repeats == 4
    assert result.warmup == 2
    assert result.suite == "demo"
    assert all(t >= 0 for t in result.times_s)


def test_benchmark_run_overrides_repeat_counts():
    calls = []
    bench = Benchmark(name="counter", func=lambda: calls.append(1), repeats=5, warmup=3)
    result = bench.run(repeats=1, warmup=0)
    assert len(calls) == 1
    assert result.repeats == 1


def test_benchmark_validates_counts():
    bench = Benchmark(name="x", func=lambda: None)
    with pytest.raises(ValueError):
        bench.run(repeats=0)
    with pytest.raises(ValueError):
        bench.run(warmup=-1)


def test_bench_result_statistics():
    result = BenchResult(
        name="stats", suite="demo", times_s=(0.2, 0.1, 0.4), warmup=1,
        items_per_call=100.0, unit="bits",
    )
    assert result.mean_s == pytest.approx(0.7 / 3)
    assert result.median_s == pytest.approx(0.2)
    assert result.min_s == pytest.approx(0.1)
    assert result.max_s == pytest.approx(0.4)
    assert result.std_s == pytest.approx(np.std([0.2, 0.1, 0.4]))
    assert result.throughput_per_s == pytest.approx(100.0 / 0.2)


def test_bench_result_even_median():
    result = BenchResult(name="m", suite="s", times_s=(0.1, 0.2, 0.3, 0.4), warmup=0)
    assert result.median_s == pytest.approx(0.25)


def test_json_round_trip(tmp_path):
    bench = Benchmark(
        name="noop", func=lambda: None, items_per_call=42.0, unit="widgets",
        repeats=3, warmup=1, metadata={"size": 42},
    )
    results = [bench.run(suite="demo")]
    path = write_results("demo", results, directory=tmp_path, quick=True)
    assert path == bench_json_path("demo", tmp_path)
    assert path.name == "BENCH_demo.json"

    payload = json.loads(path.read_text())
    assert payload["suite"] == "demo"
    assert payload["quick"] is True
    assert payload["results"][0]["name"] == "noop"
    assert payload["results"][0]["unit"] == "widgets"
    assert payload["results"][0]["metadata"] == {"size": 42}

    suite, loaded = load_results(path)
    assert suite == "demo"
    assert len(loaded) == 1
    assert loaded[0].name == "noop"
    assert loaded[0].items_per_call == 42.0
    assert loaded[0].times_s == results[0].times_s
    assert loaded[0].median_s == pytest.approx(results[0].median_s)


def test_compare_results_percent_change():
    base = [BenchResult(name="a", suite="s", times_s=(0.2,), warmup=0),
            BenchResult(name="only_base", suite="s", times_s=(1.0,), warmup=0)]
    current = [BenchResult(name="a", suite="s", times_s=(0.1,), warmup=0),
               BenchResult(name="only_current", suite="s", times_s=(1.0,), warmup=0)]
    rows = compare_results(base, current)
    assert [row.name for row in rows] == ["a"]  # only overlapping names
    assert rows[0].percent_change == pytest.approx(-50.0)
    assert rows[0].speedup == pytest.approx(2.0)
    report = format_comparison(rows, "s")
    assert "a" in report and "-50.0%" in report
    assert format_comparison([], "s") == "no overlapping benchmarks to compare"


def test_format_results_lists_every_benchmark():
    results = [
        BenchResult(name="first", suite="s", times_s=(0.01,), warmup=0),
        BenchResult(name="second", suite="s", times_s=(0.02,), warmup=0,
                    items_per_call=10, unit="bits"),
    ]
    text = format_results(results)
    assert "first" in text and "second" in text and "bits/s" in text


# ----------------------------------------------------------------------- suites
def test_available_suites_cover_the_hot_paths():
    names = available_suites()
    for expected in ("fec", "ofdm", "preamble", "channel", "link"):
        assert expected in names


def test_build_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suite"):
        build_suite("nope")


def test_quick_mode_only_lowers_repeats():
    full = build_suite("fec", quick=False)
    quick = build_suite("fec", quick=True)
    assert [b.name for b in full] == [b.name for b in quick]
    for full_bench, quick_bench in zip(full, quick):
        assert quick_bench.repeats <= full_bench.repeats
        assert quick_bench.items_per_call == full_bench.items_per_call


def test_fec_suite_decodes_1024_coded_bits():
    suite = {b.name: b for b in build_suite("fec", quick=True)}
    assert suite["viterbi_decode_1024"].items_per_call == 1024
    assert suite["viterbi_decode_1024"].metadata["coded_bits"] == 1024


@pytest.mark.parametrize("name", ["fec", "ofdm", "preamble"])
def test_run_suite_produces_results(name):
    results = [
        bench.run(suite=name, repeats=1, warmup=0)
        for bench in build_suite(name, quick=True)
    ]
    assert results
    for result in results:
        assert result.suite == name
        assert result.repeats == 1
        assert result.median_s >= 0.0


def test_run_suite_end_to_end(tmp_path):
    results = run_suite("ofdm", quick=True)
    path = write_results("ofdm", results, directory=tmp_path, quick=True)
    suite, loaded = load_results(path)
    assert suite == "ofdm"
    assert [r.name for r in loaded] == [r.name for r in results]


def test_write_results_creates_missing_directory(tmp_path):
    target = tmp_path / "not" / "yet" / "there"
    results = [BenchResult(name="x", suite="demo", times_s=(0.01,), warmup=0)]
    path = write_results("demo", results, directory=target)
    assert path.exists()


def test_load_results_rejects_non_object_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="top level must be an object"):
        load_results(path)


def test_trellis_tables_are_frozen():
    from repro.fec import trellis_tables

    trellis = trellis_tables(7, (0o133, 0o171))
    with pytest.raises(ValueError):
        trellis.next_state[0, 0] = 1
    with pytest.raises(ValueError):
        trellis.outputs[0, 0, 0] = 1


# ------------------------------------------------------------------- perf gate
def test_gate_comparison_flags_only_regressions_beyond_threshold():
    from repro.perf import gate_comparison
    from repro.perf.harness import ComparisonRow

    rows = [
        ComparisonRow(name="faster", baseline_s=0.02, current_s=0.01),
        ComparisonRow(name="steady", baseline_s=0.01, current_s=0.0104),
        ComparisonRow(name="slower", baseline_s=0.01, current_s=0.02),
    ]
    flagged = gate_comparison(rows, fail_above_pct=10.0)
    assert [row.name for row in flagged] == ["slower"]
    assert gate_comparison(rows, fail_above_pct=1000.0) == []
    with pytest.raises(ValueError):
        gate_comparison(rows, fail_above_pct=-1.0)


def test_gate_comparison_ignores_zero_baselines():
    from repro.perf import gate_comparison
    from repro.perf.harness import ComparisonRow

    rows = [ComparisonRow(name="new", baseline_s=0.0, current_s=0.01)]
    assert gate_comparison(rows, fail_above_pct=0.0) == []


def test_preamble_suite_asserts_cached_waveform():
    # building the suite runs the no-per-call-allocation assertions
    benchmarks = build_suite("preamble", quick=True)
    names = {bench.name for bench in benchmarks}
    assert "detect_preamble" in names


def test_equalizer_suite_builds_and_runs_quickly():
    results = run_suite("equalizer", quick=True)
    names = {result.name for result in results}
    assert {"equalizer_fit_480", "equalizer_fit_apply_many_8"} <= names


def test_channel_suite_builds_transmit_benchmark():
    benchmarks = build_suite("channel", quick=True)
    assert [bench.name for bench in benchmarks] == ["channel_transmit_preamble"]


def test_link_suite_includes_batch_benchmark():
    benchmarks = build_suite("link", quick=True)
    names = {bench.name for bench in benchmarks}
    assert {"link_session_packet", "link_session_packets_batch"} <= names
