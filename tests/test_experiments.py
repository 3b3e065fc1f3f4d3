"""Tests for the declarative experiment API (repro.experiments)."""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corruption import BYTE_DAMAGE, FIELD_VALUES, damage_bytes, json_paths, replace_at

import repro.experiments.runner as runner_module
from repro.channel.motion import MOTION_PRESETS, MotionModel
from repro.core.baselines import FIXED_FULL_BAND, FIXED_NARROW_BAND, FixedBandScheme
from repro.devices.case import CASE_CATALOG, SOFT_POUCH
from repro.devices.models import DEVICE_CATALOG, GALAXY_S9
from repro.environments.sites import BRIDGE, LAKE, SITE_CATALOG
from repro.experiments import (
    ExperimentRunner,
    ModemSpec,
    ResultSet,
    RunRecord,
    Scenario,
    Sweep,
    run_scenario,
)
from repro.experiments.scenario import SCHEME_CATALOG, _catalog_key, content_hash


# --------------------------------------------------------------- Scenario
def test_scenario_resolves_catalog_keys():
    scenario = Scenario(site="bridge", motion="slow", tx_device="pixel_4",
                        case="hard_case", scheme="fixed-3k")
    assert scenario.site is BRIDGE
    assert scenario.motion.name == "slow"
    assert scenario.tx_device.name == "Google Pixel 4"
    assert scenario.case.name == "hard polycarbonate case"
    assert scenario.scheme is FIXED_FULL_BAND
    assert scenario.scheme_key == "fixed-3k"


@pytest.mark.parametrize("field,value", [
    ("site", "atlantis"),
    ("motion", "warp"),
    ("tx_device", "nokia_3310"),
    ("case", "submarine"),
    ("scheme", "fixed-9k"),
])
def test_scenario_rejects_unknown_keys(field, value):
    with pytest.raises(ValueError, match="unknown"):
        Scenario(**{field: value})


def test_scenario_validates_numbers():
    with pytest.raises(ValueError):
        Scenario(distance_m=0.0)
    with pytest.raises(ValueError):
        Scenario(num_packets=0)
    with pytest.raises(ValueError, match="exceeds the usable range"):
        Scenario(site="bridge", distance_m=500.0)


def test_scenario_dict_roundtrip():
    scenario = Scenario(site="lake", distance_m=12.5, scheme="fixed-0.5k",
                        motion="fast", num_packets=7, seed=42, label="point A",
                        modem=ModemSpec(payload_bits=64, use_differential=False))
    rebuilt = Scenario.from_dict(scenario.to_dict())
    assert rebuilt == scenario
    assert rebuilt.scenario_hash() == scenario.scenario_hash()


_CUSTOM_DEVICE = dataclasses.replace(GALAXY_S9, name="prototype", source_level_db=-2.0)
_CUSTOM_CASE = dataclasses.replace(SOFT_POUCH, name="diy pouch", attenuation_db=2.5)


def test_scenario_dict_roundtrip_with_custom_device_and_case():
    scenario = Scenario(tx_device=_CUSTOM_DEVICE, case=_CUSTOM_CASE, num_packets=3)
    rebuilt = Scenario.from_dict(scenario.to_dict())
    assert rebuilt == scenario
    assert rebuilt.tx_device.speaker_response == _CUSTOM_DEVICE.speaker_response


def test_scenario_hash_distinguishes_parameters():
    base = Scenario()
    assert base.scenario_hash() != base.replace(distance_m=6.0).scenario_hash()
    assert base.scenario_hash() != base.replace(seed=1).scenario_hash()
    assert base.scenario_hash() != base.replace(scheme="fixed-3k").scenario_hash()
    # The hash is content-based, so an equal scenario hashes identically.
    assert base.scenario_hash() == Scenario().scenario_hash()


#: ``scenario_hash()`` of scenarios covering every catalog, custom
#: (non-catalog) entries and a non-default modem.  Cache entries, job ids
#: and ``.npz`` artifacts are keyed on these hashes, so one that moved
#: would silently turn every warm cache and job directory cold.
_PINNED_HASHES = {
    "default": ({}, "90a4dca4c9822cbe"),
    "bridge-4m": (dict(site="bridge", distance_m=4.0, num_packets=2, seed=7),
                  "75e9da06eaa3669c"),
    "park": (dict(site="park"), "4ffc3c20905bd6e9"),
    "lake": (dict(site="lake", distance_m=12.5), "d33c55cf3d427c01"),
    "beach": (dict(site="beach", distance_m=50.0), "ff482a3ce068f134"),
    "museum": (dict(site="museum"), "7027959de1661ebf"),
    "bay": (dict(site="bay", distance_m=20.0), "923e6b5b9218bd58"),
    "slow": (dict(motion="slow"), "d7d277b1bef267ba"),
    "fast": (dict(motion="fast"), "c318501afa6859e7"),
    "pixel_4": (dict(tx_device="pixel_4"), "0aeb7dc896460bba"),
    "oneplus_8_pro": (dict(rx_device="oneplus_8_pro"), "7ec70b0e742e9ee1"),
    "galaxy_watch_4": (dict(tx_device="galaxy_watch_4", rx_device="galaxy_watch_4"),
                       "d1b6e945aa61db0b"),
    "no-case": (dict(case="none"), "1f58b0fabbab2c5f"),
    "air_filled_pouch": (dict(case="air_filled_pouch"), "3723981758a122f2"),
    "hard_case": (dict(case="hard_case"), "374c393533344d27"),
    "fixed-3k": (dict(scheme="fixed-3k"), "abe3db88661fed61"),
    "fixed-1.5k": (dict(scheme="fixed-1.5k"), "22ffa87587e611f1"),
    "fixed-0.5k": (dict(scheme="fixed-0.5k"), "06f5e482e2b48b68"),
    "custom-device-and-case": (dict(tx_device=_CUSTOM_DEVICE, case=_CUSTOM_CASE),
                               "5a989485a35303e8"),
    "custom-scheme": (dict(scheme=FixedBandScheme("fixed 2-3 kHz", 2000.0, 3000.0)),
                      "ea1b1a75a1b7f22c"),
    "custom-motion": (dict(motion=MotionModel("drifting", 0.1, 0.3, 0.02)),
                      "3d32ac05b2460904"),
    "modem": (dict(modem=ModemSpec(payload_bits=192, use_differential=False,
                                   use_interleaving=False, use_equalizer=False,
                                   subcarrier_spacing_hz=25.0)),
              "3303171cbbc20277"),
    "geometry-and-label": (dict(tx_depth_m=3.0, rx_depth_m=2.0, orientation_deg=90.0,
                                label="point A", num_packets=9, seed=123),
                           "b2521477e9e78ca4"),
}


@pytest.mark.parametrize("name", _PINNED_HASHES)
def test_scenario_hash_is_pinned(name):
    fields, digest = _PINNED_HASHES[name]
    scenario = Scenario(**fields)
    assert scenario.scenario_hash() == digest
    # The memoized text is the one the hash covers, and a decoded copy
    # serializes to it again.
    assert scenario.canonical_json() == json.dumps(scenario.to_dict(), sort_keys=True)
    assert content_hash(scenario.to_dict()) == digest
    rebuilt = Scenario.from_dict(json.loads(scenario.canonical_json()))
    assert rebuilt.canonical_json() == scenario.canonical_json()
    assert rebuilt.scenario_hash() == digest


def test_modem_spec_dict_is_its_fields():
    for spec in (ModemSpec(), _PINNED_HASHES["modem"][0]["modem"]):
        assert spec.to_dict() == dataclasses.asdict(spec)
        assert list(spec.to_dict()) == [f.name for f in dataclasses.fields(spec)]


@pytest.mark.parametrize("catalog", [
    SITE_CATALOG, MOTION_PRESETS, DEVICE_CATALOG, CASE_CATALOG, SCHEME_CATALOG,
], ids=["sites", "motions", "devices", "cases", "schemes"])
def test_catalog_key_by_identity_matches_the_equality_scan(catalog):
    def by_equality(value):
        return next((key for key, entry in catalog.items() if entry == value), None)

    for key, entry in catalog.items():
        assert by_equality(entry) == key  # no catalog holds two equal entries
        assert _catalog_key(entry, catalog) == key
        if dataclasses.is_dataclass(entry):  # an equal copy, not the entry
            copy = dataclasses.replace(entry)
            assert copy is not entry
            assert _catalog_key(copy, catalog) == key


def test_scenario_matches_accepts_keys_and_objects():
    scenario = Scenario(site="lake", scheme="fixed-0.5k")
    assert scenario.matches(site="lake", scheme=FIXED_NARROW_BAND)
    assert scenario.matches(site=LAKE, scheme="fixed-0.5k")
    assert not scenario.matches(site="bridge")
    with pytest.raises(AttributeError):
        scenario.matches(depth_m=1.0)


def test_modem_spec_builds_configured_modem():
    spec = ModemSpec(payload_bits=64, use_differential=False,
                     subcarrier_spacing_hz=25.0)
    modem = spec.build()
    assert modem.protocol_config.payload_bits == 64
    assert modem.ofdm_config.subcarrier_spacing_hz == pytest.approx(25.0)


def test_run_scenario_matches_session_run(quiet_channel):
    # run_scenario must reproduce the canonical build_link_pair+LinkSession
    # wiring: same site/seed in two processes would yield the same stats.
    scenario = Scenario(site="bridge", distance_m=5.0, num_packets=2, seed=3)
    first = run_scenario(scenario)
    second = scenario.run()
    assert [r.coded_bitrate_bps for r in first.results] == \
        [r.coded_bitrate_bps for r in second.results]
    assert first.packet_error_rate == second.packet_error_rate


# ------------------------------------------------------------------ Sweep
def test_sweep_over_is_cartesian_product():
    sweep = Sweep(Scenario(num_packets=1)).over(
        distance_m=[5.0, 10.0], scheme=["adaptive", "fixed-3k"])
    scenarios = sweep.scenarios()
    assert len(sweep) == 4
    # First axis varies slowest.
    assert [s.distance_m for s in scenarios] == [5.0, 5.0, 10.0, 10.0]
    assert [s.scheme_key for s in scenarios] == ["adaptive", "fixed-3k"] * 2


def test_sweep_paired_axes_vary_together():
    sweep = Sweep(Scenario(num_packets=1)).paired(
        distance_m=[5.0, 10.0, 20.0], seed=[80, 81, 82])
    assert [(s.distance_m, s.seed) for s in sweep] == [
        (5.0, 80), (10.0, 81), (20.0, 82)]


def test_sweep_paired_accepts_one_shot_iterables():
    sweep = Sweep(Scenario(num_packets=1)).paired(
        distance_m=(5.0 + i for i in range(3)), seed=iter([80, 81, 82]))
    assert [(s.distance_m, s.seed) for s in sweep] == [
        (5.0, 80), (6.0, 81), (7.0, 82)]


def test_sweep_paired_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal lengths"):
        Sweep().paired(distance_m=[5.0, 10.0], seed=[80])


def test_sweep_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown scenario field"):
        Sweep().over(depth_m=[1.0])


def test_sweep_rejects_field_swept_twice():
    base = Sweep(Scenario(num_packets=1)).over(distance_m=[5.0, 10.0])
    with pytest.raises(ValueError, match="already swept"):
        base.paired(distance_m=[5.0, 10.0], seed=[1, 2])
    with pytest.raises(ValueError, match="already swept"):
        base.over(distance_m=[20.0])


def test_sweep_seeded_assigns_seeds():
    sweep = (
        Sweep(Scenario(num_packets=1))
        .over(distance_m=[5.0, 10.0])
        .seeded(100)
    )
    assert [(s.distance_m, s.seed) for s in sweep] == [(5.0, 100), (10.0, 101)]


def test_sweep_builders_are_immutable():
    base = Sweep(Scenario(num_packets=1))
    wider = base.over(distance_m=[5.0, 10.0])
    assert len(base) == 1
    assert len(wider) == 2


def test_sweep_resolves_string_axis_values():
    sweep = Sweep(Scenario(num_packets=1)).over(site=["bridge", "lake"])
    assert [s.site.name for s in sweep] == ["bridge", "lake"]


# ------------------------------------------------------- records / results
def _tiny_sweep(num_scenarios=8, packets=2):
    distances = [4.0 + i for i in range(num_scenarios // 2)]
    return (
        Sweep(Scenario(site="bridge", num_packets=packets))
        .over(distance_m=distances, scheme=["adaptive", "fixed-0.5k"])
        .seeded(50)
    )


def test_runner_parallel_matches_serial_bit_for_bit():
    # Acceptance criterion: >= 8 scenarios through 4 workers must produce
    # records identical to a serial run with the same seeds.
    scenarios = _tiny_sweep(8).scenarios()
    assert len(scenarios) == 8
    serial = ExperimentRunner(max_workers=1).run(scenarios)
    parallel = ExperimentRunner(max_workers=4).run(scenarios)
    assert serial == parallel
    assert serial.to_json() == parallel.to_json()
    # Records arrive in submission order.
    assert [r.scenario for r in parallel] == scenarios


def test_runner_resultset_json_roundtrip(tmp_path):
    results = ExperimentRunner(max_workers=1).run(_tiny_sweep(4))
    path = results.save(tmp_path / "results.json")
    loaded = ResultSet.load(path)
    assert loaded == results
    assert loaded.to_json() == results.to_json()


def test_runner_cache_hits_skip_execution(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    sweep = _tiny_sweep(4)
    first_runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    first = first_runner.run(sweep)
    assert first_runner.last_cache_hits == 0
    assert len(list(cache.glob("*.json"))) == len(first)

    # With the cache warm, execution must never be reached.
    def _boom(scenario):
        raise AssertionError("cache miss: scenario was re-executed")

    monkeypatch.setattr(runner_module, "run_scenario", _boom)
    second_runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    second = second_runner.run(sweep)
    assert second_runner.last_cache_hits == len(second)
    assert second == first


def test_a_cache_hit_returns_the_requested_scenario_instance(tmp_path):
    cache = tmp_path / "cache"
    ExperimentRunner(max_workers=1, cache_dir=cache).run(_tiny_sweep(4))
    scenarios = _tiny_sweep(4).scenarios()  # equal contents, new instances
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    records = runner.run(scenarios)
    assert runner.last_cache_hits == len(scenarios)
    # Not the copy decoded from the cache file: the caller's instance, with
    # its memoized serialization.
    assert all(r.scenario is s for r, s in zip(records, scenarios))


def test_runner_cache_ignores_corrupt_entries(tmp_path):
    cache = tmp_path / "cache"
    scenario = Scenario(site="bridge", num_packets=1, seed=9)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    first = runner.run([scenario])
    cache_file = next(cache.glob("*.json"))
    cache_file.write_text("not json at all{", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        json.loads(cache_file.read_text(encoding="utf-8"))
    second = runner.run([scenario])
    assert runner.last_cache_hits == 0
    assert second == first


def test_runner_cache_ignores_stale_schema(tmp_path):
    # A cache entry written by a different package version may carry unknown
    # scenario fields; it must be recomputed, not crash the run.
    cache = tmp_path / "cache"
    scenario = Scenario(site="bridge", num_packets=1, seed=9)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    first = runner.run([scenario])
    cache_file = next(cache.glob("*.json"))
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    data[0]["scenario"]["future_field"] = 1
    cache_file.write_text(json.dumps(data), encoding="utf-8")
    second = runner.run([scenario])
    assert runner.last_cache_hits == 0
    assert second == first


def test_runner_progress_callback_counts():
    lines = []
    runner = ExperimentRunner(max_workers=1)
    results = list(runner.iter_run(_tiny_sweep(4), progress=lines.append))
    assert len(lines) == len(results) == 4
    assert [line.split(":")[0] for line in lines] == [
        "sweep 1/4", "sweep 2/4", "sweep 3/4", "sweep 4/4"]


def test_runner_cache_is_invalidated_by_the_code_digest(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    scenario = Scenario(site="bridge", num_packets=1, seed=9)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    runner.run([scenario])
    runner.run([scenario])
    assert runner.last_cache_hits == 1
    assert runner.last_cached == (True,)
    # Entries written by other code must not be served: stale simulation
    # code would otherwise leak old numbers silently.
    monkeypatch.setattr(runner_module, "code_digest", lambda: "0" * 64)
    runner.run([scenario])
    assert runner.last_cache_hits == 0
    assert runner.last_cached == (False,)


def test_a_one_byte_edit_in_the_package_changes_the_code_digest(tmp_path):
    # A copy of the package digests like the original wherever it lives,
    # and one edited byte (LAKE's noise level, -33 -> -13 dB) changes the
    # digest.  The copy is imported in a subprocess, so the digest covers
    # the package that is running.
    import repro

    copy = tmp_path / "repro"
    shutil.copytree(
        pathlib.Path(repro.__file__).parent, copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = textwrap.dedent("""
        import pathlib, sys
        import repro
        from repro.experiments.runner import code_digest
        root = pathlib.Path(sys.argv[1])
        assert pathlib.Path(repro.__file__).resolve().parent == root.resolve()
        before = code_digest()
        sites = root / "environments" / "sites.py"
        text = sites.read_text()
        assert text.count("noise_level_db=-33.0") == 1
        sites.write_text(text.replace("noise_level_db=-33.0", "noise_level_db=-13.0"))
        code_digest.cache_clear()
        print(before, code_digest())
    """)
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script, str(copy)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert before == runner_module.code_digest()
    assert after != before


# The cache entry the fail-closed tests damage: a one-packet scenario, its
# record and the link statistics it was built from.
@pytest.fixture(scope="module")
def cache_entry(tmp_path_factory):
    scenario = Scenario(site="bridge", distance_m=4.0, num_packets=1, seed=1)
    stats = run_scenario(scenario)
    cache = tmp_path_factory.mktemp("entry")
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    with mock.patch.object(runner_module, "run_scenario", lambda _: stats):
        [record] = runner.run([scenario])
    path = next(cache.glob("*.json"))
    return scenario, stats, record, path, path.read_bytes()


def _serve_damaged_entry(cache_entry, damaged: bytes) -> bool:
    """Run the entry's scenario over ``damaged`` cache bytes: either the
    entry is refused -- one reason-coded warning, and the scenario is
    simulated again into the original record -- or it still decodes into
    a record of the scenario, which is served exactly as it decodes.
    Returns whether it was refused."""
    scenario, stats, original, path, _ = cache_entry
    path.write_bytes(damaged)
    simulated = []

    def simulate(requested):
        simulated.append(requested)
        return stats

    runner = ExperimentRunner(max_workers=1, cache_dir=path.parent)
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
        runner_module, "run_scenario", simulate
    ):
        warnings.simplefilter("always")
        [record] = runner.run([scenario])
    misses = [w.message for w in caught if isinstance(w.message, runner_module.CacheMissWarning)]
    if simulated:
        assert len(misses) == 1 and misses[0].reason in ("json-decode", "schema"), misses
        assert runner.last_cached == (False,)
        assert record == original
    else:
        # No checksum guards an entry, so a damaged value that still reads
        # as a record of this scenario is what the entry now says.
        assert not misses and runner.last_cached == (True,)
        assert record == RunRecord.from_dict(json.loads(damaged.decode("utf-8"))[0])
        assert type(record.num_packets) is int and type(record.delivered) is int
    return bool(simulated)


@pytest.mark.parametrize("field", ["num_packets", "delivered"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 1.5, "1", True])
def test_a_cache_entry_with_a_count_that_is_not_an_integer_is_a_miss(cache_entry, field, value):
    # int() of Infinity raises OverflowError, which no cache reader
    # expects: the count must be refused as a schema miss instead.
    document = json.loads(cache_entry[-1])
    document[0][field] = value
    assert _serve_damaged_entry(cache_entry, json.dumps(document).encode())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=FIELD_VALUES)
def test_damaged_cache_entry_fields_are_misses_or_read_as_written(cache_entry, data, value):
    document = json.loads(cache_entry[-1])
    path = data.draw(st.sampled_from(json_paths(document, depth=4)), label="path")
    damaged = replace_at(document, path, value)
    _serve_damaged_entry(cache_entry, json.dumps(damaged).encode())


@settings(max_examples=60, deadline=None)
@given(**BYTE_DAMAGE)
@example(flip=False, where=0.0, bit=0)
@example(flip=False, where=0.5, bit=0)
def test_damaged_cache_entry_bytes_are_misses_or_read_as_written(cache_entry, flip, where, bit):
    _serve_damaged_entry(cache_entry, damage_bytes(cache_entry[-1], flip, where, bit))


def test_runner_progress_counts_cache_hits(tmp_path):
    cache = tmp_path / "cache"
    sweep = _tiny_sweep(4)
    ExperimentRunner(max_workers=1, cache_dir=cache).run(sweep)
    lines = []
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    list(runner.iter_run(sweep, progress=lines.append))
    assert runner.last_cache_hits == 4
    assert [line.split(":")[0] for line in lines] == [
        "sweep 1/4", "sweep 2/4", "sweep 3/4", "sweep 4/4"]


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ExperimentRunner(max_workers=-1)


def test_result_set_lookup_and_where():
    results = ExperimentRunner(max_workers=1).run(_tiny_sweep(4))
    adaptive = results.where(scheme="adaptive")
    assert len(adaptive) == 2
    record = results.lookup(distance_m=4.0, scheme="fixed-0.5k")
    assert record.scenario.distance_m == 4.0
    with pytest.raises(LookupError):
        results.lookup(scheme="adaptive")  # two matches
    with pytest.raises(LookupError):
        results.lookup(distance_m=999.0)  # zero matches


def test_result_set_table_and_metrics():
    results = ExperimentRunner(max_workers=1).run(_tiny_sweep(4))
    table = results.to_table()
    assert "scenario" in table and "per" in table
    assert len(table.splitlines()) == 2 + len(results)
    pers = results.metric("packet_error_rate")
    assert pers.shape == (4,)
    assert np.all((pers >= 0) & (pers <= 1))


def test_record_equality_ignores_timing():
    results = ExperimentRunner(max_workers=1).run([Scenario(site="bridge",
                                                            num_packets=1, seed=2)])
    record = results[0]
    clone = RunRecord.from_dict(record.to_dict())
    assert clone.elapsed_s == 0.0
    assert record.elapsed_s > 0.0
    assert clone == record


def test_record_derived_metrics():
    results = ExperimentRunner(max_workers=1).run(
        [Scenario(site="bridge", num_packets=3, seed=4)])
    record = results[0]
    assert record.num_packets == 3
    assert record.finite_bitrates_bps.size <= 3
    if record.finite_bitrates_bps.size:
        assert np.isfinite(record.median_bitrate_bps)
        start_hz, end_hz = record.median_band_edges_hz()
        assert start_hz <= end_hz
        percentiles = record.bitrate_percentiles((10, 50, 90))
        assert percentiles.shape == (3,)
        assert np.all(np.diff(percentiles) >= 0)


# ------------------------------------------------------------- streaming
def test_iter_run_streams_identically_to_blocking_run():
    # Satellite gate: incremental consumption -- serial and through the
    # process pool, with a consumer pause mid-stream -- must yield
    # byte-identical records in identical order to the blocking run().
    import time

    scenarios = _tiny_sweep(8).scenarios()
    blocking = ExperimentRunner(max_workers=1).run(scenarios)
    for workers in (1, 2):
        runner = ExperimentRunner(max_workers=workers)
        streamed = []
        for index, record in enumerate(runner.iter_run(scenarios)):
            if index == 2:
                time.sleep(0.05)  # consumer stalls; producer keeps going
            streamed.append(record)
        assert ResultSet(streamed) == blocking
        assert ResultSet(streamed).to_json() == blocking.to_json()
        assert [r.scenario for r in streamed] == scenarios


def test_iter_run_resolves_cache_before_consumption(tmp_path):
    cache = tmp_path / "cache"
    sweep = _tiny_sweep(4)
    first = ExperimentRunner(max_workers=1, cache_dir=cache).run(sweep)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    stream = runner.iter_run(sweep)
    # Hits are counted when iter_run is called, not when it is drained.
    assert runner.last_cache_hits == 4
    assert ResultSet(list(stream)) == first


def test_iter_run_emits_progress_lines():
    lines = []
    results = ExperimentRunner(max_workers=1).run(
        _tiny_sweep(4), progress=lines.append)
    assert len(lines) == len(results) == 4
    assert lines[0].startswith("sweep 1/4: ")
    assert lines[-1].startswith("sweep 4/4: ")
    assert all("eta" in line and "elapsed" in line for line in lines)


def test_run_columnar_matches_run():
    from repro.experiments import ColumnarResultSet

    scenarios = _tiny_sweep(4).scenarios()
    columnar = ExperimentRunner(max_workers=1).run_columnar(scenarios)
    reference = ExperimentRunner(max_workers=1).run(scenarios)
    assert isinstance(columnar, ColumnarResultSet)
    assert columnar == reference
    assert columnar.to_json() == reference.to_json()


# ------------------------------------------------------ cache corruption
def test_corrupt_cache_entry_warns_recomputes_and_rewrites(tmp_path):
    # Satellite gate: a truncated cache entry is a miss -- re-simulated
    # and rewritten -- announced by a reason-coded CacheMissWarning.
    import warnings

    from repro.experiments import CacheMissWarning

    cache = tmp_path / "cache"
    scenario = Scenario(site="bridge", num_packets=1, seed=9)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    first = runner.run([scenario])
    cache_file = next(cache.glob("*.json"))
    cache_file.write_text(cache_file.read_text(encoding="utf-8")[:25],
                          encoding="utf-8")
    with pytest.warns(CacheMissWarning) as caught:
        second = runner.run([scenario])
    assert runner.last_cache_hits == 0
    assert second == first
    warning = caught[0].message
    assert warning.reason == "json-decode"
    assert warning.path == cache_file
    assert "ignoring corrupt cache entry" in str(warning)
    # The rewritten entry must serve cleanly: no warning, one hit.
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheMissWarning)
        third = runner.run([scenario])
    assert runner.last_cache_hits == 1
    assert third == first


def test_stale_schema_cache_entry_carries_schema_reason(tmp_path):
    from repro.experiments import CacheMissWarning

    cache = tmp_path / "cache"
    scenario = Scenario(site="bridge", num_packets=1, seed=9)
    runner = ExperimentRunner(max_workers=1, cache_dir=cache)
    runner.run([scenario])
    cache_file = next(cache.glob("*.json"))
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    data[0]["scenario"]["future_field"] = 1
    cache_file.write_text(json.dumps(data), encoding="utf-8")
    with pytest.warns(CacheMissWarning) as caught:
        runner.run([scenario])
    assert caught[0].message.reason == "schema"


def test_scenario_results_survive_pickling():
    """A pickled scenario (what pool workers receive) must simulate
    identically to the original -- catalog substitutions that relied on
    object identity used to break this for sites with currents."""
    import pickle

    from repro.experiments.scenario import run_scenario

    scenario = Scenario(site="lake", distance_m=5.0, num_packets=2, seed=1)
    direct = run_scenario(scenario).results
    pickled = run_scenario(pickle.loads(pickle.dumps(scenario))).results
    assert direct == pickled


def test_cross_process_determinism_matches_in_process_run():
    """Regression guard for the STATIC_MOTION pickling bug class.

    The same scenarios run (a) directly in this process and (b) through
    the runner's ProcessPool must yield identical RunRecords AND identical
    scenario hashes -- a catalog object that deserializes to a
    non-identical copy in the worker would silently change the physics or
    the cache key.  The grid deliberately crosses every axis that rides
    the pickle path: motion presets (the original bug), the fixed-band
    scheme objects and a non-default modem spec.
    """
    from repro.experiments.runner import _execute_scenario

    scenarios = [
        Scenario(site="lake", distance_m=5.0, num_packets=2, seed=31,
                 motion="static"),
        Scenario(site="lake", distance_m=5.0, num_packets=2, seed=32,
                 motion="slow"),
        Scenario(site="bridge", distance_m=6.0, num_packets=2, seed=33,
                 scheme="fixed-0.5k"),
        Scenario(site="bridge", distance_m=6.0, num_packets=2, seed=34,
                 modem=ModemSpec(use_interleaving=False)),
    ]
    in_process = [_execute_scenario(s) for s in scenarios]
    pooled = ExperimentRunner(max_workers=2).run(scenarios)
    assert list(pooled.records) == in_process
    for record, scenario in zip(pooled.records, scenarios):
        assert record.scenario.scenario_hash() == scenario.scenario_hash()
    # The serialized form (what the JSON cache stores) must agree too.
    assert (ResultSet(in_process).to_json() == pooled.to_json())
