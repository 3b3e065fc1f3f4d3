"""The ``.npz`` codec of :class:`~repro.experiments.columnar.ColumnarResultSet`.

:class:`ColumnarResultSet` is a :class:`~repro.experiments.records.ResultSet`
plus the versioned ``.npz`` artifact form.  Randomized records (NaN/inf
metrics, signed zeros, unicode scenario labels, ragged per-packet series)
must round-trip losslessly through both on-disk forms, an artifact written
before the result store became one record list must still load (the
golden files under ``tests/data/``), and the loader must refuse every kind
of corrupt or foreign file.
"""

import json
import math
import tempfile
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corruption import BYTE_DAMAGE, damage_bytes

from repro.experiments import (
    ColumnarResultSet,
    ExperimentRunner,
    ResultSet,
    RunRecord,
    Scenario,
    Sweep,
)
from repro.experiments.scenario import content_hash

_examples = settings(max_examples=30)

#: ``save_npz`` and ``save(include_timing=True)`` output of the CI serve
#: grid (bridge, 4/5/6 m, 2 packets, seed 7), written by the arena-based
#: store that preceded the record-list one.
GOLDEN = pathlib.Path(__file__).parent / "data" / "serve_grid_results"

# Any float a simulation metric could plausibly (or implausibly) carry:
# both codecs must be lossless for all of them, NaN and +/-inf included.
_metric = st.floats(allow_nan=True, allow_infinity=True, width=64)

_scenarios = st.builds(
    Scenario,
    site=st.sampled_from(["bridge", "lake"]),
    distance_m=st.sampled_from([4.0, 5.0, 8.0, 12.5]),
    scheme=st.sampled_from(["adaptive", "fixed-3k", "fixed-0.5k"]),
    motion=st.sampled_from(["static", "slow"]),
    num_packets=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=999),
    label=st.text(max_size=8),  # unicode, including '' and whitespace
    rx_depth_m=st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
)


@st.composite
def _records(draw):
    scenario = draw(_scenarios)
    packets = scenario.num_packets
    series = st.lists(_metric, min_size=packets, max_size=packets)
    return RunRecord(
        scenario=scenario,
        num_packets=packets,
        delivered=draw(st.integers(0, packets)),
        packet_error_rate=draw(_metric),
        payload_bit_error_rate=draw(_metric),
        coded_bit_error_rate=draw(_metric),
        preamble_detection_rate=draw(_metric),
        feedback_error_rate=draw(_metric),
        bitrates_bps=tuple(draw(series)),
        band_starts_hz=tuple(draw(series)),
        band_ends_hz=tuple(draw(series)),
        min_band_snrs_db=tuple(draw(series)),
        delivered_flags=tuple(
            draw(st.lists(st.booleans(), min_size=packets, max_size=packets))
        ),
        elapsed_s=draw(st.floats(min_value=0.0, max_value=10.0)),
    )


_record_lists = st.lists(_records(), max_size=8)

#: A record whose every float is ``-0.0``: equality cannot see a lost sign.
_SIGNED_ZEROS = RunRecord(
    scenario=Scenario(site="lake", num_packets=2),
    num_packets=2,
    delivered=2,
    packet_error_rate=-0.0,
    payload_bit_error_rate=-0.0,
    coded_bit_error_rate=-0.0,
    preamble_detection_rate=-0.0,
    feedback_error_rate=-0.0,
    bitrates_bps=(-0.0, -0.0),
    band_starts_hz=(-0.0, -0.0),
    band_ends_hz=(-0.0, -0.0),
    min_band_snrs_db=(-0.0, -0.0),
    delivered_flags=(True, False),
    elapsed_s=-0.0,
)

_FLOAT_FIELDS = (
    "packet_error_rate",
    "payload_bit_error_rate",
    "coded_bit_error_rate",
    "preamble_detection_rate",
    "feedback_error_rate",
    "elapsed_s",
)
_SERIES_FIELDS = ("bitrates_bps", "band_starts_hz", "band_ends_hz", "min_band_snrs_db")


def _same_float(a: float, b: float) -> bool:
    """Equal as stored: NaN matches NaN, and zeros keep their sign."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_identical(loaded, records):
    """Record for record, field for field -- timing included."""
    assert loaded == ResultSet(list(records))
    for rebuilt, original in zip(loaded, records):
        for name in _FLOAT_FIELDS:
            assert _same_float(getattr(rebuilt, name), getattr(original, name)), name
        for name in _SERIES_FIELDS:
            got, want = getattr(rebuilt, name), getattr(original, name)
            assert len(got) == len(want), name
            assert all(_same_float(g, w) for g, w in zip(got, want)), name
        assert rebuilt.delivered_flags == original.delivered_flags


# ------------------------------------------------------------- round-trip
@_examples
@given(_record_lists)
@example([_SIGNED_ZEROS])
def test_roundtrip_is_lossless(records):
    # A non-.npz suffix writes the JSON form, which ResultSet.load reads.
    with tempfile.TemporaryDirectory(prefix="results-json-") as tmp:
        path = ColumnarResultSet(records).save(
            pathlib.Path(tmp) / "results.json", include_timing=True
        )
        loaded = ResultSet.load(path)
    _assert_identical(loaded, records)


@_examples
@given(_record_lists)
@example([_SIGNED_ZEROS])
def test_npz_roundtrip_is_lossless(records):
    with tempfile.TemporaryDirectory(prefix="columnar-npz-") as tmp:
        path = ColumnarResultSet(records).save_npz(pathlib.Path(tmp) / "results.npz")
        loaded = ColumnarResultSet.load_npz(path)
    assert isinstance(loaded, ColumnarResultSet)
    _assert_identical(loaded, records)


def test_save_dispatches_on_suffix(tmp_path):
    results = ColumnarResultSet(_simulated(2))
    npz = results.save(tmp_path / "r.npz", include_timing=False)
    assert ColumnarResultSet.load_npz(npz) == results
    text = results.save(tmp_path / "r.json").read_text(encoding="utf-8")
    assert text == ResultSet(results).to_json(indent=2)


# ----------------------------------------------------------- golden files
def test_golden_npz_loads_like_its_json_twin():
    loaded = ColumnarResultSet.load_npz(GOLDEN.with_suffix(".npz"))
    reference = ResultSet.load(GOLDEN.with_suffix(".json"))
    assert len(loaded) == len(reference) == 3
    _assert_identical(loaded, reference)


def test_golden_npz_resaves_array_for_array(tmp_path):
    golden = GOLDEN.with_suffix(".npz")
    resaved = ColumnarResultSet.load_npz(golden).save_npz(tmp_path / "again.npz")
    with np.load(golden, allow_pickle=False) as want, \
            np.load(resaved, allow_pickle=False) as got:
        assert sorted(got.files) == sorted(want.files)
        for name in want.files:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].shape == want[name].shape, name
            assert np.array_equal(
                got[name], want[name], equal_nan=want[name].dtype.kind == "f"
            ), name


# ---------------------------------------------------------------- queries
def _simulated(num_scenarios=4, packets=2):
    sweep = (
        Sweep(Scenario(site="bridge", num_packets=packets))
        .over(distance_m=[4.0 + i for i in range(num_scenarios // 2)],
              scheme=["adaptive", "fixed-0.5k"])
        .seeded(60)
    )
    return ExperimentRunner(max_workers=1).run(sweep)


def test_simulated_records_roundtrip_and_agree(tmp_path):
    reference = _simulated()
    loaded = ColumnarResultSet.load_npz(
        ColumnarResultSet(reference).save_npz(tmp_path / "r.npz")
    )
    assert loaded == reference
    assert loaded.to_table() == reference.to_table()
    assert loaded.to_json(include_timing=True) == reference.to_json(include_timing=True)
    adaptive = loaded.where(scheme="adaptive")
    assert isinstance(adaptive, ColumnarResultSet)
    assert adaptive == reference.where(scheme="adaptive")
    record = loaded.lookup(distance_m=4.0, scheme="fixed-0.5k")
    assert record == reference.lookup(distance_m=4.0, scheme="fixed-0.5k")


def test_lookup_raises_like_object_path():
    reference = _simulated()
    with pytest.raises(LookupError):
        reference.lookup(scheme="adaptive")  # two matches
    with pytest.raises(LookupError):
        reference.lookup(distance_m=999.0)  # zero matches


def test_where_rejects_unknown_fields_like_object_path():
    reference = _simulated()
    # Unknown catalog spellings raise ValueError, unknown fields
    # AttributeError -- exactly as Scenario.matches does.
    with pytest.raises(ValueError, match="unknown"):
        reference.where(site="atlantis")
    with pytest.raises(AttributeError):
        reference.where(depth_m=1.0)
    # Scenario.matches stops at the first mismatching criterion, so an
    # unknown spelling after one that already fails everywhere never raises.
    for criteria in ({"distance_m": 99.0, "site": "atlantis"},
                     {"seed": 7, "scheme": "fixed-9k"}):
        assert reference.where(**criteria) == ResultSet()


def test_record_indexing_matches_object_path():
    reference = _simulated()
    results = ColumnarResultSet(reference)
    assert results[-1] == reference[len(reference) - 1]
    assert results[0] == reference[0]
    tail = results[1:]
    assert isinstance(tail, ColumnarResultSet)
    assert tail == reference[1:]
    with pytest.raises(IndexError):
        results[len(reference)]


# -------------------------------------------------------- artifact safety
def test_load_npz_rejects_truncated_file(tmp_path):
    path = ColumnarResultSet(_simulated(2)).save_npz(tmp_path / "results.npz")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ColumnarResultSet.load_npz(path)


@settings(max_examples=60, deadline=None)
@given(**BYTE_DAMAGE)
@example(flip=True, where=28.5 / GOLDEN.with_suffix(".npz").stat().st_size, bit=0)
def test_damaged_golden_artifacts_raise_only_value_errors(flip, where, bit):
    golden = GOLDEN.with_suffix(".npz")
    damaged = damage_bytes(golden.read_bytes(), flip, where, bit)
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "results.npz"
        path.write_bytes(damaged)
        try:
            loaded = ColumnarResultSet.load_npz(path)
        except ValueError:
            return
    # The zip's checksums leave nothing silently changed.
    _assert_identical(loaded, ColumnarResultSet.load_npz(golden))


def test_load_npz_rejects_garbage_and_missing_files(tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive")
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ColumnarResultSet.load_npz(garbage)
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ColumnarResultSet.load_npz(tmp_path / "missing.npz")


def test_load_npz_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, unrelated=np.arange(3))
    with pytest.raises(ValueError):
        ColumnarResultSet.load_npz(path)


def test_load_npz_rejects_wrong_version(tmp_path):
    path = ColumnarResultSet(_simulated(2)).save_npz(tmp_path / "results.npz")
    saved = dict(np.load(path, allow_pickle=False))
    # An artifact written while Scenario still had the use_fast_path
    # switch: its scenario entries carry the removed key, hashed to match.
    old_scenarios = [
        dict(json.loads(str(text)), use_fast_path=True)
        for text in saved["scenario_json"]
    ]
    old_schema = {
        "scenario_json": np.asarray(
            [json.dumps(data, sort_keys=True) for data in old_scenarios]
        ),
        "scenario_hash": np.asarray([content_hash(data) for data in old_scenarios]),
    }
    for changes, reason in (({"version": np.asarray(99)}, "unsupported version"),
                            (old_schema, "undecodable scenario")):
        np.savez(path, **dict(saved, **changes))
        with pytest.raises(ValueError, match=reason):
            ColumnarResultSet.load_npz(path)


def test_empty_set_roundtrips(tmp_path):
    empty = ColumnarResultSet()
    assert len(empty) == 0
    assert empty == ResultSet()
    assert empty.where(site="atlantis") == ResultSet()  # never evaluated
    loaded = ColumnarResultSet.load_npz(empty.save_npz(tmp_path / "e.npz"))
    assert loaded == empty
    assert loaded.to_table() == ResultSet().to_table()


def _corruptions():
    """One edit per consistency check of the loader, with its message."""
    return [
        (lambda a: a.pop("delivered"), "missing arrays: delivered"),
        (lambda a: a.update(num_records=np.asarray(5)), "scenario_ids length"),
        (lambda a: a.update(scenario_hash=a["scenario_hash"][:1]), "differ in length"),
        (lambda a: a.update(scenario_ids=a["scenario_ids"] + 7), "out of range"),
        (lambda a: a.update(elapsed_s=a["elapsed_s"][:1]), "column elapsed_s"),
        (lambda a: a.update(scenario_hash=a["scenario_hash"][::-1]), "hashes disagree"),
        (lambda a: a.update(bitrates_bps__offsets=a["bitrates_bps__offsets"][::-1]),
         "ragged column bitrates_bps"),
        (lambda a: a.update(delivered_flags__values=a["delivered_flags__values"][:-1]),
         "ragged column delivered_flags"),
    ]


@pytest.mark.parametrize("edit, reason", _corruptions(),
                         ids=[reason for _, reason in _corruptions()])
def test_load_npz_rejects_inconsistent_arrays(tmp_path, edit, reason):
    path = GOLDEN.with_suffix(".npz")
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match=reason):
        ColumnarResultSet.load_npz(tmp_path / "bad.npz")
