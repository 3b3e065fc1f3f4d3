"""Equivalence oracle for the columnar result arenas.

The object path (:class:`~repro.experiments.records.ResultSet`) is the
legacy reference implementation; :class:`~repro.experiments.columnar.\
ColumnarResultSet` must be observationally identical to it.  The
hypothesis suite here is the gate: randomized records (NaN/inf metrics,
unicode scenario labels, ragged per-packet series) must round-trip
losslessly between the two representations and through the ``.npz``
artifact, and every query -- ``where``, ``to_table``, ``metric``,
aggregations -- must agree with the object path bit for bit.
"""

import json
import math
import tempfile
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# Any float a simulation metric could plausibly (or implausibly) carry:
# the arenas must be lossless for all of them, NaN and +/-inf included.
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

_SCALAR_METRICS = (
    "packet_error_rate",
    "payload_bit_error_rate",
    "coded_bit_error_rate",
    "preamble_detection_rate",
    "feedback_error_rate",
    "elapsed_s",
    "num_packets",
    "delivered",
    "median_bitrate_bps",
)


def _float_equal(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


# ------------------------------------------------------------- round-trip
@_examples
@given(_record_lists)
def test_roundtrip_is_lossless(records):
    reference = ResultSet(list(records))
    columnar = ColumnarResultSet.from_result_set(reference)
    assert len(columnar) == len(reference)
    assert columnar.to_result_set() == reference
    assert columnar == reference
    for rebuilt, original in zip(columnar, reference):
        assert rebuilt == original
        # Record equality excludes timing; losslessness must not.
        assert _float_equal(rebuilt.elapsed_s, original.elapsed_s)
        # Series come back as the exact same tuples (NaN/inf preserved).
        assert len(rebuilt.bitrates_bps) == len(original.bitrates_bps)
        for got, want in zip(rebuilt.bitrates_bps, original.bitrates_bps):
            assert _float_equal(got, want)
        assert rebuilt.delivered_flags == original.delivered_flags


@_examples
@given(_record_lists)
def test_npz_roundtrip_is_lossless(records):
    columnar = ColumnarResultSet(list(records))
    with tempfile.TemporaryDirectory(prefix="columnar-npz-") as tmp:
        path = columnar.save_npz(pathlib.Path(tmp) / "results.npz")
        loaded = ColumnarResultSet.load_npz(path)
    assert loaded == columnar
    assert loaded.to_result_set() == ResultSet(list(records))
    for rebuilt, original in zip(loaded, records):
        assert _float_equal(rebuilt.elapsed_s, original.elapsed_s)


@_examples
@given(_record_lists)
def test_json_form_matches_object_path(records):
    reference = ResultSet(list(records))
    columnar = ColumnarResultSet(list(records))
    assert columnar.to_json() == reference.to_json()
    assert (columnar.to_json(include_timing=True)
            == reference.to_json(include_timing=True))


def _signed_zero_bitrates(bitrates):
    """A record whose finite bitrates are all ``-0.0``."""
    packets = len(bitrates)
    return RunRecord(
        scenario=Scenario(site="lake", num_packets=packets),
        num_packets=packets,
        delivered=packets,
        packet_error_rate=0.0,
        payload_bit_error_rate=0.0,
        coded_bit_error_rate=0.0,
        preamble_detection_rate=1.0,
        feedback_error_rate=0.0,
        bitrates_bps=bitrates,
        band_starts_hz=(1000.0,) * packets,
        band_ends_hz=(4000.0,) * packets,
        min_band_snrs_db=(10.0,) * packets,
        delivered_flags=(True,) * packets,
        elapsed_s=0.0,
    )


# ---------------------------------------------------------------- queries
@_examples
@given(_record_lists)
@example([_signed_zero_bitrates((-0.0,))])
@example([_signed_zero_bitrates((-0.0, -0.0))])
def test_to_table_matches_object_path(records):
    reference = ResultSet(list(records))
    columnar = ColumnarResultSet(list(records))
    assert columnar.to_table() == reference.to_table()
    wide = ("scenario", "packets", "per", "coded_ber", "median_bps",
            "detect", "feedback_err", "elapsed_s", "delivered")
    assert columnar.to_table(wide) == reference.to_table(wide)


@_examples
@given(_record_lists)
def test_metrics_and_aggregations_match_object_path(records):
    reference = ResultSet(list(records))
    columnar = ColumnarResultSet(list(records))
    for name in _SCALAR_METRICS:
        want = reference.metric(name)
        got = np.asarray(columnar.metric(name), dtype=float)
        assert np.array_equal(got, want, equal_nan=True), name
        if want.size:
            assert _float_equal(columnar.mean(name), float(np.mean(want)))
            assert _float_equal(columnar.sum(name), float(np.sum(want)))
        else:
            assert math.isnan(columnar.mean(name))
            assert columnar.sum(name) == 0.0
    assert _float_equal(columnar.total_elapsed_s, reference.total_elapsed_s)
    offered = sum(r.num_packets for r in records)
    if offered:
        want_ratio = sum(r.delivered for r in records) / offered
        assert _float_equal(columnar.delivery_ratio(), want_ratio)
    else:
        assert math.isnan(columnar.delivery_ratio())


@st.composite
def _records_with_criteria(draw):
    records = draw(_record_lists)
    criteria = {}
    names = draw(st.sets(
        st.sampled_from(["site", "scheme", "distance_m", "seed",
                         "label", "motion", "rx_depth_m"]),
        max_size=3,
    ))
    for name in names:
        if records and draw(st.booleans()):
            # Bias towards values actually present so matches happen.
            record = draw(st.sampled_from(records))
            value = getattr(record.scenario, name)
            if name in ("site", "motion"):
                value = draw(st.sampled_from([value, value.name]))
            if name == "scheme":
                value = draw(st.sampled_from(
                    [value, record.scenario.scheme_key]))
        else:
            value = draw({
                "site": st.sampled_from(["bridge", "lake"]),
                "scheme": st.sampled_from(["adaptive", "fixed-3k"]),
                "distance_m": st.sampled_from([4.0, 5.0, 99.0]),
                "seed": st.integers(0, 999),
                "label": st.text(max_size=8),
                "motion": st.sampled_from(["static", "slow"]),
                "rx_depth_m": st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
            }[name])
        criteria[name] = value
    return records, criteria


@_examples
@given(_records_with_criteria())
def test_where_matches_object_path(records_and_criteria):
    records, criteria = records_and_criteria
    reference = ResultSet(list(records)).where(**criteria)
    filtered = ColumnarResultSet(list(records)).where(**criteria)
    assert filtered == reference
    assert filtered.to_table() == reference.to_table()


@_examples
@given(_record_lists)
def test_where_predicate_matches_object_path(records):
    predicate = lambda r: r.delivered > 0  # noqa: E731
    reference = ResultSet(list(records)).where(predicate)
    filtered = ColumnarResultSet(list(records)).where(predicate)
    assert filtered == reference
    combined = ColumnarResultSet(list(records)).where(predicate, site="bridge")
    assert combined == ResultSet(list(records)).where(predicate, site="bridge")


# --------------------------------------------------- directed unit checks
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
    columnar = ColumnarResultSet.from_result_set(reference)
    assert columnar == reference
    assert columnar.to_table() == reference.to_table()
    assert columnar.to_json() == reference.to_json()
    loaded = ColumnarResultSet.load_npz(columnar.save_npz(tmp_path / "r.npz"))
    assert loaded == reference
    adaptive = columnar.where(scheme="adaptive")
    assert adaptive == reference.where(scheme="adaptive")
    record = columnar.lookup(distance_m=4.0, scheme="fixed-0.5k")
    assert record == reference.lookup(distance_m=4.0, scheme="fixed-0.5k")


def test_result_set_to_columnar_bridge():
    reference = _simulated()
    columnar = reference.to_columnar()
    assert isinstance(columnar, ColumnarResultSet)
    assert columnar == reference
    assert columnar.to_result_set() == reference


def test_lookup_raises_like_object_path():
    columnar = ColumnarResultSet.from_result_set(_simulated())
    with pytest.raises(LookupError):
        columnar.lookup(scheme="adaptive")  # two matches
    with pytest.raises(LookupError):
        columnar.lookup(distance_m=999.0)  # zero matches


def test_where_rejects_unknown_fields_like_object_path():
    reference = _simulated()
    columnar = ColumnarResultSet.from_result_set(reference)
    # Unknown catalog spellings raise ValueError, unknown fields
    # AttributeError -- exactly as Scenario.matches does.
    with pytest.raises(ValueError, match="unknown"):
        columnar.where(site="atlantis")
    with pytest.raises(AttributeError):
        columnar.where(depth_m=1.0)
    with pytest.raises(ValueError, match="unknown"):
        reference.where(site="atlantis")
    with pytest.raises(AttributeError):
        reference.where(depth_m=1.0)
    # Scenario.matches stops at the first mismatching criterion, so an
    # unknown spelling after one that already fails everywhere never raises.
    for criteria in ({"distance_m": 99.0, "site": "atlantis"},
                     {"seed": 7, "scheme": "fixed-9k"}):
        assert reference.where(**criteria) == ResultSet()
        assert columnar.where(**criteria) == ResultSet()


def test_metric_views_are_zero_copy_and_read_only():
    columnar = ColumnarResultSet.from_result_set(_simulated())
    view = columnar.metric("packet_error_rate")
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 0.5
    # Appending must not invalidate what the view exposed.
    before = view.copy()
    columnar.append(columnar.record(0))
    assert np.array_equal(columnar.metric("packet_error_rate")[:len(before)],
                          before, equal_nan=True)


def test_record_indexing_matches_object_path():
    reference = _simulated()
    columnar = ColumnarResultSet.from_result_set(reference)
    assert columnar.record(-1) == reference[len(reference) - 1]
    assert columnar[0] == reference[0]
    with pytest.raises(IndexError):
        columnar.record(len(reference))


# -------------------------------------------------------- artifact safety
def test_load_npz_rejects_truncated_file(tmp_path):
    columnar = ColumnarResultSet.from_result_set(_simulated(2))
    path = columnar.save_npz(tmp_path / "results.npz")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="corrupt or unreadable"):
        ColumnarResultSet.load_npz(path)


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
    columnar = ColumnarResultSet.from_result_set(_simulated(2))
    path = columnar.save_npz(tmp_path / "results.npz")
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
    assert empty.to_table() == ResultSet().to_table()
    assert math.isnan(empty.delivery_ratio())
