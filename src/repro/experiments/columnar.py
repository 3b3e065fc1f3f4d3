"""Columnar storage for experiment results.

:class:`ColumnarResultSet` holds the same information as a
:class:`~repro.experiments.records.ResultSet` -- one
:class:`~repro.experiments.records.RunRecord` per executed scenario --
but stores it in grow-by-doubling numpy arenas instead of per-record
Python objects:

* every scalar metric (packet error rate, delivered counts, ...) is one
  contiguous column, so aggregating a 100k-record sweep is a handful of
  numpy reductions instead of 100k attribute lookups;
* the per-packet series (bitrates, band edges, in-band SNRs, delivery
  flags) live in CSR-style ragged columns (one flat value arena plus an
  offsets arena per series);
* scenarios are interned: each distinct scenario is serialized once into
  a string table (canonical sorted-key JSON) alongside its content hash,
  and records carry only an integer id.  :meth:`where` therefore asks
  :meth:`~repro.experiments.scenario.Scenario.matches` once per unique
  scenario, not once per record.

The round trip to the object representation is lossless --
``ColumnarResultSet.from_result_set(rs).to_result_set() == rs`` holds for
any result set, including NaN/inf metric values and unicode scenario
labels.  :meth:`where` has :meth:`Scenario.matches` semantics, and
:meth:`to_table` / :meth:`to_json` / :meth:`save` render through
:meth:`to_result_set`, so all of them agree with the object path; the
equivalence-oracle property suite in ``tests/test_columnar.py`` also
holds :meth:`metric` and the aggregations to it on randomized inputs.

On disk a columnar result set is a ``.npz`` artifact
(:meth:`save_npz` / :meth:`load_npz`) written beside the runner's JSON
cache; the format is versioned and a truncated or foreign file raises a
:class:`ValueError` so callers can treat it as a cache miss.
"""

from __future__ import annotations

import json
import pathlib
import zipfile
from typing import Callable, Iterator

import numpy as np

from repro.experiments.records import DEFAULT_TABLE_COLUMNS, ResultSet, RunRecord
from repro.experiments.scenario import Scenario, content_hash

#: ``.npz`` artifact format marker and version (bump on layout changes).
NPZ_FORMAT = "repro.columnar-results"
NPZ_VERSION = 1

#: Scalar float columns, in serialization order.
_FLOAT_FIELDS = (
    "packet_error_rate",
    "payload_bit_error_rate",
    "coded_bit_error_rate",
    "preamble_detection_rate",
    "feedback_error_rate",
    "elapsed_s",
)
#: Scalar integer columns.
_INT_FIELDS = ("num_packets", "delivered")
#: Ragged per-packet float series.
_SERIES_FIELDS = (
    "bitrates_bps",
    "band_starts_hz",
    "band_ends_hz",
    "min_band_snrs_db",
)


class _Arena:
    """A 1-D numpy array that grows by doubling."""

    __slots__ = ("_data", "_size")

    def __init__(self, dtype, capacity: int = 16) -> None:
        self._data = np.empty(max(int(capacity), 1), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._data.size:
            return
        capacity = self._data.size
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=self._data.dtype)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value) -> None:
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        self._reserve(values.size)
        self._data[self._size : self._size + values.size] = values
        self._size += values.size

    def view(self) -> np.ndarray:
        """Zero-copy read-only view of the filled prefix."""
        out = self._data[: self._size]
        out.flags.writeable = False
        return out


class _RaggedColumn:
    """CSR-style ragged column: flat values plus per-row offsets."""

    __slots__ = ("values", "offsets")

    def __init__(self, dtype) -> None:
        self.values = _Arena(dtype)
        self.offsets = _Arena(np.int64)
        self.offsets.append(0)

    def append(self, sequence) -> None:
        self.values.extend(sequence)
        self.offsets.append(len(self.values))

    def segment(self, index: int) -> np.ndarray:
        offsets = self.offsets.view()
        return self.values.view()[offsets[index] : offsets[index + 1]]


class StringTable:
    """Append-only interning table mapping strings to dense integer ids."""

    __slots__ = ("_ids", "strings")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []

    def __len__(self) -> int:
        return len(self.strings)

    def intern(self, value: str) -> int:
        """Return the id of ``value``, adding it on first sight."""
        found = self._ids.get(value)
        if found is not None:
            return found
        new_id = len(self.strings)
        self._ids[value] = new_id
        self.strings.append(value)
        return new_id

    def lookup(self, value: str) -> int | None:
        """The id of ``value`` or ``None`` when never interned."""
        return self._ids.get(value)

    def __getitem__(self, index: int) -> str:
        return self.strings[index]


def _segment_median_finite(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment median of the finite entries (NaN for empty segments).

    The vectorized equivalent of reading
    :attr:`RunRecord.median_bitrate_bps` per record: entries are grouped
    by segment, non-finite values dropped, and every group's median comes
    out of one global ``lexsort`` instead of one ``np.median`` per record.
    """
    n = offsets.size - 1
    out = np.full(n, np.nan)
    if values.size == 0 or n == 0:
        return out
    segment_ids = np.repeat(np.arange(n), np.diff(offsets))
    finite = np.isfinite(values)
    segment_ids = segment_ids[finite]
    kept = values[finite]
    if kept.size == 0:
        return out
    order = np.lexsort((kept, segment_ids))
    kept = kept[order]
    segment_ids = segment_ids[order]
    counts = np.bincount(segment_ids, minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    nonempty = counts > 0
    low = starts[nonempty] + (counts[nonempty] - 1) // 2
    high = starts[nonempty] + counts[nonempty] // 2
    # Odd counts pick the middle element directly, exactly as np.median
    # does -- averaging it with itself would overflow for |v| > ~9e307.
    median = kept[low]
    even = low != high
    median[even] = 0.5 * (kept[high[even]] + median[even])
    # + 0.0 turns -0.0 into +0.0, the signed zero np.median returns.
    out[nonempty] = median + 0.0
    return out


class ColumnarResultSet:
    """Ordered experiment results in grow-by-doubling numpy arenas.

    Behaves like :class:`~repro.experiments.records.ResultSet` -- same
    :meth:`where` / :meth:`lookup` / :meth:`metric` / :meth:`to_table` /
    :meth:`save` surface, same iteration order -- while storing columns
    instead of objects.  Records materialize lazily via :meth:`record`;
    aggregation never touches per-record Python objects.
    """

    def __init__(self, records=None) -> None:
        self._float_cols = {name: _Arena(np.float64) for name in _FLOAT_FIELDS}
        self._int_cols = {name: _Arena(np.int64) for name in _INT_FIELDS}
        self._series = {name: _RaggedColumn(np.float64) for name in _SERIES_FIELDS}
        self._flags = _RaggedColumn(np.bool_)
        # Scenario interning: per-record id into the per-unique tables.
        self._scenario_ids = _Arena(np.int64)
        self._scenario_table = StringTable()  # canonical scenario JSON
        self._scenario_hashes: list[str] = []  # parallel to the table
        self._scenario_cache: dict[int, Scenario] = {}
        # Equality-keyed fast path around the serialize-then-intern step:
        # scenarios are frozen/hashable, so repeat appends of the same
        # (or an equal) scenario skip to_dict + json.dumps entirely.
        self._scenario_memo: dict[Scenario, int] = {}
        for record in records or ():
            self.append(record)

    # ------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return len(self._scenario_ids)

    def __iter__(self) -> Iterator[RunRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._gather(np.arange(len(self))[index])
        return self.record(int(index))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarResultSet):
            other = other.to_result_set()
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.to_result_set() == other

    # ------------------------------------------------------------ ingestion
    def _intern_scenario(self, scenario: Scenario) -> int:
        memoized = self._scenario_memo.get(scenario)
        if memoized is not None:
            return memoized
        data = scenario.to_dict()
        key = json.dumps(data, sort_keys=True)
        known = self._scenario_table.lookup(key)
        if known is not None:
            self._scenario_memo[scenario] = known
            return known
        sid = self._scenario_table.intern(key)
        self._scenario_hashes.append(content_hash(data))
        self._scenario_cache[sid] = scenario
        self._scenario_memo[scenario] = sid
        return sid

    def append(self, record: RunRecord) -> None:
        """Add one record's fields to the arenas."""
        self._scenario_ids.append(self._intern_scenario(record.scenario))
        for name in _FLOAT_FIELDS:
            self._float_cols[name].append(float(getattr(record, name)))
        for name in _INT_FIELDS:
            self._int_cols[name].append(int(getattr(record, name)))
        for name in _SERIES_FIELDS:
            self._series[name].append(
                np.asarray(getattr(record, name), dtype=np.float64)
            )
        self._flags.append(np.asarray(record.delivered_flags, dtype=np.bool_))

    def extend(self, records) -> None:
        """Append every record of an iterable."""
        for record in records:
            self.append(record)

    # -------------------------------------------------------- reconstruction
    def scenario_for_id(self, sid: int) -> Scenario:
        """The unique scenario behind an interned id (cached)."""
        scenario = self._scenario_cache.get(sid)
        if scenario is None:
            scenario = Scenario.from_dict(json.loads(self._scenario_table[sid]))
            self._scenario_cache[sid] = scenario
        return scenario

    def scenario(self, index: int) -> Scenario:
        """The scenario of record ``index``."""
        return self.scenario_for_id(int(self._scenario_ids.view()[index]))

    def scenario_hash(self, index: int) -> str:
        """Content hash of record ``index``'s scenario (no recomputation)."""
        return self._scenario_hashes[int(self._scenario_ids.view()[index])]

    def record(self, index: int) -> RunRecord:
        """Materialize record ``index`` as a :class:`RunRecord`."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"record index {index} out of range ({len(self)})")
        floats = {
            name: float(self._float_cols[name].view()[index])
            for name in _FLOAT_FIELDS
        }
        series = {
            name: tuple(float(v) for v in self._series[name].segment(index))
            for name in _SERIES_FIELDS
        }
        return RunRecord(
            scenario=self.scenario(index),
            num_packets=int(self._int_cols["num_packets"].view()[index]),
            delivered=int(self._int_cols["delivered"].view()[index]),
            packet_error_rate=floats["packet_error_rate"],
            payload_bit_error_rate=floats["payload_bit_error_rate"],
            coded_bit_error_rate=floats["coded_bit_error_rate"],
            preamble_detection_rate=floats["preamble_detection_rate"],
            feedback_error_rate=floats["feedback_error_rate"],
            bitrates_bps=series["bitrates_bps"],
            band_starts_hz=series["band_starts_hz"],
            band_ends_hz=series["band_ends_hz"],
            min_band_snrs_db=series["min_band_snrs_db"],
            delivered_flags=tuple(bool(v) for v in self._flags.segment(index)),
            elapsed_s=floats["elapsed_s"],
        )

    def to_result_set(self) -> ResultSet:
        """Materialize every record (the lossless inverse of ingestion)."""
        return ResultSet([self.record(i) for i in range(len(self))])

    @classmethod
    def from_result_set(cls, results: ResultSet) -> "ColumnarResultSet":
        """Build a columnar set from an object result set."""
        return cls(results.records)

    # ------------------------------------------------------------ selection
    def where(
        self,
        predicate: Callable[[RunRecord], bool] | None = None,
        **criteria,
    ) -> "ColumnarResultSet":
        """Records whose scenario matches the criteria (and predicate).

        The criteria have :meth:`Scenario.matches` semantics, exactly as in
        :meth:`ResultSet.where`: catalog keys are accepted for
        site/motion/device/case/scheme, criteria are checked in keyword
        order and a scenario stops at its first mismatch, and an unknown
        field raises :class:`AttributeError`.  ``matches`` runs once per
        unique scenario, so the cost scales with the number of distinct
        scenarios, not records; records are only materialized when a
        ``predicate`` needs them.
        """
        count = len(self._scenario_hashes)
        unique_mask = np.fromiter(
            (self.scenario_for_id(sid).matches(**criteria) for sid in range(count)),
            dtype=np.bool_,
            count=count,
        )
        indices = np.flatnonzero(unique_mask[self._scenario_ids.view()])
        if predicate is not None:
            indices = np.asarray(
                [i for i in indices if predicate(self.record(int(i)))],
                dtype=np.int64,
            )
        return self._gather(indices)

    def lookup(self, **criteria) -> RunRecord:
        """The single record matching the criteria; raises otherwise."""
        picked = self.where(**criteria)
        if len(picked) != 1:
            raise LookupError(
                f"expected exactly one record for {criteria}, found {len(picked)}"
            )
        return picked.record(0)

    def _gather(self, indices: np.ndarray) -> "ColumnarResultSet":
        """A new columnar set holding the given record indices, in order."""
        out = ColumnarResultSet()
        for index in indices:
            index = int(index)
            out._scenario_ids.append(out._intern_scenario(self.scenario(index)))
            for name in _FLOAT_FIELDS:
                out._float_cols[name].append(self._float_cols[name].view()[index])
            for name in _INT_FIELDS:
                out._int_cols[name].append(self._int_cols[name].view()[index])
            for name in _SERIES_FIELDS:
                out._series[name].append(self._series[name].segment(index))
            out._flags.append(self._flags.segment(index))
        return out

    # ---------------------------------------------------------- aggregation
    def metric(self, name: str) -> np.ndarray:
        """One metric across records, as an array.

        Scalar columns come back as zero-copy read-only views; derived
        metrics (``median_bitrate_bps``) are computed vectorized over the
        ragged arenas.  Unknown names fall back to the object path so any
        :class:`RunRecord` attribute stays reachable.
        """
        if name in _FLOAT_FIELDS:
            return self._float_cols[name].view()
        if name in _INT_FIELDS:
            return self._int_cols[name].view()
        if name == "median_bitrate_bps":
            column = self._series["bitrates_bps"]
            return _segment_median_finite(
                column.values.view(), column.offsets.view()
            )
        return np.asarray(
            [getattr(self.record(i), name) for i in range(len(self))],
            dtype=float,
        )

    def mean(self, name: str) -> float:
        """Mean of one metric (NaN-propagating, like ``np.mean``)."""
        values = np.asarray(self.metric(name), dtype=float)
        return float(np.mean(values)) if values.size else float("nan")

    def sum(self, name: str) -> float:
        """Sum of one metric."""
        return float(np.sum(np.asarray(self.metric(name), dtype=float)))

    def percentile(self, name: str, q):
        """Percentile(s) of one metric across records."""
        values = np.asarray(self.metric(name), dtype=float)
        if values.size == 0:
            return np.full(np.shape(q), float("nan")) if np.ndim(q) else float("nan")
        return np.percentile(values, q)

    def delivery_ratio(self) -> float:
        """Pooled delivered/offered packets over the whole set."""
        offered = int(np.sum(self._int_cols["num_packets"].view()))
        if offered == 0:
            return float("nan")
        return float(np.sum(self._int_cols["delivered"].view())) / offered

    @property
    def total_elapsed_s(self) -> float:
        """Sum of the per-record execution times.

        Summed sequentially (not ``np.sum``'s pairwise order) so the
        result is bit-identical to :attr:`ResultSet.total_elapsed_s`.
        """
        return float(sum(self._float_cols["elapsed_s"].view().tolist()))

    # --------------------------------------------------------------- export
    def to_table(self, columns=DEFAULT_TABLE_COLUMNS) -> str:
        """Fixed-width text table, rendered by :meth:`ResultSet.to_table`."""
        return self.to_result_set().to_table(columns)

    def to_json(self, indent: int | None = None, include_timing: bool = False) -> str:
        """JSON form, identical to the object path's."""
        return self.to_result_set().to_json(
            indent=indent, include_timing=include_timing
        )

    def save(self, path, include_timing: bool = False) -> pathlib.Path:
        """Write the legacy JSON form (``ResultSet.load`` compatible)."""
        return self.to_result_set().save(path, include_timing=include_timing)

    # ----------------------------------------------------------- npz format
    def save_npz(self, path) -> pathlib.Path:
        """Write the columnar arenas to a versioned ``.npz`` artifact."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        strings = self._scenario_table.strings
        arrays: dict[str, np.ndarray] = {
            "format": np.asarray(NPZ_FORMAT),
            "version": np.asarray(NPZ_VERSION, dtype=np.int64),
            "num_records": np.asarray(len(self), dtype=np.int64),
            "scenario_ids": np.asarray(self._scenario_ids.view()),
            # Empty "U0" arrays round-trip badly; force a 1-char dtype.
            "scenario_json": np.asarray(strings)
            if strings else np.empty(0, dtype="U1"),
            "scenario_hash": np.asarray(self._scenario_hashes)
            if self._scenario_hashes else np.empty(0, dtype="U1"),
            "delivered_flags__values": np.asarray(self._flags.values.view()),
            "delivered_flags__offsets": np.asarray(self._flags.offsets.view()),
        }
        for name in _FLOAT_FIELDS:
            arrays[name] = np.asarray(self._float_cols[name].view())
        for name in _INT_FIELDS:
            arrays[name] = np.asarray(self._int_cols[name].view())
        for name in _SERIES_FIELDS:
            arrays[f"{name}__values"] = np.asarray(self._series[name].values.view())
            arrays[f"{name}__offsets"] = np.asarray(self._series[name].offsets.view())
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        return path

    @classmethod
    def load_npz(cls, path) -> "ColumnarResultSet":
        """Load a :meth:`save_npz` artifact.

        Raises :class:`ValueError` on any corruption -- truncated zip,
        missing arrays, inconsistent offsets, undecodable scenarios --
        so callers can uniformly treat a bad artifact as a cache miss.
        """
        path = pathlib.Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
        except (OSError, EOFError, KeyError, zipfile.BadZipFile, ValueError) as error:
            raise ValueError(
                f"corrupt or unreadable columnar artifact {path}: {error}"
            ) from error
        return cls._from_npz_arrays(arrays, source=str(path))

    @classmethod
    def _from_npz_arrays(cls, arrays: dict, source: str = "") -> "ColumnarResultSet":
        def fail(reason: str):
            raise ValueError(f"corrupt columnar artifact {source}: {reason}")

        if "format" not in arrays or str(arrays["format"]) != NPZ_FORMAT:
            fail("missing or foreign format marker")
        if int(arrays.get("version", -1)) != NPZ_VERSION:
            fail(f"unsupported version {arrays.get('version')}")
        required = (
            ["num_records", "scenario_ids", "scenario_json", "scenario_hash",
             "delivered_flags__values", "delivered_flags__offsets"]
            + list(_FLOAT_FIELDS)
            + list(_INT_FIELDS)
            + [f"{name}__{part}" for name in _SERIES_FIELDS
               for part in ("values", "offsets")]
        )
        missing = [key for key in required if key not in arrays]
        if missing:
            fail(f"missing arrays: {', '.join(missing)}")
        n = int(arrays["num_records"])
        scenario_ids = np.asarray(arrays["scenario_ids"], dtype=np.int64)
        scenario_json = [str(s) for s in arrays["scenario_json"]]
        scenario_hash = [str(s) for s in arrays["scenario_hash"]]
        if n < 0 or scenario_ids.size != n:
            fail("scenario_ids length mismatch")
        if len(scenario_hash) != len(scenario_json):
            fail("scenario hash/json tables differ in length")
        if n and (scenario_ids.min() < 0 or scenario_ids.max() >= len(scenario_json)):
            fail("scenario id out of range")
        for name in _FLOAT_FIELDS + _INT_FIELDS:
            if np.asarray(arrays[name]).shape != (n,):
                fail(f"column {name} length mismatch")
        out = cls()
        # Rebuild the interning state from the unique scenarios, then bulk
        # copy the columns.
        for text in scenario_json:
            try:
                scenario = Scenario.from_dict(json.loads(text))
            except (TypeError, KeyError, ValueError) as error:
                fail(f"undecodable scenario entry: {error}")
            out._intern_scenario(scenario)
        if out._scenario_hashes != scenario_hash:
            fail("scenario hashes disagree with scenario contents")
        out._scenario_ids.extend(scenario_ids)
        for name in _FLOAT_FIELDS:
            out._float_cols[name].extend(np.asarray(arrays[name], dtype=np.float64))
        for name in _INT_FIELDS:
            out._int_cols[name].extend(np.asarray(arrays[name], dtype=np.int64))
        ragged = [(name, out._series[name], np.float64) for name in _SERIES_FIELDS]
        ragged.append(("delivered_flags", out._flags, np.bool_))
        for name, column, dtype in ragged:
            offsets = np.asarray(arrays[f"{name}__offsets"], dtype=np.int64)
            values = np.asarray(arrays[f"{name}__values"], dtype=dtype)
            if (
                offsets.size != n + 1
                or offsets[0] != 0
                or np.any(np.diff(offsets) < 0)
                or offsets[-1] != values.size
            ):
                fail(f"ragged column {name} has inconsistent offsets")
            column.values = _Arena(dtype)
            column.values.extend(values)
            column.offsets = _Arena(np.int64)
            column.offsets.extend(offsets)
        return out


__all__ = [
    "ColumnarResultSet",
    "NPZ_FORMAT",
    "NPZ_VERSION",
    "StringTable",
]
