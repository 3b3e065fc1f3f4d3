"""Serializable experiment results.

:class:`RunRecord` captures everything a figure needs from one executed
scenario -- the aggregate link metrics plus the per-packet series
(bitrates, band edges, in-band SNRs, delivery flags) -- in plain Python
types, so records survive process boundaries and JSON round trips without
dragging :class:`~repro.link.session.LinkStatistics` (and its per-packet
results) along.  :class:`ResultSet` is an ordered collection of records
with tabular and JSON export, subsuming the ad-hoc figure-table plumbing
the benchmark harness used to carry.

Records compare equal when their scientific content is identical; the
wall-clock ``elapsed_s`` field is deliberately excluded so a serial run
and a parallel run of the same scenarios produce equal result sets.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.analysis.metrics import format_table
from repro.experiments.scenario import Scenario
from repro.link.session import LinkStatistics
from repro.utils.atomic import atomic_write
from repro.utils.jsonsafe import nan_to_none as _nan_to_none
from repro.utils.validation import (
    require_bool,
    require_dict,
    require_finite,
    require_int,
    require_list,
    require_real,
)

#: Columns of :meth:`ResultSet.to_table`.
DEFAULT_TABLE_COLUMNS = (
    "scenario",
    "packets",
    "per",
    "coded_ber",
    "median_bps",
    "detect",
    "feedback_err",
)




@dataclass(eq=False)
class RunRecord:
    """Result of running one scenario.

    Attributes
    ----------
    scenario:
        The scenario that produced this record.
    num_packets, delivered:
        Packet counts.
    packet_error_rate, payload_bit_error_rate, coded_bit_error_rate,
    preamble_detection_rate, feedback_error_rate:
        The aggregate metrics of :class:`LinkStatistics`.
    bitrates_bps:
        Per-packet selected coded bitrate (``nan`` when no band was known).
    band_starts_hz, band_ends_hz:
        Per-packet selected band edges (``nan`` when no band was known).
    min_band_snrs_db:
        Per-packet minimum in-band SNR.
    delivered_flags:
        Per-packet delivery outcome.
    elapsed_s:
        Wall-clock execution time; excluded from equality and (by default)
        from serialization, so results are reproducible bit for bit.
    """

    scenario: Scenario
    num_packets: int
    delivered: int
    packet_error_rate: float
    payload_bit_error_rate: float
    coded_bit_error_rate: float
    preamble_detection_rate: float
    feedback_error_rate: float
    bitrates_bps: tuple[float, ...]
    band_starts_hz: tuple[float, ...]
    band_ends_hz: tuple[float, ...]
    min_band_snrs_db: tuple[float, ...]
    delivered_flags: tuple[bool, ...]
    elapsed_s: float = field(default=0.0)

    @classmethod
    def from_statistics(
        cls, scenario: Scenario, stats: LinkStatistics, elapsed_s: float = 0.0
    ) -> "RunRecord":
        """Summarize one scenario's link statistics into a record."""
        bitrates, starts, ends = [], [], []
        for result in stats.results:
            bitrates.append(float(result.coded_bitrate_bps))
            band = result.receiver_band
            starts.append(float(band.start_frequency_hz) if band else float("nan"))
            ends.append(float(band.end_frequency_hz) if band else float("nan"))
        return cls(
            scenario=scenario,
            num_packets=stats.num_packets,
            delivered=sum(r.delivered for r in stats.results),
            packet_error_rate=float(stats.packet_error_rate),
            payload_bit_error_rate=float(stats.payload_bit_error_rate),
            coded_bit_error_rate=float(stats.coded_bit_error_rate),
            preamble_detection_rate=float(stats.preamble_detection_rate),
            feedback_error_rate=float(stats.feedback_error_rate),
            bitrates_bps=tuple(bitrates),
            band_starts_hz=tuple(starts),
            band_ends_hz=tuple(ends),
            min_band_snrs_db=tuple(float(r.min_band_snr_db) for r in stats.results),
            delivered_flags=tuple(bool(r.delivered) for r in stats.results),
            elapsed_s=float(elapsed_s),
        )

    # ------------------------------------------------------------- derived
    @property
    def finite_bitrates_bps(self) -> np.ndarray:
        """Per-packet bitrates with unknown-band packets dropped."""
        rates = np.asarray(self.bitrates_bps, dtype=float)
        return rates[np.isfinite(rates)]

    @property
    def median_bitrate_bps(self) -> float:
        """Median selected coded bitrate."""
        rates = self.finite_bitrates_bps
        return float(np.median(rates)) if rates.size else float("nan")

    def bitrate_percentiles(self, percentiles) -> np.ndarray:
        """Bitrate percentiles (``nan``-filled when no band was ever known)."""
        rates = self.finite_bitrates_bps
        if rates.size == 0:
            return np.full(len(tuple(percentiles)), float("nan"))
        return np.percentile(rates, list(percentiles))

    def median_band_edges_hz(self) -> tuple[float, float]:
        """Median selected band edges over packets with a known band."""
        starts = np.asarray(self.band_starts_hz, dtype=float)
        ends = np.asarray(self.band_ends_hz, dtype=float)
        known = np.isfinite(starts)
        if not known.any():
            return float("nan"), float("nan")
        return float(np.median(starts[known])), float(np.median(ends[known]))

    # ------------------------------------------------------ serialization
    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-safe dictionary form (timing excluded by default)."""
        data = {
            "scenario": self.scenario.to_dict(),
            "num_packets": self.num_packets,
            "delivered": self.delivered,
            "packet_error_rate": _nan_to_none(self.packet_error_rate),
            "payload_bit_error_rate": _nan_to_none(self.payload_bit_error_rate),
            "coded_bit_error_rate": _nan_to_none(self.coded_bit_error_rate),
            "preamble_detection_rate": _nan_to_none(self.preamble_detection_rate),
            "feedback_error_rate": _nan_to_none(self.feedback_error_rate),
            "bitrates_bps": [_nan_to_none(v) for v in self.bitrates_bps],
            "band_starts_hz": [_nan_to_none(v) for v in self.band_starts_hz],
            "band_ends_hz": [_nan_to_none(v) for v in self.band_ends_hz],
            "min_band_snrs_db": [_nan_to_none(v) for v in self.min_band_snrs_db],
            "delivered_flags": list(self.delivered_flags),
        }
        if include_timing:
            data["elapsed_s"] = self.elapsed_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Every field is read once through :mod:`repro.utils.validation`: a
        wrong type, a count that is not an integer, a metric that is
        neither ``null`` (NaN) nor a number, a per-packet series that
        does not hold ``num_packets`` entries or a ``delivered`` count
        outside ``[0, num_packets]`` raises :class:`ValueError` (a missing
        field :class:`KeyError`), so a damaged cache entry is a miss, not
        a crash.
        """
        data = require_dict(data, "record")

        def number(value, name: str) -> float:
            return float("nan") if value is None else require_real(value, name)

        def metric(name: str) -> float:
            return number(data[name], name)

        def series(name: str, read=number) -> tuple:
            return tuple(read(value, name) for value in require_list(data[name], name))

        record = cls(
            scenario=Scenario.from_dict(require_dict(data["scenario"], "scenario")),
            num_packets=require_int(data["num_packets"], "num_packets"),
            delivered=require_int(data["delivered"], "delivered"),
            packet_error_rate=metric("packet_error_rate"),
            payload_bit_error_rate=metric("payload_bit_error_rate"),
            coded_bit_error_rate=metric("coded_bit_error_rate"),
            preamble_detection_rate=metric("preamble_detection_rate"),
            feedback_error_rate=metric("feedback_error_rate"),
            bitrates_bps=series("bitrates_bps"),
            band_starts_hz=series("band_starts_hz"),
            band_ends_hz=series("band_ends_hz"),
            min_band_snrs_db=series("min_band_snrs_db"),
            delivered_flags=series("delivered_flags", require_bool),
            elapsed_s=require_finite(data.get("elapsed_s", 0.0), "elapsed_s"),
        )
        per_packet = (
            record.bitrates_bps,
            record.band_starts_hz,
            record.band_ends_hz,
            record.min_band_snrs_db,
            record.delivered_flags,
        )
        if any(len(series) != record.num_packets for series in per_packet):
            raise ValueError("per-packet series do not hold num_packets entries")
        if not 0 <= record.delivered <= record.num_packets:
            raise ValueError("delivered must lie in [0, num_packets]")
        return record

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRecord):
            return NotImplemented
        # Dictionary comparison treats NaN as None, so records with the
        # same missing values compare equal (NaN != NaN would break this).
        return self.to_dict() == other.to_dict()


class ResultSet:
    """Ordered collection of run records with query and export helpers.

    Selections (:meth:`where`, slicing) keep the collection's class, so a
    :class:`~repro.experiments.columnar.ColumnarResultSet` stays one and
    can still write its ``.npz`` form.
    """

    def __init__(self, records: Iterable[RunRecord] | None = None) -> None:
        self.records: list[RunRecord] = list(records or [])

    # ------------------------------------------------------------- protocol
    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        picked = self.records[index]
        return type(self)(picked) if isinstance(index, slice) else picked

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.records == other.records

    def append(self, record: RunRecord) -> None:
        """Add one more record."""
        self.records.append(record)

    # ------------------------------------------------------------ selection
    def where(self, **criteria) -> "ResultSet":
        """Records whose scenario matches the criteria."""
        return type(self)([r for r in self.records if r.scenario.matches(**criteria)])

    def lookup(self, **criteria) -> RunRecord:
        """The single record matching the criteria; raises otherwise."""
        picked = self.where(**criteria)
        if len(picked) != 1:
            raise LookupError(
                f"expected exactly one record for {criteria}, found {len(picked)}"
            )
        return picked.records[0]

    def metric(self, name: str) -> np.ndarray:
        """Array of one metric (attribute/property name) across records."""
        return np.asarray([getattr(r, name) for r in self.records], dtype=float)

    # --------------------------------------------------------------- export
    def to_dicts(self, include_timing: bool = False) -> list[dict]:
        """List-of-dictionaries form."""
        return [r.to_dict(include_timing=include_timing) for r in self.records]

    def to_json(self, indent: int | None = None, include_timing: bool = False) -> str:
        """JSON form (stable across serial/parallel execution)."""
        return json.dumps(self.to_dicts(include_timing=include_timing), indent=indent)

    def save(self, path: str | pathlib.Path, include_timing: bool = False) -> pathlib.Path:
        """Write the result set to a JSON file, atomically, and return its path."""
        path = pathlib.Path(path)
        with atomic_write(path) as handle:
            handle.write(self.to_json(indent=2, include_timing=include_timing))
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ResultSet":
        """Load a result set previously written by :meth:`save`."""
        data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        return cls([RunRecord.from_dict(entry) for entry in data])

    def to_table(self) -> str:
        """Fixed-width text table of the result set, one column per
        :data:`DEFAULT_TABLE_COLUMNS` entry (``scenario`` renders the
        scenario's one-line summary)."""
        renderers = {
            "scenario": lambda r: r.scenario.describe(),
            "packets": lambda r: str(r.num_packets),
            "per": lambda r: f"{r.packet_error_rate:.2f}",
            "coded_ber": lambda r: f"{r.coded_bit_error_rate:.3f}",
            "median_bps": lambda r: f"{r.median_bitrate_bps:.0f}",
            "detect": lambda r: f"{r.preamble_detection_rate:.1%}",
            "feedback_err": lambda r: f"{r.feedback_error_rate:.1%}",
        }
        rows = [
            [renderers[column](record) for column in DEFAULT_TABLE_COLUMNS]
            for record in self.records
        ]
        return format_table(list(DEFAULT_TABLE_COLUMNS), rows)

    @property
    def total_elapsed_s(self) -> float:
        """Sum of the per-record execution times."""
        return float(sum(r.elapsed_s for r in self.records))
