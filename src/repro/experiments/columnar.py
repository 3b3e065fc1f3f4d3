"""The ``.npz`` form of experiment results.

:class:`ColumnarResultSet` is a :class:`~repro.experiments.records.ResultSet`
-- the same ordered list of :class:`~repro.experiments.records.RunRecord`
objects, queried the same way -- that can also be written to and read from
a compact, versioned ``.npz`` artifact.  In the artifact every scalar
metric is one column; each per-packet series is a CSR-style ragged column
(flat values plus offsets); and each distinct scenario is stored once, as
canonical sorted-key JSON beside its content hash, with records carrying
an integer id.  The sweep service keeps its job artifacts in this form.  A
truncated, foreign or inconsistent file raises :class:`ValueError`, so
callers can treat a bad artifact as a cache miss.

A scenario is serialized once per instance
(:meth:`~repro.experiments.scenario.Scenario.canonical_json`, the text
its hash covers): saving reuses that text, and loading re-serializes
each decoded scenario once to check it against the stored hash.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import numpy as np

from repro.experiments.records import ResultSet, RunRecord
from repro.experiments.scenario import Scenario
from repro.utils.atomic import atomic_write
from repro.utils.npz import read_npz

#: ``.npz`` artifact format marker and version (bump on layout changes).
NPZ_FORMAT = "repro.columnar-results"
NPZ_VERSION = 1

#: Scalar columns with their dtypes, in serialization order.
_SCALARS = tuple(
    (name, np.float64)
    for name in (
        "packet_error_rate",
        "payload_bit_error_rate",
        "coded_bit_error_rate",
        "preamble_detection_rate",
        "feedback_error_rate",
        "elapsed_s",
    )
) + (("num_packets", np.int64), ("delivered", np.int64))
#: Ragged per-packet columns with their value dtypes.
_RAGGED = (("delivered_flags", np.bool_),) + tuple(
    (name, np.float64)
    for name in ("bitrates_bps", "band_starts_hz", "band_ends_hz", "min_band_snrs_db")
)


def _intern(scenarios) -> tuple[list[int], dict[str, tuple[int, str]]]:
    """Ids of the scenarios in a table of the distinct ones.

    The table maps each scenario's canonical JSON
    (:meth:`Scenario.canonical_json`, serialized once per instance) to
    ``(id, content hash)`` in first-seen order.
    """
    table: dict[str, tuple[int, str]] = {}
    ids = []
    for scenario in scenarios:
        text = scenario.canonical_json()
        entry = table.get(text)
        if entry is None:
            entry = table[text] = (len(table), scenario.scenario_hash())
        ids.append(entry[0])
    return ids, table


class ColumnarResultSet(ResultSet):
    """A :class:`ResultSet` that also reads and writes ``.npz`` artifacts."""

    def save(self, path, include_timing: bool = False) -> pathlib.Path:
        """Write ``.npz`` when ``path`` ends in ``.npz``, else JSON.

        The JSON form is :meth:`ResultSet.save`'s; the ``.npz`` form
        always keeps the timing.
        """
        if pathlib.Path(path).suffix == ".npz":
            return self.save_npz(path)
        return super().save(path, include_timing=include_timing)

    def save_npz(self, path) -> pathlib.Path:
        """Write the records to a versioned ``.npz`` artifact, atomically."""
        path = pathlib.Path(path)
        records = self.records
        ids, table = _intern(r.scenario for r in records)
        arrays: dict[str, np.ndarray] = {
            "format": np.asarray(NPZ_FORMAT),
            "version": np.asarray(NPZ_VERSION, dtype=np.int64),
            "num_records": np.asarray(len(records), dtype=np.int64),
            "scenario_ids": np.asarray(ids, dtype=np.int64),
            # dtype=str gives an empty table "U1", not the "U0" that
            # round-trips badly.
            "scenario_json": np.asarray(list(table), dtype=str),
            "scenario_hash": np.asarray([h for _, h in table.values()], dtype=str),
        }
        for name, dtype in _SCALARS:
            arrays[name] = np.asarray([getattr(r, name) for r in records], dtype=dtype)
        for name, dtype in _RAGGED:
            rows = [getattr(r, name) for r in records]
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
            arrays[f"{name}__values"] = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=dtype, count=int(offsets[-1])
            )
            arrays[f"{name}__offsets"] = offsets
        with atomic_write(path, binary=True) as handle:
            np.savez_compressed(handle, **arrays)
        return path

    @classmethod
    def load_npz(cls, source) -> "ColumnarResultSet":
        """Load a :meth:`save_npz` artifact from a path or a binary file.

        Raises :class:`ValueError` on any corruption -- truncated zip,
        missing arrays, inconsistent offsets, undecodable scenarios --
        so callers can uniformly treat a bad artifact as a cache miss.
        Each stored scenario must decode and re-serialize to a distinct
        text whose hash is the stored one.
        """
        if not hasattr(source, "read"):
            source = pathlib.Path(source)
        name = source if isinstance(source, pathlib.Path) else "(file object)"
        arrays = read_npz(source, f"columnar artifact {name}")

        def fail(reason: str):
            raise ValueError(f"corrupt columnar artifact {name}: {reason}")

        if "format" not in arrays or str(arrays["format"]) != NPZ_FORMAT:
            fail("missing or foreign format marker")
        if int(arrays.get("version", -1)) != NPZ_VERSION:
            fail(f"unsupported version {arrays.get('version')}")
        required = (
            ["num_records", "scenario_ids", "scenario_json", "scenario_hash"]
            + [name for name, _ in _SCALARS]
            + [f"{name}__{part}" for name, _ in _RAGGED for part in ("values", "offsets")]
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
        for name, _ in _SCALARS:
            if np.asarray(arrays[name]).shape != (n,):
                fail(f"column {name} length mismatch")
        scenarios = []
        for text in scenario_json:
            try:
                scenarios.append(Scenario.from_dict(json.loads(text)))
            except (TypeError, KeyError, ValueError) as error:
                fail(f"undecodable scenario entry: {error}")
        # Re-interning the decoded scenarios (one serialization each) must
        # reproduce the stored table: same hashes, no entry decoding to a
        # duplicate.
        _, table = _intern(scenarios)
        if [digest for _, digest in table.values()] != scenario_hash:
            fail("scenario hashes disagree with scenario contents")
        fields = {
            name: np.asarray(arrays[name], dtype=dtype).tolist() for name, dtype in _SCALARS
        }
        for name, dtype in _RAGGED:
            offsets = np.asarray(arrays[f"{name}__offsets"], dtype=np.int64)
            values = np.asarray(arrays[f"{name}__values"], dtype=dtype)
            if (
                offsets.size != n + 1
                or offsets[0] != 0
                or np.any(np.diff(offsets) < 0)
                or offsets[-1] != values.size
            ):
                fail(f"ragged column {name} has inconsistent offsets")
            flat, bounds = values.tolist(), offsets.tolist()
            fields[name] = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
        return cls(
            RunRecord(
                scenario=scenarios[sid],
                **{name: column[index] for name, column in fields.items()},
            )
            for index, sid in enumerate(scenario_ids.tolist())
        )


__all__ = [
    "ColumnarResultSet",
    "NPZ_FORMAT",
    "NPZ_VERSION",
]
