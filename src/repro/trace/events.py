"""Portable, versioned app-layer trace format.

A :class:`Trace` is the record of what happened at the application layer
of one network run: every message *send*, every end-to-end *deliver*,
every finalized *drop* and every ARQ flow *abort*, each stamped with its
simulation time.  Two serializations are provided:

* **JSON lines** (:meth:`Trace.save_jsonl` / :meth:`Trace.load_jsonl`):
  one header object followed by one compact object per event -- greppable,
  diffable, append-friendly, the committed-fixture form.
* **Columnar numpy** (:meth:`Trace.to_columns` / :meth:`Trace.save_npz`):
  one array per field with node names interned into an index table --
  the form million-event traces are analysed and archived in.

Schema versioning rules: ``version`` is bumped whenever a field changes
meaning or a required field is added; loaders accept the versions listed
in :data:`SUPPORTED_TRACE_VERSIONS` -- the current one plus older
versions that read correctly as a subset of it (a trace is an experiment
artifact, not a config file -- silently reinterpreting incompatible old
captures would corrupt comparisons).  Version history: v1 is the original
schema; v2 adds the optional per-event ``reason`` field (drop/abort
causes), so every v1 document is a valid v2 document with empty reasons.
New *optional* header metadata may be added freely under ``meta``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.utils.atomic import atomic_write
from repro.utils.npz import read_npz
from repro.utils.validation import (
    require_dict,
    require_finite,
    require_int,
    require_str,
)

#: Format marker written into every trace header.
TRACE_FORMAT = "repro.trace"

#: Current schema version (see module docstring for the bump rules).
TRACE_VERSION = 2

#: Versions the loaders accept (older ones read as subsets of current).
SUPPORTED_TRACE_VERSIONS = (1, 2)

#: Event kinds, in their columnar integer encoding order.
EVENT_KINDS = ("send", "deliver", "drop", "abort")

#: Payload kinds, in their columnar integer encoding order ("" = n/a,
#: used by abort events which concern a flow, not a payload).
PAYLOAD_KINDS = ("", "data", "raw", "broadcast")


@dataclass(frozen=True)
class TraceEvent:
    """One app-layer event of a network run.

    Attributes
    ----------
    time_s:
        Simulation time of the event.  For ``drop`` events this is the
        time the loss was finalized (end of run), not the send time.
    event:
        One of :data:`EVENT_KINDS`.
    uid:
        Payload uid shared by the matching send/deliver/drop events
        (``-1`` for abort events, which reference a flow instead).
    source, destination:
        End-to-end addresses.  For broadcasts the send event carries the
        broadcast address while each deliver/drop names the concrete
        receiver.
    size_bits:
        Payload size (send events; ``0`` elsewhere).
    hop_count:
        Hops of the delivered copy (deliver events; ``0`` elsewhere).
    kind:
        Payload kind, one of :data:`PAYLOAD_KINDS`.
    flow_id:
        Aborted flow identifier (abort events; ``""`` elsewhere).
    reason:
        Why a payload was dropped or a flow aborted (drop/abort events,
        schema v2+; ``""`` elsewhere or in v1 captures).
    """

    time_s: float
    event: str
    uid: int
    source: str
    destination: str
    size_bits: int = 0
    hop_count: int = 0
    kind: str = ""
    flow_id: str = ""
    reason: str = ""

    def __post_init__(self) -> None:
        if self.event not in EVENT_KINDS:
            raise ValueError(
                f"unknown event {self.event!r}; known: {', '.join(EVENT_KINDS)}"
            )
        if self.kind not in PAYLOAD_KINDS:
            raise ValueError(
                f"unknown payload kind {self.kind!r}; known: "
                f"{', '.join(repr(k) for k in PAYLOAD_KINDS)}"
            )

    def to_dict(self) -> dict:
        """Compact JSON-line form (zero-valued optionals omitted)."""
        data = {
            "t": self.time_s,
            "ev": self.event,
            "uid": self.uid,
            "src": self.source,
            "dst": self.destination,
        }
        if self.size_bits:
            data["bits"] = self.size_bits
        if self.hop_count:
            data["hops"] = self.hop_count
        if self.kind:
            data["kind"] = self.kind
        if self.flow_id:
            data["flow"] = self.flow_id
        if self.reason:
            data["reason"] = self.reason
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Rebuild from :meth:`to_dict` output.

        Raises ``ValueError`` for a missing or mistyped field, a
        non-integer ``uid`` and a non-finite time.
        """
        data = require_dict(data, "trace event")
        return cls(
            time_s=require_finite(data.get("t"), "trace event time t"),
            event=require_str(data.get("ev"), "trace event ev"),
            uid=require_int(data.get("uid"), "trace event uid"),
            source=require_str(data.get("src"), "trace event src"),
            destination=require_str(data.get("dst"), "trace event dst"),
            size_bits=require_int(data.get("bits", 0), "trace event bits"),
            hop_count=require_int(data.get("hops", 0), "trace event hops"),
            kind=require_str(data.get("kind", ""), "trace event kind"),
            flow_id=require_str(data.get("flow", ""), "trace event flow"),
            reason=require_str(data.get("reason", ""), "trace event reason"),
        )


@dataclass
class Trace:
    """A versioned sequence of app-layer events plus free-form metadata.

    ``meta`` carries whatever the capturing context wants to persist --
    by convention the declarative scenario (``meta["scenario"]``, a
    :meth:`~repro.experiments.net_scenario.NetScenario.to_dict` dict that
    lets replay rebuild the exact stack) and the capture run's metrics
    (``meta["capture_metrics"]``, the round-trip determinism reference).
    """

    events: list[TraceEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    version: int = TRACE_VERSION

    # ------------------------------------------------------------------ views
    def sends(self) -> list[TraceEvent]:
        """The send events -- the replayable app-layer workload."""
        return [event for event in self.events if event.event == "send"]

    @property
    def duration_s(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return max((event.time_s for event in self.events), default=0.0)

    def summary(self) -> str:
        """One-line human-readable description."""
        counts = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            counts[event.event] += 1
        return (
            f"trace v{self.version}: {counts['send']} sends, "
            f"{counts['deliver']} deliveries, {counts['drop']} drops, "
            f"{counts['abort']} aborts over {self.duration_s:.1f} s"
        )

    # ------------------------------------------------------------------ jsonl
    def dumps(self) -> str:
        """Serialize to the JSON-lines form (header line + event lines)."""
        header = {
            "format": TRACE_FORMAT,
            "version": self.version,
            "num_events": len(self.events),
            "meta": self.meta,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(event.to_dict()) for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse the JSON-lines form produced by :meth:`dumps`.

        A corrupt document raises ``ValueError`` and nothing else.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace document")
        header = json.loads(lines[0])
        version, meta = _read_header(header, "document")
        events = [TraceEvent.from_dict(json.loads(line)) for line in lines[1:]]
        declared = header.get("num_events")
        if declared is not None and require_int(declared, "num_events") != len(events):
            raise ValueError(
                f"truncated trace: header declares {declared} events, "
                f"found {len(events)}"
            )
        return cls(events=events, meta=meta, version=version)

    def save_jsonl(self, path) -> str:
        """Write the JSON-lines form to ``path``, atomically; returns the path."""
        with atomic_write(path) as handle:
            handle.write(self.dumps())
        return str(path)

    @classmethod
    def load_jsonl(cls, path) -> "Trace":
        """Read a trace written by :meth:`save_jsonl` (``ValueError`` when
        the document is corrupt, ``OSError`` when the path is unreadable)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    # --------------------------------------------------------------- columnar
    def to_columns(self) -> dict[str, np.ndarray]:
        """Compact columnar form: one array per field, names interned.

        Node names and flow ids are interned into ``nodes`` / ``flows``
        string tables with ``i4`` index columns (``-1`` = no flow), so a
        million-event trace costs ~30 bytes per event instead of a dict.
        """
        names = sorted(
            {event.source for event in self.events}
            | {event.destination for event in self.events}
        )
        name_index = {name: i for i, name in enumerate(names)}
        flows = sorted({event.flow_id for event in self.events if event.flow_id})
        flow_index = {flow: i for i, flow in enumerate(flows)}
        reasons = sorted({event.reason for event in self.events if event.reason})
        reason_index = {reason: i for i, reason in enumerate(reasons)}
        event_code = {kind: i for i, kind in enumerate(EVENT_KINDS)}
        payload_code = {kind: i for i, kind in enumerate(PAYLOAD_KINDS)}
        n = len(self.events)
        columns = {
            "time_s": np.zeros(n, dtype=np.float64),
            "event": np.zeros(n, dtype=np.uint8),
            "uid": np.zeros(n, dtype=np.int64),
            "source": np.zeros(n, dtype=np.int32),
            "destination": np.zeros(n, dtype=np.int32),
            "size_bits": np.zeros(n, dtype=np.int32),
            "hop_count": np.zeros(n, dtype=np.int16),
            "kind": np.zeros(n, dtype=np.uint8),
            "flow": np.full(n, -1, dtype=np.int32),
            "reason": np.full(n, -1, dtype=np.int32),
        }
        for i, event in enumerate(self.events):
            columns["time_s"][i] = event.time_s
            columns["event"][i] = event_code[event.event]
            columns["uid"][i] = event.uid
            columns["source"][i] = name_index[event.source]
            columns["destination"][i] = name_index[event.destination]
            columns["size_bits"][i] = event.size_bits
            columns["hop_count"][i] = event.hop_count
            columns["kind"][i] = payload_code[event.kind]
            if event.flow_id:
                columns["flow"][i] = flow_index[event.flow_id]
            if event.reason:
                columns["reason"][i] = reason_index[event.reason]
        columns["nodes"] = np.array(names, dtype=np.str_)
        columns["flows"] = np.array(flows, dtype=np.str_)
        columns["reasons"] = np.array(reasons, dtype=np.str_)
        return columns

    @classmethod
    def from_columns(
        cls, columns: dict[str, np.ndarray], meta: dict | None = None
    ) -> "Trace":
        """Rebuild from :meth:`to_columns` output (``reason`` columns are
        optional, so v1 archives load with empty reasons).

        Raises ``ValueError`` unless ``time_s`` holds finite floats and
        ``uid`` integers.
        """
        times = columns["time_s"]
        if times.dtype.kind != "f" or not np.isfinite(times).all():
            raise ValueError("trace column time_s must hold finite times")
        if columns["uid"].dtype.kind not in "iu":
            raise ValueError(
                f"trace column uid must hold integers, not {columns['uid'].dtype}"
            )
        names = [str(name) for name in columns["nodes"]]
        flows = [str(flow) for flow in columns["flows"]]
        reasons = [str(reason) for reason in columns.get("reasons", ())]
        reason_col = columns.get("reason")
        events = []
        for i in range(columns["time_s"].size):
            flow = int(columns["flow"][i])
            reason = int(reason_col[i]) if reason_col is not None else -1
            events.append(
                TraceEvent(
                    time_s=float(columns["time_s"][i]),
                    event=EVENT_KINDS[int(columns["event"][i])],
                    uid=int(columns["uid"][i]),
                    source=names[int(columns["source"][i])],
                    destination=names[int(columns["destination"][i])],
                    size_bits=int(columns["size_bits"][i]),
                    hop_count=int(columns["hop_count"][i]),
                    kind=PAYLOAD_KINDS[int(columns["kind"][i])],
                    flow_id=flows[flow] if flow >= 0 else "",
                    reason=reasons[reason] if reason >= 0 else "",
                )
            )
        return cls(events=events, meta=dict(meta or {}))

    def save_npz(self, path) -> str:
        """Write the columnar form (plus JSON-encoded meta) to ``path``.

        The write is atomic and lands at ``path`` exactly, the path
        returned; no ``.npz`` suffix is appended.
        """
        columns = self.to_columns()
        header = json.dumps(
            {"format": TRACE_FORMAT, "version": self.version, "meta": self.meta},
            sort_keys=True,
        )
        with atomic_write(path, binary=True) as handle:
            np.savez_compressed(handle, __header__=np.array(header), **columns)
        return str(path)

    @classmethod
    def load_npz(cls, path) -> "Trace":
        """Read a trace written by :meth:`save_npz`.

        A missing file raises ``OSError``; a corrupt archive -- truncated
        or damaged zip, missing or mistyped columns, a bad header --
        raises ``ValueError``: :func:`~repro.utils.npz.read_npz` turns
        the readers' damage into it, and an out-of-range name or kind code
        (``IndexError``) or a missing header becomes it here.
        """
        with open(path, "rb") as handle:
            columns = read_npz(handle, f"trace archive {path}")
        try:
            header = json.loads(str(columns.pop("__header__")))
            version, meta = _read_header(header, "archive")
            trace = cls.from_columns(columns, meta=meta)
        except (IndexError, KeyError) as error:
            raise ValueError(
                f"corrupt trace archive {path}: {type(error).__name__}: {error}"
            ) from error
        trace.version = version
        return trace


def _read_header(header, what: str) -> tuple[int, dict]:
    """Check a trace header; returns its (version, meta)."""
    header = require_dict(header, f"trace {what} header")
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"not a {TRACE_FORMAT} {what} (format={header.get('format')!r})"
        )
    version = require_int(header.get("version", -1), "trace version")
    if version not in SUPPORTED_TRACE_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_TRACE_VERSIONS)
        raise ValueError(
            f"unsupported trace version {version} (supported: {supported})"
        )
    return version, dict(require_dict(header.get("meta", {}), "trace meta"))


def load_trace(path) -> Trace:
    """Load a trace from ``path``, dispatching on the file extension."""
    if str(path).endswith(".npz"):
        return Trace.load_npz(path)
    return Trace.load_jsonl(path)


def save_trace(trace: Trace, path) -> str:
    """Save ``trace`` to ``path``, dispatching on the file extension."""
    if str(path).endswith(".npz"):
        return trace.save_npz(path)
    return trace.save_jsonl(path)
