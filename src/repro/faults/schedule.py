"""Declarative, versioned fault schedules.

A :class:`FaultSchedule` is the portable description of *everything bad
that happens* during one network run: explicit timed
:class:`FaultEvent` entries, plus an optional seeded
:class:`ChurnProcess` that expands into crash/recovery events when the
node population is known.  Schedules serialize to canonical JSON
(``sort_keys``, stable field order) so a committed schedule file is a
reproducible experiment artifact: the same schedule and scenario seed
replay bit-identically.

Event kinds
-----------
``crash``
    Node ``node`` goes down at ``time_s``; ``duration_s > 0`` schedules
    its recovery, ``0`` crashes it permanently.
``recover``
    Explicitly bring ``node`` back up (for crashes recorded without a
    duration).
``link-blackout``
    The (``node``, ``peer``) pair delivers nothing during the window --
    severed mooring line, a vessel anchored across the path.
``link-degrade``
    The pair's packet error rate is inflated during the window, either
    directly (``per_inflation``) or via an SNR penalty in dB
    (``snr_penalty_db``, mapped through ``1 - 10**(-dB/10)`` -- the
    fraction of packet energy lost, a deliberately simple proxy).
``noise-burst``
    A wideband interferer degrades *every* link for the window (same
    inflation parameters as ``link-degrade``).
``energy-deplete``
    From ``time_s`` on, ``node`` pays the modem energy proxy
    (:data:`~repro.net.metrics.TX_POWER_W` /
    :data:`~repro.net.metrics.RX_POWER_W` times airtime) against
    ``energy_budget_j`` and shuts down for good when it runs out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.utils.atomic import atomic_write
from repro.utils.validation import (
    require_dict,
    require_finite,
    require_int,
    require_positive,
    require_str,
)

#: Format marker written into every serialized schedule.
FAULTS_FORMAT = "repro.faults"

#: Schema version of the serialized form.
FAULTS_VERSION = 1

#: Recognized fault event kinds.
FAULT_KINDS = (
    "crash",
    "recover",
    "link-blackout",
    "link-degrade",
    "noise-burst",
    "energy-deplete",
)

#: Kinds that name a single node / a node pair / a link window.
_NODE_KINDS = ("crash", "recover", "energy-deplete")
_PAIR_KINDS = ("link-blackout", "link-degrade")
_WINDOW_KINDS = ("link-blackout", "link-degrade", "noise-burst")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault (see the module docstring for kind semantics)."""

    kind: str
    time_s: float
    node: str = ""
    peer: str = ""
    duration_s: float = 0.0
    per_inflation: float = 0.0
    snr_penalty_db: float = 0.0
    energy_budget_j: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.time_s < 0.0:
            raise ValueError(f"time_s must be >= 0, got {self.time_s}")
        if self.duration_s < 0.0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if not 0.0 <= self.per_inflation <= 1.0:
            raise ValueError(
                f"per_inflation must be in [0, 1], got {self.per_inflation}"
            )
        if self.snr_penalty_db < 0.0:
            raise ValueError(
                f"snr_penalty_db must be >= 0, got {self.snr_penalty_db}"
            )
        if self.kind in _NODE_KINDS and not self.node:
            raise ValueError(f"{self.kind} events need a node")
        if self.kind in _PAIR_KINDS and (not self.node or not self.peer):
            raise ValueError(f"{self.kind} events need a node and a peer")
        if self.kind in _WINDOW_KINDS and self.duration_s <= 0.0:
            raise ValueError(f"{self.kind} events need duration_s > 0")
        if self.kind == "energy-deplete" and self.energy_budget_j <= 0.0:
            raise ValueError("energy-deplete events need energy_budget_j > 0")

    @property
    def end_s(self) -> float:
        """End of the event's effect window."""
        return self.time_s + self.duration_s

    @property
    def inflation(self) -> float:
        """Effective per-transmission loss probability of the window.

        Blackouts sever the link outright; degradations use the direct
        ``per_inflation`` when given, else the SNR-penalty proxy.
        """
        if self.kind == "link-blackout":
            return 1.0
        if self.per_inflation > 0.0:
            return self.per_inflation
        return 1.0 - 10.0 ** (-self.snr_penalty_db / 10.0)

    def to_dict(self) -> dict:
        """Compact JSON form (zero-valued optionals omitted)."""
        data: dict = {"kind": self.kind, "time_s": self.time_s}
        if self.node:
            data["node"] = self.node
        if self.peer:
            data["peer"] = self.peer
        if self.duration_s:
            data["duration_s"] = self.duration_s
        if self.per_inflation:
            data["per_inflation"] = self.per_inflation
        if self.snr_penalty_db:
            data["snr_penalty_db"] = self.snr_penalty_db
        if self.energy_budget_j:
            data["energy_budget_j"] = self.energy_budget_j
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Rebuild from :meth:`to_dict` output.

        Raises ``ValueError`` for a missing or mistyped field and for a
        non-finite number.
        """
        data = require_dict(data, "fault event")

        def number(key: str, default: float | None = None) -> float:
            return require_finite(data.get(key, default), f"fault event {key}")

        event = cls(
            kind=require_str(data.get("kind"), "fault event kind"),
            time_s=number("time_s"),
            node=require_str(data.get("node", ""), "fault event node"),
            peer=require_str(data.get("peer", ""), "fault event peer"),
            duration_s=number("duration_s", 0.0),
            per_inflation=number("per_inflation", 0.0),
            snr_penalty_db=number("snr_penalty_db", 0.0),
            energy_budget_j=number("energy_budget_j", 0.0),
        )
        if not math.isfinite(event.end_s):
            raise ValueError(f"fault event ends at {event.end_s} s")
        return event


@dataclass(frozen=True)
class ChurnProcess:
    """Seeded stochastic node churn: exponential up/down times per node.

    Each eligible node alternates between up periods (mean
    ``1 / rate_per_node_per_s``) and down periods (mean
    ``mean_downtime_s``) inside the ``[start_s, end_s)`` window.  The
    draws come from the process's *own* generator seeded with ``seed``,
    so expansion is a pure function of (seed, node names): the same
    schedule expands identically on every run and machine.
    """

    rate_per_node_per_s: float
    mean_downtime_s: float
    end_s: float
    start_s: float = 0.0
    seed: int = 0
    #: Restrict churn to these nodes (``None`` = all).
    nodes: tuple[str, ...] | None = None
    #: Nodes exempt from churn (sources/sinks the scenario must keep).
    protect: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require_positive(self.rate_per_node_per_s, "rate_per_node_per_s")
        require_positive(self.mean_downtime_s, "mean_downtime_s")
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")

    def expand(self, names: tuple[str, ...]) -> tuple[FaultEvent, ...]:
        """Expand into crash events (with recovery durations) for ``names``."""
        rng = np.random.default_rng(self.seed)
        eligible = [
            name
            for name in (self.nodes if self.nodes is not None else names)
            if name not in self.protect
        ]
        mean_up = 1.0 / self.rate_per_node_per_s
        events: list[FaultEvent] = []
        # Per-node alternating renewal process, nodes in deterministic
        # order: the draw sequence is a pure function of the seed.
        for name in eligible:
            t = self.start_s + float(rng.exponential(mean_up))
            while t < self.end_s:
                downtime = float(rng.exponential(self.mean_downtime_s))
                events.append(
                    FaultEvent("crash", t, node=name, duration_s=downtime)
                )
                t += downtime + float(rng.exponential(mean_up))
        events.sort(key=lambda event: (event.time_s, event.node))
        return tuple(events)

    def to_dict(self) -> dict:
        """JSON form."""
        data: dict = {
            "rate_per_node_per_s": self.rate_per_node_per_s,
            "mean_downtime_s": self.mean_downtime_s,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "seed": self.seed,
        }
        if self.nodes is not None:
            data["nodes"] = list(self.nodes)
        if self.protect:
            data["protect"] = list(self.protect)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChurnProcess":
        """Rebuild from :meth:`to_dict` output (``ValueError`` for a
        missing, mistyped or non-finite field)."""
        data = require_dict(data, "churn process")
        nodes = data.get("nodes")
        return cls(
            rate_per_node_per_s=require_finite(
                data.get("rate_per_node_per_s"), "churn rate_per_node_per_s"
            ),
            mean_downtime_s=require_finite(
                data.get("mean_downtime_s"), "churn mean_downtime_s"
            ),
            start_s=require_finite(data.get("start_s", 0.0), "churn start_s"),
            end_s=require_finite(data.get("end_s"), "churn end_s"),
            seed=_seed(data.get("seed", 0), "churn seed"),
            nodes=None if nodes is None else _names(nodes, "churn nodes"),
            protect=_names(data.get("protect", []), "churn protect"),
        )


def _names(value, name: str) -> tuple[str, ...]:
    """A JSON list of node names as a tuple (``ValueError`` otherwise)."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of node names, got {value!r}")
    return tuple(require_str(item, name) for item in value)


def _seed(value, name: str) -> int:
    """A generator seed: a non-negative integer (``ValueError`` otherwise)."""
    seed = require_int(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong in one run, plus the repair policy.

    ``repair`` enables the resilience response (liveness tracking,
    topology eviction, route recomputation, proactive aborts, SOS
    re-flooding); with it off the same faults strike an oblivious
    network -- the A/B pair the ``resilience_vs_churn`` validation
    figure compares.  ``beacon_interval_s`` and ``miss_threshold``
    parameterize the liveness tracker; ``seed`` feeds the injector's own
    generator (degradation draws), independent of both the scenario seed
    and the churn seed.
    """

    events: tuple[FaultEvent, ...] = ()
    churn: ChurnProcess | None = None
    repair: bool = True
    beacon_interval_s: float = 10.0
    miss_threshold: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.beacon_interval_s, "beacon_interval_s")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def is_empty(self) -> bool:
        """Whether the schedule injects nothing at all."""
        return not self.events and self.churn is None

    @property
    def detection_delay_s(self) -> float:
        """Silence needed before the tracker declares a node dead."""
        return self.miss_threshold * self.beacon_interval_s

    def validate_names(self, names: tuple[str, ...]) -> None:
        """Raise if the schedule targets a node absent from ``names``."""
        known = set(names)
        for event in self.events:
            if event.node and event.node not in known:
                raise ValueError(
                    f"fault event names unknown node {event.node!r}"
                )
            if event.peer and event.peer not in known:
                raise ValueError(
                    f"fault event names unknown node {event.peer!r}"
                )
        if self.churn is not None and self.churn.nodes is not None:
            for name in self.churn.nodes:
                if name not in known:
                    raise ValueError(
                        f"churn process names unknown node {name!r}"
                    )

    def expand(self, names: tuple[str, ...]) -> tuple[FaultEvent, ...]:
        """Explicit events plus expanded churn, in deterministic order."""
        events = list(self.events)
        if self.churn is not None:
            events.extend(self.churn.expand(names))
        events.sort(
            key=lambda event: (event.time_s, event.kind, event.node, event.peer)
        )
        return tuple(events)

    # ------------------------------------------------------------------ (de)ser
    def to_dict(self) -> dict:
        """Versioned JSON form."""
        return {
            "format": FAULTS_FORMAT,
            "version": FAULTS_VERSION,
            "repair": self.repair,
            "beacon_interval_s": self.beacon_interval_s,
            "miss_threshold": self.miss_threshold,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
            "churn": self.churn.to_dict() if self.churn is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Rebuild from :meth:`to_dict` output.

        The format and version are checked, and every field is read
        defensively: a missing required field, a mistyped value or a
        non-finite number raises ``ValueError``, never another exception
        type and never a schedule that would fail mid-run.
        """
        data = require_dict(data, "fault schedule")
        if data.get("format") != FAULTS_FORMAT:
            raise ValueError(
                f"not a {FAULTS_FORMAT} document (format={data.get('format')!r})"
            )
        version = require_int(data.get("version", -1), "fault-schedule version")
        if version != FAULTS_VERSION:
            raise ValueError(
                f"unsupported fault-schedule version {version} "
                f"(supported: {FAULTS_VERSION})"
            )
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"fault-schedule events must be a list, got {events!r}")
        repair = data.get("repair", True)
        if not isinstance(repair, bool):
            raise ValueError(
                f"fault-schedule repair must be true or false, got {repair!r}"
            )
        churn = data.get("churn")
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            churn=ChurnProcess.from_dict(churn) if churn is not None else None,
            repair=repair,
            beacon_interval_s=require_finite(
                data.get("beacon_interval_s", 10.0), "beacon_interval_s"
            ),
            miss_threshold=require_int(data.get("miss_threshold", 3), "miss_threshold"),
            seed=_seed(data.get("seed", 0), "fault-schedule seed"),
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) -- the committed-artifact form."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def with_repair(self, repair: bool) -> "FaultSchedule":
        """Same faults, different repair policy (the A/B toggle)."""
        return replace(self, repair=bool(repair))

    def save(self, path) -> str:
        """Write canonical JSON to ``path``, atomically; returns the path."""
        with atomic_write(path) as handle:
            handle.write(self.to_json() + "\n")
        return str(path)

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        """Read a schedule written by :meth:`save`.

        A corrupt document raises ``ValueError`` (see :meth:`from_dict`);
        an unreadable path raises ``OSError``.
        """
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def load_schedule(path) -> FaultSchedule:
    """Module-level convenience alias of :meth:`FaultSchedule.load`."""
    return FaultSchedule.load(path)
