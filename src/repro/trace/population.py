"""Synthetic user-population workload generation.

The Poisson/CBR generators in :mod:`repro.net.traffic` model steady,
memoryless sources -- fine for protocol microbenchmarks, wrong for the
"heavy traffic from many users" scenarios the roadmap targets (and the
multi-party sessions SRMCA motivates).  Real messaging populations are
structured: users belong to small groups (dive buddy teams, vessels of a
fleet) and mostly talk within them, activity comes in sessions (a dive,
a watch shift) separated by idle stretches, the aggregate rate swings
with the time of day, and message sizes are heavy-tailed (most messages
are a few preset words, a few are long).

:class:`PopulationWorkload` composes exactly those four mechanisms, each
independently parameterized, and expands -- deterministically for a given
generator -- into the same flat, time-sorted
:class:`~repro.net.traffic.AppMessage` list every other generator
produces, so populations drop into any scenario unchanged:

* **Groups**: the deployment's nodes are partitioned into consecutive
  groups of ``group_size``; each group's first member is its leader.
* **Sessions**: every user alternates exponentially-distributed active
  and idle periods (``mean_session_s`` active, duty cycle
  ``activity_duty``); messages are only emitted while active, at rate
  ``base_rate_msgs_per_s / activity_duty`` so the long-run per-user
  average stays ``base_rate_msgs_per_s`` regardless of duty.
* **Diurnal modulation**: with ``diurnal_period_s`` set, the in-session
  emission rate follows ``1 - depth*cos(2*pi*t/period)`` (trough at
  t=0, peak half a period in), sampled exactly via Lewis-Shedler
  thinning of a homogeneous Poisson process at the peak rate.
* **Sizes**: lognormal around ``size_mean_bits`` with shape
  ``size_sigma``, clipped to ``[MIN_SIZE_BITS, MAX_SIZE_BITS]`` -- the
  heavy tail that makes airtime/energy accounting non-trivial.

Destinations: each message goes to the group leader with probability
``LEADER_FRACTION`` (the convergecast share -- position reports to the
dive leader), otherwise to a random same-group peer with probability
``IN_GROUP_FRACTION``, otherwise to a uniform random node of the whole
deployment (the cross-group gossip that keeps relays busy).
"""

from __future__ import annotations

import math

import numpy as np

from repro.net.packet import BROADCAST
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import AppMessage, TrafficGenerator
from repro.trace.events import Trace, TraceEvent
from repro.utils.validation import require_positive

#: Message sizes are clipped to this range (bits).
MIN_SIZE_BITS = 8
MAX_SIZE_BITS = 512

#: Share of messages addressed to the sender's group leader.
LEADER_FRACTION = 0.1

#: Share of messages addressed to a random peer of the sender's group; the
#: rest go to a random node of the whole deployment.
IN_GROUP_FRACTION = 0.8


class PopulationWorkload(TrafficGenerator):
    """Parameterized user-population traffic (see module docstring)."""

    def __init__(
        self,
        duration_s: float,
        base_rate_msgs_per_s: float = 0.02,
        group_size: int = 4,
        activity_duty: float = 0.35,
        mean_session_s: float = 120.0,
        diurnal_period_s: float | None = None,
        diurnal_depth: float = 0.8,
        size_mean_bits: float = 16.0,
        size_sigma: float = 1.0,
    ) -> None:
        require_positive(duration_s, "duration_s")
        require_positive(base_rate_msgs_per_s, "base_rate_msgs_per_s")
        require_positive(mean_session_s, "mean_session_s")
        require_positive(size_mean_bits, "size_mean_bits")
        if group_size < 1:
            raise ValueError("group_size must be at least 1")
        if not 0.0 < activity_duty <= 1.0:
            raise ValueError("activity_duty must lie in (0, 1]")
        if diurnal_period_s is not None:
            require_positive(diurnal_period_s, "diurnal_period_s")
        if not 0.0 <= diurnal_depth <= 1.0:
            raise ValueError("diurnal_depth must lie in [0, 1]")
        if size_sigma < 0.0:
            raise ValueError("size_sigma must be non-negative")
        self.duration_s = float(duration_s)
        self.base_rate_msgs_per_s = float(base_rate_msgs_per_s)
        self.group_size = int(group_size)
        self.activity_duty = float(activity_duty)
        self.mean_session_s = float(mean_session_s)
        self.diurnal_period_s = (
            None if diurnal_period_s is None else float(diurnal_period_s)
        )
        self.diurnal_depth = float(diurnal_depth)
        self.size_mean_bits = float(size_mean_bits)
        self.size_sigma = float(size_sigma)

    # ------------------------------------------------------------- structure
    def groups_for(
        self, topology: AcousticNetTopology
    ) -> list[tuple[str, ...]]:
        """Partition the deployment's nodes into consecutive groups."""
        users = list(topology.names)
        return [
            tuple(users[i:i + self.group_size])
            for i in range(0, len(users), self.group_size)
        ]

    # -------------------------------------------------------------- emission
    def _rate_fraction(self, time_s: float) -> float:
        """Instantaneous rate as a fraction of the peak rate (thinning)."""
        if self.diurnal_period_s is None:
            return 1.0
        modulation = 1.0 - self.diurnal_depth * math.cos(
            2.0 * math.pi * time_s / self.diurnal_period_s
        )
        return modulation / (1.0 + self.diurnal_depth)

    def _arrival_times(self, rng: np.random.Generator) -> list[float]:
        """One user's message times: on/off sessions + thinned Poisson."""
        session_rate = self.base_rate_msgs_per_s / self.activity_duty
        peak_rate = session_rate * (
            1.0 if self.diurnal_period_s is None else 1.0 + self.diurnal_depth
        )
        mean_idle_s = (
            self.mean_session_s * (1.0 - self.activity_duty) / self.activity_duty
            if self.activity_duty < 1.0
            else 0.0
        )
        times: list[float] = []
        now = 0.0
        active = bool(rng.random() < self.activity_duty)
        while now < self.duration_s:
            if active:
                end = min(
                    now + float(rng.exponential(self.mean_session_s)),
                    self.duration_s,
                )
                t = now
                while True:
                    t += float(rng.exponential(1.0 / peak_rate))
                    if t >= end:
                        break
                    if rng.random() < self._rate_fraction(t):
                        times.append(t)
                now = end
            else:
                now += float(rng.exponential(mean_idle_s)) if mean_idle_s else 0.0
            active = not active
        return times

    def _destination(
        self,
        source: str,
        group: tuple[str, ...],
        all_users: tuple[str, ...],
        rng: np.random.Generator,
    ) -> str:
        leader = group[0]
        draw = float(rng.random())
        if draw < LEADER_FRACTION and source != leader:
            return leader
        if draw < LEADER_FRACTION + IN_GROUP_FRACTION:
            peers = [name for name in group if name != source]
            if peers:
                return peers[int(rng.integers(0, len(peers)))]
        anyone = [name for name in all_users if name != source]
        if not anyone:
            raise ValueError("need at least two users for population traffic")
        return anyone[int(rng.integers(0, len(anyone)))]

    def _size_bits(self, rng: np.random.Generator) -> int:
        size = rng.lognormal(math.log(self.size_mean_bits), self.size_sigma)
        return int(np.clip(round(size), MIN_SIZE_BITS, MAX_SIZE_BITS))

    def messages(
        self, topology: AcousticNetTopology, rng: np.random.Generator
    ) -> list[AppMessage]:
        groups = self.groups_for(topology)
        all_users = tuple(name for group in groups for name in group)
        for name in all_users:
            if name not in topology:
                raise ValueError(f"unknown population user {name!r}")
        out: list[AppMessage] = []
        # Users are expanded in deployment order off one shared stream, so
        # the whole population is reproducible from a single generator.
        for group in groups:
            for source in group:
                for time_s in self._arrival_times(rng):
                    out.append(
                        AppMessage(
                            time_s,
                            source,
                            self._destination(source, group, all_users, rng),
                            self._size_bits(rng),
                        )
                    )
        out.sort(key=lambda message: (message.time_s, message.source))
        return out


def synthesize_trace(
    workload: TrafficGenerator,
    topology: AcousticNetTopology,
    seed: int = 0,
    meta: dict | None = None,
) -> Trace:
    """Expand a workload into a send-only :class:`Trace` (no simulation).

    The result replays like any captured trace (its sends *are* the
    workload), which separates workload synthesis from stack evaluation:
    synthesize once, replay against every stack variant.
    """
    rng = np.random.default_rng(seed)
    events = [
        TraceEvent(
            time_s=message.time_s,
            event="send",
            uid=index,
            source=message.source,
            destination=message.destination,
            size_bits=message.size_bits,
            kind="broadcast" if message.destination == BROADCAST else "data",
        )
        for index, message in enumerate(workload.messages(topology, rng))
    ]
    info = {"synthesized": True, "seed": int(seed)}
    info.update(meta or {})
    return Trace(events=events, meta=info)
