"""Hooking a :class:`~repro.faults.schedule.FaultSchedule` into one run.

:class:`FaultInjector` is the bridge between the declarative schedule
and a live :class:`~repro.net.simulator.NetworkSimulator`.  At install
time it schedules every expanded fault event on the simulator's own
scheduler (under ``"~fault"`` tie-break keys, which sort after all node
names) and registers itself as the simulator's ``_fault_hooks``.  An
*empty* schedule installs nothing: no attribute is touched, no event is
queued, and the run is byte-identical to one built without a faults
argument.

Two determinism rules shape everything here:

* The injector draws from its **own** generator (seeded with
  ``schedule.seed``), never from the simulation's.  Link-degradation
  draws therefore do not shift the delivery/jitter stream, and the same
  (scenario seed, schedule) pair replays bit-identically.
* Physical death and routing knowledge are **separate**.  A crash only
  flips the node's ``alive`` flag -- it stays in every neighbour table,
  soaking up wasted transmissions, until the beacon-liveness tracker
  observes enough silence to evict it (repair on) or forever (repair
  off).  Time-to-repair is the gap between those two moments.

The injector refers to its simulator through a weak proxy.  The
simulator holds the injector (``faults``, ``_fault_hooks``), so a strong
back-reference would make a cycle that keeps every finished faults run
alive until a full garbage collection; with the proxy the run is freed
as soon as its caller drops it.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from repro.faults.liveness import NeighborLivenessTracker
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.metrics import RX_POWER_W, TX_POWER_W


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one simulator run."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._sim = None
        self._rng: np.random.Generator | None = None
        self._tracker: NeighborLivenessTracker | None = None
        #: Physically-down node set (ground truth, not network belief).
        self._down: set[str] = set()
        self._crash_time: dict[str, float] = {}
        #: Nodes the liveness layer has evicted from the topology.
        self._observed_dead: set[str] = set()
        #: name -> remaining budget for nodes on an energy-deplete clock.
        self._budgets: dict[str, float] = {}
        self._spent: dict[str, float] = {}
        #: window id -> (frozenset pair | None for all-links, inflation).
        self._active_windows: dict[int, tuple[frozenset | None, float]] = {}
        self._horizon = 0.0
        self._ticking = False

    # ---------------------------------------------------------------- install
    def install(self, sim) -> None:
        """Arm the schedule on ``sim`` (a no-op for empty schedules)."""
        schedule = self.schedule
        if schedule.is_empty:
            return
        self._sim = weakref.proxy(sim)
        self._rng = np.random.default_rng(schedule.seed)
        names = tuple(sim.topology.names)
        schedule.validate_names(names)
        events = schedule.expand(names)
        sim._fault_hooks = self
        scheduler = sim._scheduler
        horizon = 0.0
        for i, event in enumerate(events):
            key = ("~fault", i)
            if event.kind == "crash":
                scheduler.at(
                    event.time_s,
                    lambda name=event.node: self._on_crash(name),
                    key=key,
                )
                if event.duration_s > 0.0:
                    scheduler.at(
                        event.end_s,
                        lambda name=event.node: self._on_recover(name),
                        key=key,
                    )
                horizon = max(horizon, event.end_s)
            elif event.kind == "recover":
                scheduler.at(
                    event.time_s,
                    lambda name=event.node: self._on_recover(name),
                    key=key,
                )
                horizon = max(horizon, event.time_s)
            elif event.kind == "energy-deplete":
                scheduler.at(
                    event.time_s,
                    lambda e=event: self._arm_budget(e),
                    key=key,
                )
                horizon = max(horizon, event.time_s)
            else:  # link-blackout / link-degrade / noise-burst windows
                pair = (
                    frozenset((event.node, event.peer))
                    if event.kind != "noise-burst"
                    else None
                )
                inflation = event.inflation
                scheduler.at(
                    event.time_s,
                    lambda i=i, pair=pair, p=inflation: (
                        self._active_windows.__setitem__(i, (pair, p))
                    ),
                    key=key,
                )
                scheduler.at(
                    event.end_s,
                    lambda i=i: self._active_windows.pop(i, None),
                    key=key,
                )
                horizon = max(horizon, event.end_s)
        if schedule.repair:
            self._tracker = NeighborLivenessTracker(
                names, schedule.beacon_interval_s, schedule.miss_threshold
            )
            # Keep ticking one detection delay past the last scheduled
            # fault so late crashes are still noticed and late
            # recoveries rediscovered.
            self._horizon = horizon + (
                (schedule.miss_threshold + 1) * schedule.beacon_interval_s
            )
            self._ticking = True
            scheduler.at(
                schedule.beacon_interval_s, self._on_tick, key=("~beacon",)
            )

    # ------------------------------------------------------------ sim queries
    @property
    def any_down(self) -> bool:
        """Whether any node is physically down right now."""
        return bool(self._down)

    def observed_dead(self, name: str) -> bool:
        """Whether the liveness layer currently believes ``name`` dead."""
        return name in self._observed_dead

    # ------------------------------------------------------------- transitions
    def _on_crash(self, name: str) -> None:
        if name in self._down:
            return
        sim = self._sim
        self._down.add(name)
        self._crash_time[name] = sim._scheduler.now_s
        sim.fail_node(name)
        sim._metrics.node_crashes += 1
        self._extend_ticks()

    def _on_recover(self, name: str) -> None:
        if name not in self._down:
            return
        sim = self._sim
        self._down.discard(name)
        sim.recover_node(name)
        sim._metrics.node_recoveries += 1
        # Re-flooding waits for tracker rediscovery (see _on_tick): with
        # repair on, the recovered node is still evicted from its
        # neighbours' tables at this instant, so an immediate re-flood
        # could not reach it anyway.
        self._extend_ticks()

    def _arm_budget(self, event: FaultEvent) -> None:
        if event.node in self._down:
            return
        self._budgets[event.node] = event.energy_budget_j
        self._spent[event.node] = 0.0

    # -------------------------------------------------------------- transmit
    def on_transmit(
        self, sender: str, receivers, outcome_row, airtime_s: float, now_s: float
    ) -> None:
        """Per-transmission hook: degradation windows + energy ledger.

        ``outcome_row`` is mutated in place; forced failures become
        ordinary link drops in the simulator's fan-out loop.
        """
        if self._active_windows:
            rng = self._rng
            for slot, outcome in enumerate(outcome_row):
                if outcome is None or not outcome.delivered:
                    continue
                p = self._inflation(sender, receivers[slot].name)
                if p <= 0.0:
                    continue
                # A certain failure (blackout) skips the draw, so pure
                # blackout windows consume no injector randomness.
                if p >= 1.0 or rng.random() < p:
                    outcome_row[slot] = dataclasses.replace(
                        outcome, delivered=False
                    )
        if self._budgets:
            self._charge(sender, TX_POWER_W * airtime_s, now_s, airtime_s)
            for receiver in receivers:
                if receiver.name in self._budgets and receiver.alive:
                    self._charge(
                        receiver.name, RX_POWER_W * airtime_s, now_s, airtime_s
                    )

    def _inflation(self, sender: str, receiver: str) -> float:
        """Combined loss probability over all windows covering the link."""
        pair = None
        survive = 1.0
        for window_pair, p in self._active_windows.values():
            if window_pair is not None:
                if pair is None:
                    pair = frozenset((sender, receiver))
                if window_pair != pair:
                    continue
            survive *= 1.0 - p
        return 1.0 - survive

    def _charge(
        self, name: str, joules: float, now_s: float, airtime_s: float
    ) -> None:
        budget = self._budgets.get(name)
        if budget is None:
            return
        self._spent[name] += joules
        if self._spent[name] >= budget:
            # One shutdown per budget, at the end of the depleting
            # transmission (the modem finishes the symbol, then dies).
            del self._budgets[name]
            self._sim._scheduler.at(
                now_s + airtime_s,
                lambda: self._on_crash(name),
                key=("~fault-energy", name),
            )

    # ------------------------------------------------------------------ repair
    def _on_tick(self) -> None:
        sim = self._sim
        now = sim._scheduler.now_s
        newly_dead, newly_alive = self._tracker.tick(now, self._down)
        for name in newly_dead:
            sim.topology.deactivate(name)
            self._observed_dead.add(name)
            sim._metrics.record_repair(now - self._crash_time[name])
            sim.abort_flows_to(name, "dest-dead")
        for name in newly_alive:
            sim.topology.reactivate(name)
            self._observed_dead.discard(name)
        if newly_dead or newly_alive:
            sim.routing.prepare(sim.topology)
        # After reactivation + route recompute, so the recovered node is
        # back in its neighbours' fan-out tables and can hear the flood.
        for name in newly_alive:
            sim.reflood_broadcasts(name)
        if self._horizon - now > 1e-9:
            sim._scheduler.at(
                now + self.schedule.beacon_interval_s,
                self._on_tick,
                key=("~beacon",),
            )
        else:
            self._ticking = False

    def _extend_ticks(self) -> None:
        """Keep the beacon clock running long enough to observe a
        just-happened transition (e.g. an energy death past the last
        scheduled event)."""
        if self._tracker is None:
            return
        schedule = self.schedule
        now = self._sim._scheduler.now_s
        self._horizon = max(
            self._horizon,
            now + (schedule.miss_threshold + 2) * schedule.beacon_interval_s,
        )
        if not self._ticking:
            self._ticking = True
            self._sim._scheduler.at(
                now + schedule.beacon_interval_s,
                self._on_tick,
                key=("~beacon",),
            )
