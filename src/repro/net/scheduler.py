"""Generic discrete-event scheduler.

Everything time-ordered in the network simulator -- transmissions
completing, packets arriving after their propagation delay, ARQ timers
firing, traffic sources emitting messages, fault transitions -- is an
:class:`Event` on one :class:`Scheduler`.  The heap holds plain
``(time, key, sequence, event)`` tuples (native tuple comparison is what
makes pushing and popping tens of thousands of events cheap; an orderable
dataclass pays a generated ``__lt__`` per comparison), ties are broken by
an optional stable *key* and then by insertion order so runs are fully
deterministic -- per-flow ARQ timers pass their (source, destination)
names as the key, making many-flow runs reproducible even if flows are
created in a different order -- and cancellation is
*lazy* (a cancelled event stays in the heap but is skipped when popped),
which keeps :meth:`Scheduler.cancel` O(1) -- ARQ timers are rescheduled
far more often than they fire.  A skip-cancel counter tracks how many
cancelled entries remain queued so :attr:`Scheduler.num_pending` is O(1)
instead of a heap scan.

An event lets go of its action the moment it fires or is cancelled.
Callers keep finished events around (the simulator's reception lists,
its per-flow timers), and their actions are closures over the
simulator; dropping them leaves no reference cycle behind, so a
finished simulation is freed by reference counting as soon as its
caller drops it, without waiting for a full garbage collection.
"""

from __future__ import annotations

import heapq
from typing import Callable

_INF = float("inf")


class Event:
    """One scheduled action.

    Attributes
    ----------
    time_s:
        Absolute simulation time at which the action runs.
    key:
        Stable tie-break applied before the insertion counter: same-time
        events order by ``key`` first, so callers with a natural identity
        (e.g. a flow's endpoint names) are ordered by *what* they are,
        not by when they happened to be scheduled.  Defaults to ``()``,
        which sorts before every non-empty key.
    sequence:
        Insertion counter; orders events scheduled for the same instant
        and key.
    action:
        Zero-argument callable executed when the event fires; ``None``
        once the event has fired or been cancelled.
    cancelled:
        Lazily-cancelled events are skipped when they reach the heap top.
    """

    __slots__ = ("time_s", "key", "sequence", "action", "cancelled")

    def __init__(
        self,
        time_s: float,
        sequence: int,
        action: Callable[[], None],
        key: tuple = (),
    ) -> None:
        self.time_s = time_s
        self.key = key
        self.sequence = sequence
        self.action: Callable[[], None] | None = action
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.cancelled:
            state = "cancelled"
        else:
            state = "done" if self.action is None else "pending"
        return f"Event(time_s={self.time_s}, sequence={self.sequence}, {state})"


class Scheduler:
    """Time-ordered event queue driving one simulation run."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, tuple, int, Event]] = []
        self._sequence = 0
        self._now_s = 0.0
        self._num_processed = 0
        self._num_cancelled_pending = 0

    # ------------------------------------------------------------- properties
    @property
    def now_s(self) -> float:
        """Current simulation time (start time of the last processed event)."""
        return self._now_s

    @property
    def num_processed(self) -> int:
        """Events executed so far."""
        return self._num_processed

    @property
    def num_pending(self) -> int:
        """Events still queued (cancelled ones excluded)."""
        return len(self._heap) - self._num_cancelled_pending

    # ------------------------------------------------------------- scheduling
    def at(
        self, time_s: float, action: Callable[[], None], key: tuple = ()
    ) -> Event:
        """Schedule ``action`` at absolute time ``time_s``.

        ``key`` is a stable same-time tie-break (compared before the
        insertion counter); it must be a tuple of mutually comparable
        elements across all callers that can collide in time.  The
        default empty tuple preserves pure insertion ordering.  A time
        before the current one or not finite raises ``ValueError`` (a NaN
        would pass a bare ``<`` test and turn the clock into NaN).
        """
        time_s = float(time_s)
        if not self._now_s <= time_s < _INF:
            raise ValueError(
                f"cannot schedule at {time_s} s: event times must be finite "
                f"and not before the simulation time {self._now_s} s"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_s, sequence, action, key)
        heapq.heappush(self._heap, (time_s, key, sequence, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran or was cancelled)."""
        if event.action is None:
            return
        event.action = None
        event.cancelled = True
        self._num_cancelled_pending += 1

    # ---------------------------------------------------------------- running
    def run(self, until_s: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order.

        Pops directly off the heap and drains *cohorts* of same-time
        events in one sweep: the heap is consulted once per distinct
        timestamp, not once per event.
        Events an earlier cohort member schedules for the same instant
        carry larger sequence numbers and form the next cohort, so
        execution order is identical to the one-at-a-time loop.

        Parameters
        ----------
        until_s:
            Stop once the next event lies strictly beyond this time (the
            event stays queued and the clock advances to ``until_s``).
        max_events:
            Safety valve: stop after this many events.

        Returns
        -------
        int
            Number of events processed by this call.
        """
        heap = self._heap
        processed = 0
        while heap:
            if max_events is not None and processed >= max_events:
                break
            if heap[0][3].cancelled:
                heapq.heappop(heap)
                self._num_cancelled_pending -= 1
                continue
            time_s = heap[0][0]
            if until_s is not None and time_s > until_s:
                self._now_s = max(self._now_s, float(until_s))
                break
            first = heapq.heappop(heap)[3]
            if not (heap and heap[0][0] == time_s):
                # Lone event at this instant (the common case under
                # jittered continuous time): dispatch without building a
                # cohort list.
                self._now_s = time_s
                action = first.action
                first.action = None
                self._num_processed += 1
                processed += 1
                action()
                continue
            # Collect the cohort scheduled for exactly this instant,
            # bounded by the remaining event budget.
            budget = None if max_events is None else max_events - processed
            cohort: list[Event] = [first]
            while heap and heap[0][0] == time_s:
                if budget is not None and len(cohort) >= budget:
                    break
                event = heapq.heappop(heap)[3]
                if event.cancelled:
                    self._num_cancelled_pending -= 1
                    continue
                cohort.append(event)
            self._now_s = time_s
            for event in cohort:
                if event.cancelled:
                    # Cancelled by an earlier event in this same cohort.
                    self._num_cancelled_pending -= 1
                    continue
                action = event.action
                event.action = None
                self._num_processed += 1
                processed += 1
                action()
        return processed
