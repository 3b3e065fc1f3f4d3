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
far more often than they fire.  :meth:`Scheduler.run` pops and fires one
event at a time, in heap order, so an event scheduled for the current
instant runs in its key and insertion order among the events already
queued there.  :attr:`Scheduler.num_pending` counts the live entries
when read; its one reader outside the tests is the net run's progress
line, once per ``PROGRESS_CHUNK_EVENTS``.

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
        """Events still queued (cancelled ones excluded), counted on read."""
        return sum(not entry[3].cancelled for entry in self._heap)

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
        if event.action is not None:
            event.action = None
            event.cancelled = True

    # ---------------------------------------------------------------- running
    def run(self, until_s: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order, one at a time.

        Each step pops the heap's head: the earliest time, then the
        smallest key, then the lowest sequence number.  An event that an
        action schedules for the current instant therefore runs before
        the queued same-time events its key sorts ahead of, and an event
        cancelled by an earlier one never runs.

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
            time_s, _, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until_s is not None and time_s > until_s:
                self._now_s = max(self._now_s, float(until_s))
                break
            heapq.heappop(heap)
            self._now_s = time_s
            action = event.action
            event.action = None
            self._num_processed += 1
            processed += 1
            action()
        return processed
