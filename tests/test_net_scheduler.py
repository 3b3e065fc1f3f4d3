"""Tests for the discrete-event scheduler."""

import pytest

from repro.net.scheduler import Scheduler


def test_events_run_in_time_order():
    scheduler = Scheduler()
    order = []
    scheduler.at(2.0, lambda: order.append("late"))
    scheduler.at(0.5, lambda: order.append("early"))
    scheduler.at(1.0, lambda: order.append("middle"))
    scheduler.run()
    assert order == ["early", "middle", "late"]
    assert scheduler.now_s == 2.0
    assert scheduler.num_processed == 3


def test_ties_run_in_insertion_order():
    scheduler = Scheduler()
    order = []
    for tag in ("a", "b", "c"):
        scheduler.at(1.0, lambda tag=tag: order.append(tag))
    scheduler.run()
    assert order == ["a", "b", "c"]


def test_cannot_schedule_in_the_past():
    scheduler = Scheduler()
    scheduler.at(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(ValueError):
        scheduler.at(0.5, lambda: None)


@pytest.mark.parametrize("time_s", [float("nan"), float("inf"), float("-inf")])
def test_cannot_schedule_at_a_non_finite_time(time_s):
    scheduler = Scheduler()
    scheduler.at(1.0, lambda: None)
    with pytest.raises(ValueError):
        scheduler.at(time_s, lambda: None)
    assert scheduler.num_pending == 1
    scheduler.run()
    assert scheduler.now_s == 1.0


def test_cancelled_events_are_skipped():
    scheduler = Scheduler()
    fired = []
    keep = scheduler.at(1.0, lambda: fired.append("keep"))
    drop = scheduler.at(2.0, lambda: fired.append("drop"))
    scheduler.cancel(drop)
    scheduler.run()
    assert fired == ["keep"]
    assert not keep.cancelled
    assert scheduler.num_pending == 0


def test_run_until_leaves_future_events_queued():
    scheduler = Scheduler()
    fired = []
    scheduler.at(1.0, lambda: fired.append(1))
    scheduler.at(5.0, lambda: fired.append(5))
    processed = scheduler.run(until_s=2.0)
    assert processed == 1
    assert fired == [1]
    assert scheduler.num_pending == 1
    assert scheduler.now_s == 2.0
    scheduler.run()
    assert fired == [1, 5]


def test_run_max_events_guard():
    scheduler = Scheduler()
    for index in range(10):
        scheduler.at(float(index), lambda: None)
    assert scheduler.run(max_events=4) == 4
    assert scheduler.num_pending == 6


def test_events_can_schedule_events():
    scheduler = Scheduler()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            scheduler.at(scheduler.now_s + 1.0, lambda: chain(depth + 1))

    scheduler.at(0.0, lambda: chain(0))
    scheduler.run()
    assert seen == [0, 1, 2, 3]
    assert scheduler.now_s == 3.0


def test_num_pending_tracks_cancellations_cheaply():
    scheduler = Scheduler()
    events = [scheduler.at(float(i), lambda: None) for i in range(5)]
    assert scheduler.num_pending == 5
    scheduler.cancel(events[1])
    scheduler.cancel(events[1])  # double-cancel must not double-count
    assert scheduler.num_pending == 4
    scheduler.run()
    assert scheduler.num_pending == 0
    assert scheduler.num_processed == 4
    # cancelling an already-run event is a no-op and does not corrupt counts
    scheduler.cancel(events[0])
    assert scheduler.num_pending == 0


def test_cancelled_then_rescheduled_pattern():
    scheduler = Scheduler()
    fired = []
    timer = scheduler.at(5.0, lambda: fired.append("old"))
    scheduler.cancel(timer)
    scheduler.at(2.0, lambda: fired.append("new"))
    scheduler.run()
    assert fired == ["new"]
    assert scheduler.num_pending == 0


def test_fired_and_cancelled_events_drop_their_action():
    scheduler = Scheduler()
    fired = scheduler.at(1.0, lambda: None)
    # An earlier member of a same-time cohort cancels a later one.
    scheduler.at(2.0, lambda: scheduler.cancel(victim))
    cohort = [scheduler.at(2.0, lambda: None) for _ in range(2)]
    victim = scheduler.at(2.0, lambda: None)
    cancelled = scheduler.at(3.0, lambda: None)
    pending = scheduler.at(5.0, lambda: None)
    scheduler.cancel(cancelled)
    assert cancelled.action is None  # dropped when cancelled, not when popped
    assert scheduler.run(until_s=4.0) == 4
    assert fired.action is None and all(event.action is None for event in cohort)
    assert victim.cancelled and victim.action is None
    assert pending.action is not None
    scheduler.cancel(fired)  # no-op on an event that already ran
    assert not fired.cancelled
    assert scheduler.num_pending == 1
