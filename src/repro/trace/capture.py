"""Capturing a network run as a :class:`~repro.trace.events.Trace`.

:class:`TraceRecorder` is the concrete
:class:`~repro.net.simulator.NetObserver`: hand one to a
:class:`~repro.net.simulator.NetworkSimulator` (or to
:meth:`NetScenario.build_simulator
<repro.experiments.net_scenario.NetScenario.build_simulator>`) and every
app-layer send, delivery, drop and flow abort lands in the recorder as a
:class:`~repro.trace.events.TraceEvent`.  :func:`capture_scenario` wraps
the whole loop for declarative scenarios and stamps the trace with the
scenario dict and the run's metrics report
(:meth:`~repro.net.metrics.NetworkMetrics.to_dict`), which is what makes
the committed fixture a self-checking regression artifact: replaying it
must reproduce ``meta["capture_metrics"]`` exactly.
"""

from __future__ import annotations

from repro.net.metrics import DeliveryRecord
from repro.net.simulator import NetObserver
from repro.net.traffic import AppMessage
from repro.trace.events import Trace, TraceEvent


class TraceRecorder(NetObserver):
    """Accumulates the app-layer events of one simulator run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    # ----------------------------------------------------------------- hooks
    def on_send(self, time_s: float, uid: int, message: AppMessage, kind: str) -> None:
        self.events.append(
            TraceEvent(
                time_s=time_s, event="send", uid=uid,
                source=message.source, destination=message.destination,
                size_bits=message.size_bits, kind=kind,
            )
        )

    def on_delivery(self, record: DeliveryRecord) -> None:
        self.events.append(
            TraceEvent(
                time_s=record.delivered_s, event="deliver", uid=record.uid,
                source=record.source, destination=record.destination,
                hop_count=record.hop_count, kind=record.kind,
            )
        )

    def on_drop(self, record: DeliveryRecord, time_s: float, reason: str = "") -> None:
        self.events.append(
            TraceEvent(
                time_s=time_s, event="drop", uid=record.uid,
                source=record.source, destination=record.destination,
                kind=record.kind, reason=reason,
            )
        )

    def on_flow_abort(self, time_s: float, flow_id: str, reason: str = "") -> None:
        self.events.append(
            TraceEvent(
                time_s=time_s, event="abort", uid=-1,
                source="", destination="", flow_id=flow_id, reason=reason,
            )
        )

    # ----------------------------------------------------------------- trace
    def trace(self, meta: dict | None = None) -> Trace:
        """Freeze the recorded events into a :class:`Trace`.

        Events are sorted by time with a stable key, so simultaneous
        events keep their (deterministic) emission order and the trace
        is identical however the caller interleaved hook calls.
        """
        events = sorted(
            self.events, key=lambda event: (event.time_s, event.uid)
        )
        return Trace(events=events, meta=dict(meta or {}))


def capture_scenario(scenario, progress: bool = False):
    """Run a :class:`~repro.experiments.net_scenario.NetScenario`, captured.

    Returns ``(result, trace)`` where the trace's ``meta`` carries the
    scenario dict (so replay can rebuild the exact stack) and, as
    ``capture_metrics``, the capture run's strict-JSON metrics report
    (:meth:`~repro.net.metrics.NetworkMetrics.to_dict`): the round-trip
    reference a replay must reproduce bit for bit.
    """
    recorder = TraceRecorder()
    simulator = scenario.build_simulator(observer=recorder)
    result = simulator.run(traffic=scenario.build_traffic(), progress=progress)
    trace = recorder.trace(
        meta={
            "scenario": scenario.to_dict(),
            "capture_metrics": result.metrics.to_dict(),
        }
    )
    return result, trace
