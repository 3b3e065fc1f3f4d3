"""Trace capture/replay and synthetic user-population workloads.

The CGReplay pattern (PAPERS.md) for this reproduction: record what a
network run did at the application layer, replay it deterministically
against modified stacks, and score the user-facing deltas -- plus a
population-scale workload synthesizer so scenarios go beyond plain
Poisson.  Three pillars:

* :mod:`~repro.trace.events` -- the portable, versioned :class:`Trace`
  format (JSON lines + columnar numpy);
* :mod:`~repro.trace.capture` -- :class:`TraceRecorder`, the
  :class:`~repro.net.simulator.NetObserver` that records a run, and
  :func:`capture_scenario`;
* :mod:`~repro.trace.replay` -- :class:`TraceTrafficGenerator`,
  :func:`replay_trace`, the exact :func:`check_roundtrip` gate (the
  replay's metrics report against the captured one) and the
  seed-paired :func:`compare_stacks` QoE A/B harness
  (:mod:`~repro.trace.qoe` provides the scoring; the latency
  percentiles come from
  :meth:`~repro.net.metrics.NetworkMetrics.latency_percentiles_s`);
* :mod:`~repro.trace.population` -- :class:`PopulationWorkload`
  (groups, on/off sessions, diurnal modulation, heavy-tailed sizes) and
  :func:`synthesize_trace`.

CLI: ``python -m repro.cli trace {capture,replay,synth,compare}``.
"""

from repro.trace.capture import TraceRecorder, capture_scenario
from repro.trace.events import (
    EVENT_KINDS,
    PAYLOAD_KINDS,
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceEvent,
    load_trace,
    save_trace,
)
from repro.trace.population import PopulationWorkload, synthesize_trace
from repro.trace.qoe import (
    DEFAULT_LATENCY_TAU_S,
    DEFAULT_SOS_DEADLINE_S,
    QoeDelta,
    QoeReport,
    qoe_delta,
    qoe_report,
)
from repro.trace.replay import (
    TraceTrafficGenerator,
    check_roundtrip,
    compare_stacks,
    replay_trace,
    scenario_from_trace,
)

__all__ = [
    "DEFAULT_LATENCY_TAU_S",
    "DEFAULT_SOS_DEADLINE_S",
    "EVENT_KINDS",
    "PAYLOAD_KINDS",
    "PopulationWorkload",
    "QoeDelta",
    "QoeReport",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
    "TraceTrafficGenerator",
    "capture_scenario",
    "check_roundtrip",
    "compare_stacks",
    "load_trace",
    "qoe_delta",
    "qoe_report",
    "replay_trace",
    "save_trace",
    "scenario_from_trace",
    "synthesize_trace",
]
