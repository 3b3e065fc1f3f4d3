"""Deterministic trace replay and A/B stack comparison.

:class:`TraceTrafficGenerator` feeds a captured (or synthesized) trace's
send events back into any :class:`~repro.net.simulator.NetworkSimulator`
as its workload.  Because the simulator expands *every* traffic
generator through a dedicated RNG stream (one draw off the master
generator, however many draws the generator itself consumes), replaying
a trace against the stack that captured it reproduces the original run's
event interleaving -- and therefore its delivery records and metrics --
bit for bit.  That exactness is what :func:`check_roundtrip` asserts and
what makes committed traces usable as regression fixtures.

:func:`compare_stacks` is the seed-paired A/B comparison of this layer:
one trace, two stack configurations, the same seed on both sides, scored
into a :class:`~repro.trace.qoe.QoeDelta` of latency percentiles,
message QoE and SOS deadline misses.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import BROADCAST
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import AppMessage, TrafficGenerator
from repro.trace.events import Trace
from repro.trace.qoe import (
    DEFAULT_LATENCY_TAU_S,
    DEFAULT_SOS_DEADLINE_S,
    QoeDelta,
    qoe_delta,
)


class TraceTrafficGenerator(TrafficGenerator):
    """Replays a trace's send events as the scenario workload.

    The trace is already concrete, so -- unlike the synthetic
    generators -- expansion consumes no randomness at all.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def messages(
        self, topology: AcousticNetTopology, rng: np.random.Generator
    ) -> list[AppMessage]:
        del rng  # a trace is deterministic by definition
        out = []
        for event in self.trace.sends():
            if event.source not in topology:
                raise ValueError(
                    f"trace source {event.source!r} is not in the topology; "
                    f"replay needs a deployment with the captured node names"
                )
            if event.destination != BROADCAST and event.destination not in topology:
                raise ValueError(
                    f"trace destination {event.destination!r} is not in the "
                    f"topology; replay needs a deployment with the captured "
                    f"node names"
                )
            out.append(
                AppMessage(
                    event.time_s, event.source, event.destination, event.size_bits
                )
            )
        out.sort(key=lambda message: (message.time_s, message.source))
        return out


def scenario_from_trace(trace: Trace, **overrides):
    """Rebuild the trace's recorded scenario, with field overrides.

    The scenario dict the capture stamped into ``meta["scenario"]`` is
    the stack description; ``overrides`` are applied through
    :meth:`~repro.experiments.net_scenario.NetScenario.replace`, which is
    how a replay swaps the link model, routing or ARQ while keeping the
    deployment (and node names) the trace was captured on.
    """
    from repro.experiments.net_scenario import NetScenario

    recorded = trace.meta.get("scenario")
    if recorded is None:
        raise ValueError(
            "trace carries no scenario metadata; pass an explicit scenario "
            "to replay_trace instead"
        )
    scenario = NetScenario.from_dict(recorded)
    return scenario.replace(**overrides) if overrides else scenario


def replay_trace(trace: Trace, scenario=None, progress: bool = False):
    """Replay ``trace`` against a stack and return the
    :class:`~repro.net.simulator.NetworkResult`.

    ``scenario`` defaults to the one recorded in the trace metadata; a
    stack variant under test comes from :func:`scenario_from_trace` with
    overrides (e.g. ``link="physical"`` or ``arq="none"``).
    """
    if scenario is None:
        scenario = scenario_from_trace(trace)
    simulator = scenario.build_simulator()
    return simulator.run(traffic=TraceTrafficGenerator(trace), progress=progress)


def check_roundtrip(trace: Trace) -> tuple[bool, dict, dict]:
    """Replay ``trace`` against its capturing stack and compare metrics.

    Returns ``(identical, captured, replayed)`` where the dicts are the
    captured ``capture_metrics`` and the replay's strict-JSON metrics
    report (:meth:`~repro.net.metrics.NetworkMetrics.to_dict`).
    ``identical`` demands equality of every key, per-flow rows included,
    with every float bit for bit -- the round-trip guarantee is exact
    reproduction, not statistical agreement.
    """
    captured = trace.meta.get("capture_metrics")
    if captured is None:
        raise ValueError(
            "trace carries no capture_metrics metadata (synthesized traces "
            "have nothing to round-trip against); capture one with "
            "capture_scenario or `cli trace capture`"
        )
    replayed = replay_trace(trace).metrics.to_dict()
    return replayed == captured, dict(captured), replayed


def compare_stacks(
    trace: Trace,
    scenario_a,
    scenario_b,
    latency_tau_s: float = DEFAULT_LATENCY_TAU_S,
    sos_deadline_s: float = DEFAULT_SOS_DEADLINE_S,
) -> QoeDelta:
    """Replay one trace against two stacks and score the QoE deltas.

    Both replays run the identical message stream with the identical
    scenario seed, so every difference in the report is the stacks', not
    the workload's.
    """
    result_a = replay_trace(trace, scenario=scenario_a)
    result_b = replay_trace(trace, scenario=scenario_b)

    def stack_label(scenario) -> str:
        # Compact and markdown-table safe (describe() uses " | ").
        return f"{scenario.link}+{scenario.routing}+{scenario.arq}"

    return qoe_delta(
        result_a.metrics,
        result_b.metrics,
        label_a=stack_label(scenario_a),
        label_b=stack_label(scenario_b),
        latency_tau_s=latency_tau_s,
        sos_deadline_s=sos_deadline_s,
    )
