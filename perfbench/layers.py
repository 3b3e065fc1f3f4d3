"""Layer boundaries the traced run times, and the per-layer metrics.

Each entry of :data:`BOUNDARIES` names a span and the public callable it
wraps.  Several callables may share one span name; a layer's self time is
then the sum over all of them.  Work a layer does in private helpers it
calls lands in that layer's self time (``net.scheduler`` therefore covers
the simulator's event handlers, including the ``_transmit`` collision
scan).
"""

from __future__ import annotations

from spans import SpanRecorder


def _count_detected(counts, detection) -> None:
    counts["core.preamble.detect.hits"] += bool(detection.detected)


def _count_feedback(counts, result) -> None:
    counts["core.feedback.decodes"] += 1
    counts["core.feedback.found"] += bool(result.found)


# (span name, module, "Class.method", result hook)
BOUNDARIES = (
    # PHY
    ("channel.transmit", "repro.channel.channel", "UnderwaterAcousticChannel.transmit", None),
    ("channel.randomize", "repro.channel.channel", "UnderwaterAcousticChannel.randomize", None),
    ("dsp.filter", "repro.dsp.filters", "FIRBandpassFilter.apply", None),
    ("core.preamble.detect", "repro.core.preamble", "PreambleDetector.detect", _count_detected),
    ("core.adaptation", "repro.core.modem", "AquaModem.estimate_snr", None),
    ("core.adaptation", "repro.core.modem", "AquaModem.select_band", None),
    ("core.feedback", "repro.core.feedback", "FeedbackCodec.encode", None),
    ("core.feedback", "repro.core.feedback", "FeedbackCodec.decode", _count_feedback),
    ("core.coding.encode", "repro.core.coding", "DataEncoder.encode", None),
    ("core.coding.decode", "repro.core.coding", "DataDecoder.decode", None),
    ("core.equalizer.fit", "repro.core.equalizer", "MMSEEqualizer.fit", None),
    ("fec.decode", "repro.fec.convolutional", "PuncturedConvolutionalCode.decode", None),
    ("fec.decode", "repro.fec.convolutional", "ConvolutionalCode.decode", None),
    ("link.session", "repro.link.session", "LinkSession.run_packets", None),
    ("link.build", "repro.experiments.scenario", "Scenario.build_session", None),
    # net engine
    ("net.setup", "repro.experiments.net_scenario", "NetScenario.build_simulator", None),
    ("net.traffic", "repro.experiments.net_scenario", "NetScenario.build_traffic", None),
    ("net.traffic", "repro.net.traffic", "PoissonTraffic.messages", None),
    ("net.simulator", "repro.net.simulator", "NetworkSimulator.run", None),
    ("net.scheduler", "repro.net.scheduler", "Scheduler.run", None),
    ("net.routing", "repro.net.routing", "GreedyForwarding.next_hops", None),
    ("net.routing", "repro.net.routing", "GreedyForwarding.prepare", None),
    ("net.routing", "repro.net.routing", "FloodingRouting.next_hops", None),
    ("net.topology", "repro.net.topology", "AcousticNetTopology.neighbor_table", None),
    ("net.topology", "repro.net.topology", "AcousticNetTopology.distances_to", None),
    ("net.links", "repro.net.links", "CalibratedLink.deliver", None),
    ("net.links", "repro.net.links", "CalibratedLink.deliver_many", None),
    ("net.links", "repro.net.links", "CalibratedLink.airtime_s", None),
    ("net.transport", "repro.net.transport", "ArqSender.offer", None),
    ("net.transport", "repro.net.transport", "ArqSender.window_transmissions", None),
    ("net.transport", "repro.net.transport", "ArqSender.on_ack", None),
    ("net.transport", "repro.net.transport", "ArqSender.on_timeout", None),
    ("net.transport", "repro.net.transport", "ArqSender.next_timeout_s", None),
    ("net.transport", "repro.net.transport", "ArqReceiver.on_data", None),
    ("net.metrics", "repro.net.metrics", "NetworkMetrics.record_delivery", None),
    ("net.metrics", "repro.net.metrics", "NetworkMetrics.record_drop_reason", None),
    ("net.metrics", "repro.net.metrics", "NetworkMetrics.record_abort_reason", None),
    ("net.metrics", "repro.net.metrics", "NetworkMetrics.add", None),
    # pipeline
    ("experiments.service.submit", "repro.experiments.service", "SweepService.submit", None),
    ("experiments.service.stream", "repro.experiments.service", "SweepService.stream", None),
    ("experiments.runner.run_columnar", "repro.experiments.runner", "ExperimentRunner.run_columnar", None),
    ("experiments.runner.iter_run", "repro.experiments.runner", "ExperimentRunner.iter_run", None),
    ("experiments.records.load", "repro.experiments.records", "ResultSet.load", None),
    ("experiments.records.save", "repro.experiments.records", "ResultSet.save", None),
    ("experiments.records.save", "repro.experiments.columnar", "ColumnarResultSet.save", None),
    ("experiments.columnar.append", "repro.experiments.columnar", "ColumnarResultSet.append", None),
    ("experiments.columnar.save_npz", "repro.experiments.columnar", "ColumnarResultSet.save_npz", None),
    ("experiments.columnar.load_npz", "repro.experiments.columnar", "ColumnarResultSet.load_npz", None),
)

#: Span name of the benchmark's own root span around each timed operation.
ROOT = "bench.op"

#: Layers whose self time is reported (``<name>.self_s``): every span name.
SELF_TIME_LAYERS = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))

#: Layers whose completed call count is reported (``<name>.calls``).
CALL_COUNT_LAYERS = (
    "channel.transmit", "net.routing", "net.topology", "net.links",
    "net.transport", "experiments.records.load",
)

#: Counts the workloads take from the program's results while traced.
WORKLOAD_COUNTS = (
    ("net.scheduler.events", "count"),
    ("net.transport.retransmissions", "count"),
    ("net.transport.aborted_flows", "count"),
    ("experiments.service.manifest_bytes", "bytes"),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary that exists in the code under test."""
    for name, module, qualname, hook in BOUNDARIES:
        recorder.patch(name, module, qualname, hook)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    passes: int,
    workload_counts: dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
    cpu_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics as ``{name: (value, unit)}``.

    Self times, call counts and workload counts are divided by the number
    of traced passes; ``trace.self_sum_ratio`` is the layers' summed self
    time (the benchmark's root span excluded) over the traced end-to-end
    time of the same operations.
    """
    own = recorder.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_s"] = (own.get(name, 0.0) / passes, "s")
    for name in CALL_COUNT_LAYERS:
        metrics[f"{name}.calls"] = (recorder.calls.get(name, 0) / passes, "count")
    counts = recorder.counts
    metrics["core.preamble.detect.hit_ratio"] = (
        _ratio(counts["core.preamble.detect.hits"], recorder.calls.get("core.preamble.detect", 0)),
        "ratio",
    )
    metrics["core.feedback.found_ratio"] = (
        _ratio(counts["core.feedback.found"], counts["core.feedback.decodes"]), "ratio"
    )
    for name, unit in WORKLOAD_COUNTS:
        metrics[name] = (workload_counts.get(name, 0) / passes, unit)
    metrics["net.collision_ratio"] = (
        _ratio(workload_counts.get("net.collisions", 0), workload_counts.get("net.transmissions", 0)),
        "ratio",
    )
    layer_self = sum(seconds for name, seconds in own.items() if name != ROOT)
    metrics["trace.self_sum_ratio"] = (_ratio(layer_self, traced_wall_s), "ratio")
    metrics["trace.overhead_s"] = ((traced_wall_s - untraced_wall_s) / passes, "s")
    metrics["trace.spans"] = (recorder.num_spans / passes, "count")
    metrics["process.cpu_s"] = (cpu_s / passes, "s")
    return metrics


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    recorder = SpanRecorder()
    return [
        (name, unit)
        for name, (_, unit) in per_layer_metrics(recorder, 1, {}, 0.0, 0.0, 0.0).items()
    ]
