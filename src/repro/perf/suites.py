"""Benchmark suites over the reproduction's hot paths.

Nine suites cover the layers every figure reproduction funnels through:

``fec``
    Viterbi decoding, punctured packet decoding and convolutional
    encoding.
``ofdm``
    OFDM symbol modulation and demodulation, single and batched.
``preamble``
    Two-stage preamble detection over a noisy capture (cached conjugate
    template spectrum + vectorized fine refinement).
``channel``
    The underwater channel propagation through cached transfer functions.
``equalizer``
    MMSE equalizer fitting: the Levinson solve and the batched
    ``fit_apply_many`` pipeline.
``link``
    End-to-end :class:`~repro.link.session.LinkSession` protocol
    exchanges, single-packet and through ``run_packets``.
``net``
    The multi-hop network simulator: raw scheduler churn plus complete
    50-node greedy-routing and 12-node flooding scenarios.
``trace``
    The trace pipeline: population-workload synthesis, captured network
    runs, trace replay, and JSONL/columnar (de)serialization round trips.
``records``
    The experiment-results pipeline: aggregating a synthetic 100k-record
    sweep through the columnar arenas vs the legacy per-record object
    path, plus ingestion and the ``.npz`` artifact round trip.

Each builder returns fully-constructed :class:`~repro.perf.harness.Benchmark`
closures: inputs are prepared at build time so the timed region contains
only the operation under test.  ``quick=True`` keeps workloads identical
(numbers stay comparable across modes) and only lowers the repeat counts.
"""

from __future__ import annotations

import numpy as np

from repro.perf.harness import Benchmark, BenchResult


def _repeats(quick: bool, full: int, fast: int = 2) -> int:
    return fast if quick else full


# ---------------------------------------------------------------------- suites
def fec_suite(quick: bool = False) -> list[Benchmark]:
    """FEC benchmarks: the 1024-bit decode the acceptance criteria track."""
    from repro.fec.convolutional import ConvolutionalCode, PuncturedConvolutionalCode

    code = ConvolutionalCode()
    punctured = PuncturedConvolutionalCode()
    rng = np.random.default_rng(2022)
    num_data_bits = 506  # (506 + 6 tail) * 2 outputs = 1024 coded bits
    data = rng.integers(0, 2, num_data_bits)
    coded = code.encode(data)
    soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.2, coded.size)
    packet_bits = rng.integers(0, 2, 16)
    packet_coded = punctured.encode(packet_bits).astype(float)

    return [
        Benchmark(
            name="viterbi_decode_1024",
            func=lambda: code.decode(soft, num_data_bits=num_data_bits),
            items_per_call=coded.size,
            unit="coded bits",
            repeats=_repeats(quick, 20, 3),
            metadata={"coded_bits": int(coded.size), "implementation": "vectorized"},
        ),
        Benchmark(
            name="punctured_decode_packet",
            func=lambda: punctured.decode(packet_coded, num_data_bits=16),
            items_per_call=packet_coded.size,
            unit="coded bits",
            repeats=_repeats(quick, 20, 3),
            metadata={"payload_bits": 16, "coded_bits": int(packet_coded.size)},
        ),
        Benchmark(
            name="conv_encode_1024",
            func=lambda: code.encode(data),
            items_per_call=coded.size,
            unit="coded bits",
            repeats=_repeats(quick, 20, 3),
            metadata={"data_bits": num_data_bits},
        ),
    ]


def ofdm_suite(quick: bool = False) -> list[Benchmark]:
    """OFDM modulate/demodulate benchmarks (single symbol and batch)."""
    from repro.core.config import OFDMConfig
    from repro.core.ofdm import OFDMModulator

    config = OFDMConfig()
    modulator = OFDMModulator(config)
    rng = np.random.default_rng(7)
    bins = config.data_bins
    num_symbols = 32
    values = np.exp(2j * np.pi * rng.random((num_symbols, bins.size)))
    waveform = modulator.modulate_many(values, bins, add_cyclic_prefix=True).ravel()

    return [
        Benchmark(
            name="modulate_single_symbol",
            func=lambda: modulator.modulate(values[0], bins, add_cyclic_prefix=True),
            items_per_call=1,
            unit="symbols",
            repeats=_repeats(quick, 30, 3),
            metadata={"bins": int(bins.size)},
        ),
        Benchmark(
            name="modulate_batch",
            func=lambda: modulator.modulate_many(values, bins, add_cyclic_prefix=True),
            items_per_call=num_symbols,
            unit="symbols",
            repeats=_repeats(quick, 30, 3),
            metadata={"symbols": num_symbols, "bins": int(bins.size)},
        ),
        Benchmark(
            name="demodulate_batch",
            func=lambda: modulator.demodulate_many(waveform, num_symbols, bins),
            items_per_call=num_symbols,
            unit="symbols",
            repeats=_repeats(quick, 30, 3),
            metadata={"symbols": num_symbols, "bins": int(bins.size)},
        ),
    ]


def preamble_suite(quick: bool = False) -> list[Benchmark]:
    """Two-stage preamble detection over a noisy capture."""
    from repro.core.preamble import PreambleDetector, PreambleGenerator

    generator = PreambleGenerator()
    detector = PreambleDetector(generator)
    # The generator memoizes its waveforms: detection loops must not pay a
    # fresh OFDM modulation (or even an allocation) per packet.
    template = generator.waveform()
    assert generator.waveform() is template, (
        "PreambleGenerator.waveform must return the cached array"
    )
    assert generator.base_symbol() is generator.base_symbol(), (
        "PreambleGenerator.base_symbol must return the cached array"
    )
    rng = np.random.default_rng(11)
    offset = 1500
    capture = rng.normal(0.0, 0.05, template.size * 3)
    capture[offset:offset + template.size] += template

    return [
        Benchmark(
            name="detect_preamble",
            func=lambda: detector.detect(capture),
            items_per_call=capture.size,
            unit="samples",
            repeats=_repeats(quick, 10, 2),
            metadata={"capture_samples": int(capture.size), "implementation": "fft fast path"},
        ),
        Benchmark(
            name="extract_preamble_symbols",
            func=lambda: detector.extract_symbols(capture, offset),
            items_per_call=generator.num_symbols,
            unit="symbols",
            repeats=_repeats(quick, 30, 3),
            metadata={"symbols": int(generator.num_symbols)},
        ),
    ]


def channel_suite(quick: bool = False) -> list[Benchmark]:
    """Underwater channel propagation of a preamble-sized waveform."""
    from repro.core.preamble import PreambleGenerator
    from repro.environments.factory import build_channel
    from repro.environments.sites import SITE_CATALOG

    channel = build_channel(site=SITE_CATALOG["lake"], distance_m=10.0, seed=3)
    waveform = PreambleGenerator().waveform()

    return [
        Benchmark(
            name="channel_transmit_preamble",
            func=lambda: channel.transmit(waveform, rng=np.random.default_rng(5)),
            items_per_call=waveform.size,
            unit="samples",
            repeats=_repeats(quick, 10, 2),
            metadata={"site": "lake", "distance_m": 10.0, "samples": int(waveform.size),
                      "implementation": "frequency-domain fast path"},
        ),
    ]


def link_suite(quick: bool = False) -> list[Benchmark]:
    """End-to-end protocol exchange throughput (packets per second)."""
    from repro.environments.factory import build_link_pair
    from repro.environments.sites import SITE_CATALOG
    from repro.link.session import LinkSession

    forward, backward = build_link_pair(
        site=SITE_CATALOG["lake"], distance_m=5.0, seed=17
    )
    session = LinkSession(forward, backward, seed=18)
    batch_session = LinkSession(*build_link_pair(
        site=SITE_CATALOG["lake"], distance_m=5.0, seed=17
    ), seed=18)

    return [
        Benchmark(
            name="link_session_packet",
            func=lambda: session.run_packet(rng=np.random.default_rng(19)),
            items_per_call=1,
            unit="packets",
            repeats=_repeats(quick, 10, 2),
            metadata={"site": "lake", "distance_m": 5.0, "scheme": "adaptive"},
        ),
        Benchmark(
            name="link_session_packets_batch",
            func=lambda: batch_session.run_packets(8, rng=np.random.default_rng(19)),
            items_per_call=8,
            unit="packets",
            repeats=_repeats(quick, 5, 1),
            metadata={"site": "lake", "distance_m": 5.0, "scheme": "adaptive",
                      "packets_per_call": 8},
        ),
    ]


def equalizer_suite(quick: bool = False) -> list[Benchmark]:
    """MMSE equalizer fitting: single fits and the batched pipeline."""
    from repro.core.equalizer import MMSEEqualizer

    rng = np.random.default_rng(23)
    training = rng.normal(size=1027)
    reference = rng.normal(size=1027)
    bursts = [rng.normal(size=4135) for _ in range(8)]
    levinson = MMSEEqualizer(num_taps=480)
    batch = MMSEEqualizer(num_taps=480)

    return [
        Benchmark(
            name="equalizer_fit_480",
            func=lambda: levinson.fit(training, reference),
            items_per_call=480,
            unit="taps",
            repeats=_repeats(quick, 20, 3),
            metadata={"taps": 480, "training_samples": 1027, "solver": "levinson"},
        ),
        Benchmark(
            name="equalizer_fit_apply_many_8",
            func=lambda: batch.fit_apply_many(bursts, slice(0, 1027), reference),
            items_per_call=8,
            unit="bursts",
            repeats=_repeats(quick, 10, 2),
            metadata={"taps": 480, "bursts": 8, "burst_samples": 4135},
        ),
    ]


def net_suite(quick: bool = False) -> list[Benchmark]:
    """Network-simulator benchmarks: scheduler churn and full scenarios.

    Scenario benchmarks rebuild the simulator inside the timed region on
    purpose -- a simulator is one-shot, and construction is part of the
    cost a sweep pays per point.
    """
    from repro.experiments.net_scenario import NetScenario
    from repro.net.packet import NetPacket
    from repro.net.routing import GreedyForwarding
    from repro.net.scheduler import Scheduler

    def scheduler_churn() -> None:
        scheduler = Scheduler()
        for index in range(20_000):
            scheduler.at(index * 1e-3, lambda: None)
        scheduler.run()

    fifty_node = NetScenario(
        num_nodes=50, topology="grid", routing="greedy", arq="go-back-n",
        duration_s=300.0, rate_msgs_per_s=0.01, destination="n0", seed=7,
    )
    flooding = NetScenario(
        num_nodes=12, topology="grid", routing="flooding", arq="none",
        traffic="sos", duration_s=90.0, seed=3,
    )
    # The headline scale target of the vectorized engine: 1000 nodes,
    # greedy convergecast to n0, no ARQ.  Pre-vectorization this scenario
    # was minutes; the acceptance bar is single-digit seconds.
    thousand_node = NetScenario(
        num_nodes=1000, topology="grid", routing="greedy", arq="none",
        rate_msgs_per_s=0.01, duration_s=60.0, destination="n0",
        ttl=80, seed=7,
    )
    # The committed 24-flow shared-relay convergecast under the Reno
    # controller (tests/data/net_multiflow_24flow.json): exercises the
    # per-flow controller hooks, adaptive RTO, relay-queue admission and
    # per-flow metrics accounting on every pump.
    multiflow = NetScenario(
        num_nodes=25, topology="grid", routing="greedy", traffic="poisson",
        num_flows=24, cc="reno", rate_msgs_per_s=0.01, duration_s=600.0,
        timeout_s=3.0, max_retries=20, window_size=8, queue_capacity=6,
        seed=1, label="multiflow-24flow",
    )
    # Churn-under-repair: a 24-node grid with seeded node churn and the
    # full resilience response (beacon ticks, topology eviction/re-entry,
    # route recomputation, proactive aborts).  Guards the cost of the
    # fault layer's hot hooks and of repeated routing.prepare calls; the
    # schedule is built inline so the benchmark stays self-contained.
    from repro.faults import ChurnProcess, FaultSchedule

    churn_repair = NetScenario(
        num_nodes=24, topology="grid", routing="shortest-path",
        arq="go-back-n", rate_msgs_per_s=0.03, duration_s=300.0,
        destination="n23", seed=7, label="churn-repair",
    ).with_faults(FaultSchedule(
        churn=ChurnProcess(
            rate_per_node_per_s=0.008, mean_downtime_s=60.0,
            end_s=300.0, seed=42, protect=("n0", "n23"),
        ),
        beacon_interval_s=5.0, miss_threshold=2,
    ))
    # Event-throughput probe: a mid-size ARQ scenario with a fixed event
    # count, reported as events/s so dispatch-layer regressions show up
    # independently of scenario shape.
    throughput_scenario = NetScenario(
        num_nodes=25, topology="grid", routing="greedy", arq="go-back-n",
        duration_s=240.0, rate_msgs_per_s=0.02, destination="n0", seed=13,
    )
    throughput_events = throughput_scenario.run().num_events

    # Micro-benchmark of the greedy hop choice: a vectorized distance
    # sweep + memo against the topology version (hop choices repeat
    # constantly under ARQ traffic, which is exactly what the memo
    # exploits).
    hop_topology = NetScenario(num_nodes=100, topology="grid").build_topology()
    hop_nodes = hop_topology.names
    hop_packet = NetPacket(
        uid=0, kind="raw", source="n1", destination="n0", created_s=0.0
    )
    hop_routing = GreedyForwarding("distance")

    def greedy_hops_vectorized() -> None:
        for node in hop_nodes[1:]:
            hop_routing.next_hops(node, hop_packet, hop_topology)

    return [
        Benchmark(
            name="scheduler_20k_events",
            func=scheduler_churn,
            items_per_call=20_000,
            unit="events",
            repeats=_repeats(quick, 10, 2),
            metadata={"events": 20_000},
        ),
        Benchmark(
            name="net_50node_greedy_calibrated",
            func=lambda: fifty_node.run(),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={"nodes": 50, "routing": "greedy", "link": "calibrated"},
        ),
        Benchmark(
            name="net_12node_flooding_sos",
            func=lambda: flooding.run(),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={"nodes": 12, "routing": "flooding", "traffic": "sos"},
        ),
        Benchmark(
            name="net_multiflow_24flow",
            func=lambda: multiflow.run(),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={
                "nodes": 25, "flows": 24, "cc": "reno",
                "queue_capacity": 6,
            },
        ),
        Benchmark(
            name="net_churn_repair",
            func=lambda: churn_repair.run(),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={
                "nodes": 24, "routing": "shortest-path",
                "churn_rate_per_s": 0.008, "repair": True,
            },
        ),
        Benchmark(
            name="net_1000node_greedy",
            func=lambda: thousand_node.run(),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 5, 1),
            metadata={"nodes": 1000, "routing": "greedy", "arq": "none"},
        ),
        Benchmark(
            name="events_per_second",
            func=lambda: throughput_scenario.run(),
            items_per_call=throughput_events,
            unit="events",
            repeats=_repeats(quick, 10, 2),
            metadata={"nodes": 25, "events_per_run": throughput_events},
        ),
        Benchmark(
            name="greedy_next_hops_vectorized",
            func=greedy_hops_vectorized,
            items_per_call=len(hop_nodes) - 1,
            unit="hop choices",
            repeats=_repeats(quick, 20, 3),
            metadata={
                "nodes": 100, "destination": "n0",
                "implementation": "memoized+vectorized",
            },
        ),
    ]


def trace_suite(quick: bool = False) -> list[Benchmark]:
    """Trace pipeline benchmarks: synthesis, capture, replay, (de)serialization.

    The replay benchmark runs a pre-captured trace through a fresh stack
    each call (simulators are one-shot), so it measures exactly what a
    ``compare_stacks`` side or the CI round-trip smoke pays per replay.
    """
    from repro.experiments.net_scenario import NetScenario
    from repro.trace.capture import capture_scenario
    from repro.trace.events import Trace
    from repro.trace.population import PopulationWorkload, synthesize_trace
    from repro.trace.replay import replay_trace

    scenario = NetScenario(
        num_nodes=16, topology="grid", routing="greedy", arq="go-back-n",
        duration_s=240.0, rate_msgs_per_s=0.02, seed=11,
    )
    workload = PopulationWorkload(
        duration_s=1800.0, base_rate_msgs_per_s=0.05,
        diurnal_period_s=900.0,
    )
    topology = scenario.build_topology()
    population_trace = synthesize_trace(
        workload, topology, seed=11, meta={"scenario": scenario.to_dict()}
    )
    _, captured_trace = capture_scenario(scenario)
    jsonl = captured_trace.dumps()
    columns = population_trace.to_columns()

    return [
        Benchmark(
            name="population_synthesize_16user_1800s",
            func=lambda: synthesize_trace(workload, topology, seed=11),
            items_per_call=len(population_trace.events),
            unit="events",
            repeats=_repeats(quick, 10, 2),
            metadata={"users": 16, "duration_s": 1800.0,
                      "events": int(len(population_trace.events))},
        ),
        Benchmark(
            name="trace_capture_16node_240s",
            func=lambda: capture_scenario(scenario),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={"nodes": 16, "duration_s": 240.0},
        ),
        Benchmark(
            name="trace_replay_16node_240s",
            func=lambda: replay_trace(captured_trace),
            items_per_call=1,
            unit="runs",
            repeats=_repeats(quick, 10, 2),
            metadata={"nodes": 16, "duration_s": 240.0,
                      "sends": int(len(captured_trace.sends()))},
        ),
        Benchmark(
            name="trace_jsonl_roundtrip",
            func=lambda: Trace.loads(captured_trace.dumps()),
            items_per_call=len(captured_trace.events),
            unit="events",
            repeats=_repeats(quick, 20, 3),
            metadata={"events": int(len(captured_trace.events)),
                      "jsonl_bytes": len(jsonl)},
        ),
        Benchmark(
            name="trace_columnar_roundtrip",
            func=lambda: Trace.from_columns(population_trace.to_columns()),
            items_per_call=len(population_trace.events),
            unit="events",
            repeats=_repeats(quick, 20, 3),
            metadata={"events": int(len(population_trace.events)),
                      "arrays": len(columns)},
        ),
    ]


def records_suite(quick: bool = False) -> list[Benchmark]:
    """Result-pipeline benchmarks: columnar arenas vs per-record objects.

    A synthetic 100k-record sweep (200 unique scenarios, 8 packets each)
    is built once at suite-build time; the benchmark pairs then measure
    aggregation, per-record derived metrics, ingestion and the ``.npz``
    artifact round trip on identical data, so the columnar speedup is
    measured against the legacy object path rather than asserted.
    """
    import pathlib
    import tempfile

    from repro.experiments.columnar import ColumnarResultSet
    from repro.experiments.records import ResultSet, RunRecord
    from repro.experiments.scenario import Scenario

    rng = np.random.default_rng(2022)
    n_records = 100_000
    series_len = 8
    n_unique = 200
    base = Scenario(site="lake", num_packets=series_len, seed=0)
    uniques = [base.replace(seed=seed) for seed in range(n_unique)]

    bitrates = rng.uniform(500.0, 3000.0, (n_records, series_len))
    bitrates[rng.random((n_records, series_len)) < 0.05] = np.nan
    starts = rng.uniform(1000.0, 3000.0, (n_records, series_len))
    ends = starts + rng.uniform(500.0, 2000.0, (n_records, series_len))
    snrs = rng.normal(8.0, 4.0, (n_records, series_len))
    flags = rng.random((n_records, series_len)) < 0.9
    pers = rng.random(n_records)
    bers = rng.random(n_records) * 0.2
    delivered = flags.sum(axis=1)

    records = [
        RunRecord(
            scenario=uniques[i % n_unique],
            num_packets=series_len,
            delivered=int(delivered[i]),
            packet_error_rate=float(pers[i]),
            payload_bit_error_rate=float(bers[i]),
            coded_bit_error_rate=float(bers[i]) * 0.5,
            preamble_detection_rate=1.0,
            feedback_error_rate=0.0,
            bitrates_bps=tuple(bitrates[i]),
            band_starts_hz=tuple(starts[i]),
            band_ends_hz=tuple(ends[i]),
            min_band_snrs_db=tuple(snrs[i]),
            delivered_flags=tuple(bool(b) for b in flags[i]),
            elapsed_s=0.01,
        )
        for i in range(n_records)
    ]
    object_set = ResultSet(records)
    columnar_set = ColumnarResultSet(records)
    object_10k = ResultSet(records[:10_000])
    columnar_10k = ColumnarResultSet(records[:10_000])
    npz_path = pathlib.Path(tempfile.mkdtemp(prefix="bench-records-")) / "r.npz"
    columnar_10k.save_npz(npz_path)

    def aggregate_columnar():
        return (
            columnar_set.mean("packet_error_rate"),
            columnar_set.mean("coded_bit_error_rate"),
            columnar_set.sum("delivered"),
            columnar_set.delivery_ratio(),
            float(np.percentile(columnar_set.metric("payload_bit_error_rate"), 95)),
        )

    def aggregate_object():
        per = object_set.metric("packet_error_rate")
        ber = object_set.metric("coded_bit_error_rate")
        got = object_set.metric("delivered")
        offered = object_set.metric("num_packets")
        payload = object_set.metric("payload_bit_error_rate")
        return (
            float(np.mean(per)),
            float(np.mean(ber)),
            float(np.sum(got)),
            float(np.sum(got) / np.sum(offered)),
            float(np.percentile(payload, 95)),
        )

    return [
        Benchmark(
            name="records_aggregate_100k",
            func=aggregate_columnar,
            items_per_call=n_records,
            unit="records",
            repeats=_repeats(quick, 30, 3),
            metadata={"records": n_records, "implementation": "columnar"},
        ),
        Benchmark(
            name="records_aggregate_100k_object",
            func=aggregate_object,
            items_per_call=n_records,
            unit="records",
            repeats=_repeats(quick, 10, 2),
            metadata={"records": n_records, "implementation": "object path"},
        ),
        Benchmark(
            name="records_median_bitrate_10k",
            func=lambda: columnar_10k.metric("median_bitrate_bps"),
            items_per_call=10_000,
            unit="records",
            repeats=_repeats(quick, 20, 3),
            metadata={"records": 10_000, "implementation": "columnar"},
        ),
        Benchmark(
            name="records_median_bitrate_10k_object",
            func=lambda: object_10k.metric("median_bitrate_bps"),
            items_per_call=10_000,
            unit="records",
            repeats=_repeats(quick, 5, 1),
            metadata={"records": 10_000, "implementation": "object path"},
        ),
        Benchmark(
            name="records_ingest_10k",
            func=lambda: ColumnarResultSet(records[:10_000]),
            items_per_call=10_000,
            unit="records",
            repeats=_repeats(quick, 5, 2),
            metadata={"records": 10_000, "unique_scenarios": n_unique},
        ),
        Benchmark(
            name="records_npz_roundtrip_10k",
            func=lambda: ColumnarResultSet.load_npz(columnar_10k.save_npz(npz_path)),
            items_per_call=10_000,
            unit="records",
            repeats=_repeats(quick, 5, 2),
            metadata={"records": 10_000},
        ),
    ]


SUITE_BUILDERS = {
    "fec": fec_suite,
    "ofdm": ofdm_suite,
    "preamble": preamble_suite,
    "channel": channel_suite,
    "equalizer": equalizer_suite,
    "link": link_suite,
    "net": net_suite,
    "trace": trace_suite,
    "records": records_suite,
}


def available_suites() -> tuple[str, ...]:
    """Names of the registered benchmark suites."""
    return tuple(SUITE_BUILDERS)


def build_suite(name: str, quick: bool = False) -> list[Benchmark]:
    """Construct the benchmarks of one suite (inputs included)."""
    try:
        builder = SUITE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        ) from None
    return builder(quick=quick)


def run_suite(name: str, quick: bool = False) -> list[BenchResult]:
    """Build and execute one suite, returning its results."""
    return [benchmark.run(suite=name) for benchmark in build_suite(name, quick=quick)]
