"""Declarative registry of the paper figures the validation harness gates.

A :class:`FigureSpec` encodes one figure as data: which simulation layer
produces it (``kind``), the swept axis and its grid, the fixed
parameters, which metrics are reported and which single *headline*
metric is gated against the committed envelope, plus the absolute
tolerance the gate adds around the envelope interval.

The registry deliberately mirrors the paper's key claims rather than
every panel:

``ber_vs_snr``
    Coded-stream BER (and the in-band SNR that drives it) versus range
    on the adaptive scheme -- the Fig. 8/12 family.
``throughput_vs_distance``
    Delivery-weighted goodput and selected bitrate versus range --
    the Fig. 12/13 family.
``sos_range``
    SoS beacon ID detection rate versus range at the beach site -- the
    section-3 claim that the 10 bps FSK beacon survives 100+ metres.
``net_pdr_vs_hops``
    End-to-end packet delivery ratio versus deployment length on a
    multi-hop line network with ARQ -- the repro.net extension of the
    link-layer claims.
``cc_fairness_vs_load``
    Jain fairness and horizon-normalized goodput versus offered load on
    the 24-flow shared-relay convergecast, under the fixed legacy window
    *and* the Reno controller in the same seeded trial -- the
    goodput-collapse-vs-stability claim of the congestion subsystem.
``resilience_vs_churn``
    Delivery-under-churn and SOS deadline-hit rate versus per-node crash
    rate, with the fault-repair machinery on vs off on the same seeded
    churn -- the resilience claim of the faults subsystem (repair must
    strictly dominate).

Each figure runs as ``trials`` seeded Monte-Carlo repetitions per grid
point; :mod:`repro.validation.montecarlo` owns the execution, this
module owns the specs and the per-kind trial executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.experiments.scenario import ModemSpec, Scenario

#: Seed stride between grid points, so point seeds never collide with the
#: trial index range.  Prime to avoid aliasing against user base seeds.
SEED_STRIDE = 1009


@dataclass(frozen=True)
class TrialOutcome:
    """Raw metric samples produced by one Monte-Carlo trial.

    Attributes
    ----------
    counts:
        ``metric name -> (successes, total)`` Bernoulli counts for
        proportion metrics (pooled across trials by the runner).
    values:
        ``metric name -> value`` for continuous metrics.
    """

    counts: Mapping[str, tuple[int, int]]
    values: Mapping[str, float]


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure as a declarative Monte-Carlo specification.

    Attributes
    ----------
    name:
        Registry key; the committed envelope lives in ``VALID_<name>.json``.
    title:
        Human-readable figure title for reports.
    kind:
        ``"link"`` (scenario sweep through the experiment runner),
        ``"sos"`` (beacon broadcasts) or ``"net"`` (multi-hop runs).
    axis:
        Name of the swept parameter (``"distance_m"``, ``"num_nodes"``).
    values:
        Full grid of axis values.
    quick_values:
        Subset used by ``--quick``; must be a subset of ``values`` so
        quick runs reuse the same per-point seeds as full runs.
    params:
        Fixed parameters of the figure (site, scheme, packets per trial,
        ...); ``quick_*`` keys override their base key in quick mode.
    metrics:
        Metric names included in reports (must be produced by the
        executor of ``kind``).
    headline:
        The single metric gated against the committed envelope.
    tolerance:
        Absolute slack added around the envelope interval by the gate --
        in the headline metric's own units.
    """

    name: str
    title: str
    kind: str
    axis: str
    values: tuple
    quick_values: tuple
    metrics: tuple[str, ...]
    headline: str
    tolerance: float
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("link", "sos", "net", "cc", "faults"):
            raise ValueError(f"unknown figure kind {self.kind!r}")
        if not set(self.quick_values) <= set(self.values):
            raise ValueError(
                f"quick_values of {self.name} must be a subset of values"
            )
        if self.headline not in self.metrics:
            raise ValueError(
                f"headline {self.headline!r} of {self.name} is not in metrics"
            )
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def grid(self, quick: bool = False) -> tuple:
        """Axis values for a run (the quick subset in quick mode)."""
        return self.quick_values if quick else self.values

    def param(self, key: str, quick: bool = False):
        """Fixed parameter, honouring a ``quick_<key>`` override."""
        if quick and f"quick_{key}" in self.params:
            return self.params[f"quick_{key}"]
        return self.params[key]

    def point_seed(self, axis_value, trial: int, base_seed: int = 0) -> int:
        """Deterministic seed of one (grid point, trial) cell.

        Keyed by the value's index in the *full* grid so quick runs
        (which sweep a subset) land on the same seeds as full runs.
        """
        return base_seed + SEED_STRIDE * (self.values.index(axis_value) + 1) + trial


# ------------------------------------------------------------ link executor
def link_scenario(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> Scenario:
    """Build the seeded :class:`Scenario` of one link-figure trial.

    The label deliberately names only the grid cell, not the figure:
    figures sweeping the same grid (``ber_vs_snr`` and
    ``throughput_vs_distance`` read different metrics off identical
    scenarios) then produce identical scenario hashes, so the Monte-Carlo
    runner's record memo and the on-disk cache simulate each cell once.
    """
    return Scenario(
        site=spec.param("site"),
        scheme=spec.param("scheme"),
        num_packets=int(spec.param("num_packets", quick=quick)),
        modem=ModemSpec(),
        seed=spec.point_seed(axis_value, trial, base_seed),
        label=f"mc:{spec.axis}={axis_value:g}#{trial}",
        **{spec.axis: axis_value},
    )


def link_outcome(record) -> TrialOutcome:
    """Extract metric samples from one link trial's :class:`RunRecord`.

    Bit totals are reconstructed from the protocol configuration (every
    packet of a scenario carries the same payload, and failed packets
    count all their bits as errors, exactly as ``LinkStatistics`` does),
    so Wilson intervals for the BER metrics run over genuine bit counts.
    """
    import math

    from repro.core.config import ProtocolConfig
    from repro.fec.convolutional import PuncturedConvolutionalCode

    scenario = record.scenario
    payload_bits = scenario.modem.payload_bits
    # Same code parameters as DataDecoder (ModemSpec keeps the protocol's
    # constraint length), so the reconstructed totals track any future
    # ProtocolConfig change instead of silently desynchronizing.
    code = PuncturedConvolutionalCode(
        constraint_length=ProtocolConfig().constraint_length
    )
    coded_per_packet = code.coded_length(payload_bits)
    packets = record.num_packets
    packet_errors = packets - record.delivered
    total_coded = packets * coded_per_packet
    total_payload = packets * payload_bits
    coded_errors = round(record.coded_bit_error_rate * total_coded)
    payload_errors = round(record.payload_bit_error_rate * total_payload)
    detections = round(record.preamble_detection_rate * packets)

    median_bps = record.median_bitrate_bps
    goodput = (
        median_bps * (1.0 - packet_errors / packets)
        if math.isfinite(median_bps)
        else float("nan")
    )
    snrs = [s for s in record.min_band_snrs_db if math.isfinite(s)]
    return TrialOutcome(
        counts={
            "per": (packet_errors, packets),
            "coded_ber": (coded_errors, total_coded),
            "payload_ber": (payload_errors, total_payload),
            "detection_rate": (detections, packets),
        },
        values={
            "median_bitrate_bps": median_bps,
            "goodput_bps": goodput,
            "min_band_snr_db": sum(snrs) / len(snrs) if snrs else float("nan"),
        },
    )


# ------------------------------------------------------------- sos executor
def run_sos_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> TrialOutcome:
    """Run one SoS-figure trial: repeated beacon broadcasts at one range."""
    from repro.app.sos import SosBeaconService
    from repro.environments.factory import build_channel
    from repro.environments.sites import SITE_CATALOG

    seed = spec.point_seed(axis_value, trial, base_seed)
    repetitions = int(spec.param("repetitions", quick=quick))
    user_id = int(spec.param("user_id"))
    channel = build_channel(
        site=SITE_CATALOG[spec.param("site")], distance_m=float(axis_value), seed=seed
    )
    service = SosBeaconService(
        channel, bit_rate_bps=int(spec.param("rate_bps")), seed=seed + 1
    )
    receptions = service.broadcast_many(user_id, repetitions)
    correct = sum(r.user_id == user_id for r in receptions)
    bit_errors = sum(r.bit_errors for r in receptions)
    confidence = sum(r.mean_confidence_db for r in receptions) / repetitions
    return TrialOutcome(
        counts={
            "id_detection_rate": (correct, repetitions),
            "sos_bit_error_rate": (bit_errors, 6 * repetitions),
        },
        values={"mean_confidence_db": confidence},
    )


# ------------------------------------------------------------- net executor
def run_net_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> TrialOutcome:
    """Run one network-figure trial: a full multi-hop simulation."""
    from repro.experiments.net_scenario import NetScenario

    num_nodes = int(axis_value)
    destination = spec.param("destination")
    if destination == "last":
        destination = f"n{num_nodes - 1}"
    scenario = NetScenario(
        site=spec.param("site"),
        topology=spec.param("topology"),
        num_nodes=num_nodes,
        spacing_m=float(spec.param("spacing_m")),
        comm_range_m=float(spec.param("comm_range_m")),
        routing=spec.param("routing"),
        link=spec.param("link"),
        arq=spec.param("arq"),
        traffic=spec.param("traffic"),
        rate_msgs_per_s=float(spec.param("rate_msgs_per_s")),
        duration_s=float(spec.param("duration_s", quick=quick)),
        destination=destination,
        seed=spec.point_seed(axis_value, trial, base_seed),
        label=f"{spec.name}@{axis_value}#{trial}",
    )
    result = scenario.run()
    metrics = result.metrics
    return TrialOutcome(
        counts={"pdr": (metrics.delivered, metrics.offered)},
        values={
            "mean_latency_s": metrics.mean_latency_s,
            "mean_hop_count": metrics.mean_hop_count,
        },
    )


# -------------------------------------------------------------- cc executor
def run_cc_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> TrialOutcome:
    """Run one congestion-control trial: fixed vs Reno on the same seed.

    Both controllers replay the identical seeded scenario (same topology,
    traffic arrivals and link draws schedule-permitting), so the paired
    metrics isolate the controller's effect.  Goodputs are normalized to
    the *longer* of the two run durations: a fixed-window run drains fast
    by aborting starved flows while Reno keeps pacing its backlog, and
    dividing each by its own duration would reward giving up early.
    """
    from repro.experiments.net_scenario import NetScenario

    scenario = NetScenario(
        site=spec.param("site"),
        topology=spec.param("topology"),
        num_nodes=int(spec.param("num_nodes")),
        spacing_m=float(spec.param("spacing_m")),
        comm_range_m=float(spec.param("comm_range_m")),
        routing=spec.param("routing"),
        link=spec.param("link"),
        arq=spec.param("arq"),
        window_size=int(spec.param("window_size")),
        timeout_s=float(spec.param("timeout_s")),
        max_retries=int(spec.param("max_retries")),
        num_flows=int(spec.param("num_flows")),
        queue_capacity=int(spec.param("queue_capacity")),
        traffic=spec.param("traffic"),
        rate_msgs_per_s=float(axis_value),
        duration_s=float(spec.param("duration_s", quick=quick)),
        seed=spec.point_seed(axis_value, trial, base_seed),
        label=f"{spec.name}@{axis_value}#{trial}",
    )
    results = {cc: scenario.replace(cc=cc).run() for cc in ("fixed", "reno")}
    horizon_s = max(result.duration_s for result in results.values())
    counts = {}
    values = {}
    for cc, result in results.items():
        metrics = result.metrics
        counts[f"pdr_{cc}"] = (metrics.delivered, metrics.offered)
        values[f"jain_{cc}"] = metrics.jain_fairness()
        delivered_bits = float(metrics.flow_delivered_bits().sum())
        values[f"goodput_{cc}_bps"] = delivered_bits / horizon_s
        values[f"retransmissions_{cc}"] = float(result.total_retransmissions)
    return TrialOutcome(counts=counts, values=values)


# ---------------------------------------------------------- faults executor
def run_faults_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> TrialOutcome:
    """Run one resilience trial: the same churn with repair on vs off.

    Both legs replay the identical seeded scenario and the identical
    expanded churn schedule; only the repair policy differs, so the
    paired metrics isolate the resilience machinery's effect.  Each leg
    runs twice -- a unicast data workload for delivery-under-churn and
    an SOS broadcast workload for deadline hits (an SOS that arrives
    after the deadline is counted as missed even though it was
    eventually delivered: a rescue that comes too late).
    """
    from repro.experiments.net_scenario import NetScenario
    from repro.faults import ChurnProcess, FaultSchedule

    seed = spec.point_seed(axis_value, trial, base_seed)
    duration = float(spec.param("duration_s", quick=quick))
    destination = spec.param("destination")
    deadline = float(spec.param("sos_deadline_s"))
    churn = ChurnProcess(
        rate_per_node_per_s=float(axis_value),
        mean_downtime_s=float(spec.param("mean_downtime_s")),
        end_s=duration,
        seed=seed + 17,
        # The SOS source and the data sink survive every trial, so the
        # A/B measures repair quality rather than endpoint luck.
        protect=("n0", destination),
    )
    base = NetScenario(
        site=spec.param("site"),
        topology=spec.param("topology"),
        num_nodes=int(spec.param("num_nodes")),
        spacing_m=float(spec.param("spacing_m")),
        comm_range_m=float(spec.param("comm_range_m")),
        routing=spec.param("routing"),
        link=spec.param("link"),
        arq=spec.param("arq"),
        traffic="poisson",
        rate_msgs_per_s=float(spec.param("rate_msgs_per_s")),
        duration_s=duration,
        destination=destination,
        seed=seed,
        label=f"{spec.name}@{axis_value}#{trial}",
    )
    counts: dict[str, tuple[int, int]] = {}
    values: dict[str, float] = {}
    for tag, repair in (("repair", True), ("norepair", False)):
        schedule = FaultSchedule(
            churn=churn,
            repair=repair,
            beacon_interval_s=float(spec.param("beacon_interval_s")),
            miss_threshold=int(spec.param("miss_threshold")),
        )
        data = base.with_faults(schedule).run().metrics
        counts[f"pdr_{tag}"] = (data.delivered, data.offered)
        if repair:
            values["mean_time_to_repair_s"] = data.mean_time_to_repair_s
        sos = (
            base.replace(traffic="sos", arq="none", destination=None)
            .with_faults(schedule)
            .run()
            .metrics
        )
        hits = sum(1 for record in sos.records if record.latency_s <= deadline)
        counts[f"sos_hit_{tag}"] = (hits, sos.offered)
    return TrialOutcome(counts=counts, values=values)


# ---------------------------------------------------------------- registry
FIGURE_REGISTRY: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="ber_vs_snr",
            title="Coded BER vs in-band SNR (adaptive, lake, range sweep)",
            kind="link",
            axis="distance_m",
            values=(5.0, 10.0, 20.0, 30.0),
            quick_values=(5.0, 20.0),
            metrics=("coded_ber", "per", "detection_rate", "min_band_snr_db"),
            headline="coded_ber",
            tolerance=0.06,
            params={
                "site": "lake",
                "scheme": "adaptive",
                "num_packets": 10,
                "quick_num_packets": 4,
            },
        ),
        FigureSpec(
            name="throughput_vs_distance",
            title="Goodput vs distance (adaptive, lake)",
            kind="link",
            axis="distance_m",
            values=(5.0, 10.0, 20.0, 30.0),
            quick_values=(5.0, 20.0),
            metrics=("goodput_bps", "median_bitrate_bps", "per"),
            headline="goodput_bps",
            tolerance=120.0,
            params={
                "site": "lake",
                "scheme": "adaptive",
                "num_packets": 10,
                "quick_num_packets": 4,
            },
        ),
        FigureSpec(
            name="sos_range",
            title="SoS beacon ID detection vs range (beach, 10 bps FSK)",
            kind="sos",
            axis="distance_m",
            values=(40.0, 80.0, 110.0),
            quick_values=(40.0, 110.0),
            metrics=("id_detection_rate", "sos_bit_error_rate", "mean_confidence_db"),
            headline="id_detection_rate",
            tolerance=0.15,
            params={
                "site": "beach",
                "rate_bps": 10,
                "user_id": 27,
                "repetitions": 6,
                "quick_repetitions": 3,
            },
        ),
        FigureSpec(
            name="net_pdr_vs_hops",
            title="End-to-end PDR vs line-deployment length (multi-hop, ARQ)",
            kind="net",
            axis="num_nodes",
            values=(3, 5, 7),
            quick_values=(3, 5),
            metrics=("pdr", "mean_latency_s", "mean_hop_count"),
            headline="pdr",
            tolerance=0.15,
            params={
                "site": "lake",
                "topology": "line",
                "spacing_m": 6.0,
                "comm_range_m": 8.0,
                "routing": "shortest-path",
                "link": "calibrated",
                "arq": "go-back-n",
                "traffic": "cbr",
                "rate_msgs_per_s": 0.05,
                "duration_s": 120.0,
                "quick_duration_s": 60.0,
                "destination": "last",
            },
        ),
        FigureSpec(
            name="cc_fairness_vs_load",
            title="Jain fairness & goodput vs offered load "
                  "(24-flow convergecast, fixed vs Reno)",
            kind="cc",
            axis="rate_msgs_per_s",
            values=(0.005, 0.01, 0.02),
            quick_values=(0.01,),
            metrics=(
                "jain_reno", "jain_fixed",
                "goodput_reno_bps", "goodput_fixed_bps",
                "pdr_reno", "pdr_fixed",
                "retransmissions_reno", "retransmissions_fixed",
            ),
            headline="jain_reno",
            tolerance=0.15,
            params={
                "site": "lake",
                "topology": "grid",
                "num_nodes": 25,
                "spacing_m": 8.0,
                "comm_range_m": 12.0,
                "routing": "greedy",
                "link": "calibrated",
                "arq": "go-back-n",
                "window_size": 8,
                "timeout_s": 3.0,
                "max_retries": 20,
                "num_flows": 24,
                "queue_capacity": 6,
                "traffic": "poisson",
                "duration_s": 600.0,
                "quick_duration_s": 300.0,
            },
        ),
        FigureSpec(
            name="resilience_vs_churn",
            title="Delivery & SOS deadline hits vs churn rate "
                  "(repair on vs off, 25-node grid)",
            kind="faults",
            axis="churn_rate_per_s",
            values=(0.004, 0.008, 0.016),
            quick_values=(0.008,),
            metrics=(
                "pdr_repair", "pdr_norepair",
                "sos_hit_repair", "sos_hit_norepair",
                "mean_time_to_repair_s",
            ),
            headline="pdr_repair",
            tolerance=0.15,
            params={
                "site": "lake",
                "topology": "grid",
                "num_nodes": 25,
                "spacing_m": 8.0,
                "comm_range_m": 12.0,
                "routing": "shortest-path",
                "link": "calibrated",
                "arq": "go-back-n",
                "rate_msgs_per_s": 0.03,
                "duration_s": 600.0,
                "quick_duration_s": 300.0,
                # Outages (mean 120 s) are long against the 10 s
                # detection delay (5 s beacons x 2 misses), so most of
                # each outage is exploitable by repair; the 90 s SOS
                # deadline spans three 30 s broadcast periods, leaving
                # room for a recovery re-flood to still count as a hit.
                "destination": "n24",
                "mean_downtime_s": 120.0,
                "beacon_interval_s": 5.0,
                "miss_threshold": 2,
                "sos_deadline_s": 90.0,
            },
        ),
    )
}


def available_figures() -> tuple[str, ...]:
    """Registered figure names, sorted."""
    return tuple(sorted(FIGURE_REGISTRY))


def get_figure(name: str) -> FigureSpec:
    """Look up a figure spec, with a helpful error for typos."""
    try:
        return FIGURE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; known: {', '.join(available_figures())}"
        ) from None
