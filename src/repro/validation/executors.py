"""Per-kind Monte-Carlo trial executors of the figure registry.

An executor runs one seeded trial of a :class:`~repro.validation.\
figures.FigureSpec` at one axis value and returns a :class:`TrialOutcome`
of Bernoulli counts and continuous values; :data:`EXECUTORS` maps each
spec ``kind`` to its executor.  The Monte-Carlo runner calls it once per
(axis value, trial, variant), handing it the spec with the variant's
parameters merged in, so executors never see variants; every kind runs
the same way, in process or in a worker of the runner's pool.

``link`` trials run one :class:`~repro.experiments.Scenario` each;
``sos``, ``net``, ``cc`` and ``faults`` run beacon broadcasts and network
simulations.  The rest measure what is not a link, beacon or network
run: the probed channel response (``response``, ``reciprocity``,
``case``), ambient noise (``noise``), per-subcarrier BER against SNR
(``bins``), second-preamble stability (``stability``), the carrier-sense
MAC (``mac``), protocol airtime (``airtime``) and the band-selection
parameters no :class:`~repro.experiments.ModemSpec` field expresses
(``protocol``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.config import SAMPLE_RATE_HZ, OFDMConfig, ProtocolConfig
from repro.experiments.records import RunRecord
from repro.experiments.scenario import Scenario

if TYPE_CHECKING:
    from repro.validation.figures import FigureSpec

_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)} - {"seed", "label"}


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


# ------------------------------------------------------------ link executor
def link_scenario(
    spec: FigureSpec, axis_value, trial: int, base_seed: int = 0, quick: bool = False
) -> Scenario:
    """Build the seeded :class:`Scenario` of one link-figure trial.

    Every parameter of the spec (or of its variant) that names a
    :class:`Scenario` field is passed through -- ``site``, ``scheme``,
    ``num_packets``, ``modem``, depths, motion, devices, case.  The label
    names the grid cell.
    """
    fields = {
        key: spec.param(key, quick=quick)
        for key in spec.params
        if key in _SCENARIO_FIELDS
    }
    return Scenario(
        **fields,
        seed=spec.point_seed(axis_value, trial, base_seed),
        label=f"mc:{spec.axis}={axis_value:g}#{trial}",
        **{spec.axis: axis_value},
    )


#: Percentiles of the selected-bitrate CDF panels (Figs. 9a, 10a, 11, 12a,
#: 14a, 15a, 17a/b) a link trial reports besides its median, as
#: ``bitrate_p<p>_bps``.
BITRATE_PERCENTILES = (10, 25, 75, 90)


def link_outcome(record: RunRecord) -> TrialOutcome:
    """Extract metric samples from one link trial's :class:`RunRecord`.

    Bit totals are reconstructed from the protocol configuration (every
    packet of a scenario carries the same payload, and failed packets
    count all their bits as errors, exactly as ``LinkStatistics`` does),
    so Wilson intervals for the BER metrics run over genuine bit counts.
    The selected-bitrate percentiles and the median band edges are the
    trial's own (over its packets with a known band); the runner reports
    their trial mean.
    """
    from repro.fec.convolutional import PuncturedConvolutionalCode

    scenario = record.scenario
    payload_bits = scenario.modem.payload_bits
    # The code DataDecoder runs, so the reconstructed totals track it.
    coded_per_packet = PuncturedConvolutionalCode().coded_length(payload_bits)
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
    # A band spans its edge bins: (end - start) / spacing + 1 subcarriers.
    spacing = scenario.modem.subcarrier_spacing_hz or OFDMConfig().subcarrier_spacing_hz
    widths = [
        end - start + spacing
        for start, end in zip(record.band_starts_hz, record.band_ends_hz)
        if math.isfinite(start)
    ]
    band_start_hz, band_end_hz = record.median_band_edges_hz()
    cdf = record.bitrate_percentiles(BITRATE_PERCENTILES)
    return TrialOutcome(
        counts={
            "per": (packet_errors, packets),
            "coded_ber": (coded_errors, total_coded),
            "payload_ber": (payload_errors, total_payload),
            "detection_rate": (detections, packets),
            "feedback_error_rate": (
                round(record.feedback_error_rate * packets), packets
            ),
        },
        values={
            "median_bitrate_bps": median_bps,
            "goodput_bps": goodput,
            "min_band_snr_db": sum(snrs) / len(snrs) if snrs else float("nan"),
            "band_width_hz": float(np.median(widths)) if widths else float("nan"),
            "band_start_hz": band_start_hz,
            "band_end_hz": band_end_hz,
            **{
                f"bitrate_p{p}_bps": float(value)
                for p, value in zip(BITRATE_PERCENTILES, cdf)
            },
        },
    )


def run_link_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Run one link-figure trial: the cell's :class:`Scenario`, whole."""
    scenario = link_scenario(spec, axis_value, trial, base_seed, quick)
    return link_outcome(RunRecord.from_statistics(scenario, scenario.run()))


# ------------------------------------------------------------- sos executor
def run_sos_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
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


# ------------------------------------------------------- network executors
def _net_scenario(spec: FigureSpec, axis_value, trial: int, base_seed: int,
                  quick: bool, **fields):
    """Build the seeded :class:`NetScenario` of one network-figure trial.

    As in :func:`link_scenario`, every spec parameter that names a
    :class:`NetScenario` field is passed through; ``fields`` (the axis
    value, or what the executor derives) override them.
    """
    from repro.experiments.net_scenario import NetScenario

    names = {f.name for f in dataclasses.fields(NetScenario)}
    params = {key: spec.param(key, quick=quick) for key in spec.params if key in names}
    return NetScenario(
        **{**params, **fields},
        seed=spec.point_seed(axis_value, trial, base_seed),
        label=f"{spec.name}@{axis_value}#{trial}",
    )


def run_net_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Run one network-figure trial: a full multi-hop simulation."""
    num_nodes = int(axis_value)
    destination = spec.param("destination")
    if destination == "last":
        destination = f"n{num_nodes - 1}"
    metrics = _net_scenario(
        spec, axis_value, trial, base_seed, quick,
        num_nodes=num_nodes, destination=destination,
    ).run().metrics
    return TrialOutcome(
        counts={"pdr": (metrics.delivered, metrics.offered)},
        values={
            "mean_latency_s": metrics.mean_latency_s,
            "mean_hop_count": metrics.mean_hop_count,
        },
    )


def run_cc_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Run one congestion-control trial: fixed vs Reno on the same seed.

    Both controllers replay the identical seeded scenario (same topology,
    traffic arrivals and link draws schedule-permitting), so the paired
    metrics isolate the controller's effect.  Goodputs are normalized to
    the *longer* of the two run durations: a fixed-window run drains fast
    by aborting starved flows while Reno keeps pacing its backlog, and
    dividing each by its own duration would reward giving up early.
    """
    scenario = _net_scenario(
        spec, axis_value, trial, base_seed, quick, rate_msgs_per_s=float(axis_value)
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


def run_faults_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
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
    base = _net_scenario(spec, axis_value, trial, base_seed, quick, traffic="poisson")
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


# -------------------------------------------------------- channel response
def _chirp_response(send, low_hz, high_hz, duration_s, step_hz):
    """Probe a channel with an LFM chirp; ``send(chirp)`` returns what the
    far end records.  Returns ``(probe frequencies, response dB)``."""
    from repro.dsp.chirp import lfm_chirp
    from repro.dsp.spectrum import frequency_response_from_probe

    chirp = lfm_chirp(low_hz, high_hz, duration_s, SAMPLE_RATE_HZ)
    freqs = np.arange(low_hz, high_hz, step_hz)
    return freqs, frequency_response_from_probe(chirp, send(chirp), SAMPLE_RATE_HZ, freqs)


def _catalog_channel(spec: FigureSpec, distance_m: float, seed: int, **kwargs):
    """The spec's underwater channel (site and devices by catalog key)."""
    from repro.devices.models import DEVICE_CATALOG
    from repro.environments.factory import build_channel
    from repro.environments.sites import SITE_CATALOG

    return build_channel(
        site=SITE_CATALOG[spec.param("site")],
        distance_m=float(distance_m),
        tx_device=DEVICE_CATALOG[spec.param("tx_device")],
        rx_device=DEVICE_CATALOG[spec.param("rx_device")],
        seed=seed,
        **kwargs,
    )


def run_response_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Figs. 3a/b: a 1-5 kHz chirp through one device pair's channel.

    Reports the mean 1-4 kHz gain, its peak-to-trough swing (frequency
    selectivity), the frequency of the deepest in-band notch and the
    roll-off of the response above 4 kHz.
    """
    seed = spec.point_seed(axis_value, trial, base_seed)
    channel = _catalog_channel(spec, axis_value, seed)
    freqs, response = _chirp_response(
        lambda x: channel.transmit(x, rng=seed + 1).samples, 1000.0, 5000.0, 0.5, 50.0
    )
    in_band = response[freqs < 4000.0]
    return TrialOutcome(counts={}, values={
        "gain_db": float(in_band.mean()),
        "swing_db": float(in_band.max() - in_band.min()),
        "notch_hz": float(freqs[np.argmin(in_band)]),
        "rolloff_db": float(response[freqs >= 4000.0].mean() - in_band.mean()),
    })


def run_reciprocity_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Figs. 3c/d: forward vs backward response, in air and underwater.

    A 1-3 kHz chirp probes both directions of one S9 pair; the metric is
    the mean absolute forward/backward difference of the responses.
    """
    from repro.channel.air import InAirChannel

    seed = spec.point_seed(axis_value, trial, base_seed)
    air = InAirChannel(distance_m=float(axis_value))
    water = _catalog_channel(spec, axis_value, seed)
    air_back, water_back = air.reverse(), water.reverse(seed=seed + 1)
    probes = {
        "air": (lambda x: air.transmit(x, SAMPLE_RATE_HZ, rng=seed + 2),
                lambda x: air_back.transmit(x, SAMPLE_RATE_HZ, rng=seed + 3)),
        "water": (lambda x: water.transmit(x, rng=seed + 2).samples,
                  lambda x: water_back.transmit(x, rng=seed + 3).samples),
    }
    values = {}
    for medium, sends in probes.items():
        (_, fwd), (_, bwd) = (
            _chirp_response(send, 1000.0, 3000.0, 1.0, 25.0) for send in sends
        )
        values[f"mismatch_{medium}_db"] = float(np.abs(fwd - bwd).mean())
    return TrialOutcome(counts={}, values=values)


def run_case_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Fig. 18: one link probed with the pouch's air expelled vs air-filled.

    Both cases share the seeded channel; the metrics are the difference
    of the mean 1-4 kHz power and the largest pointwise difference.
    """
    from repro.devices.case import AIR_FILLED_POUCH, SOFT_POUCH

    seed = spec.point_seed(axis_value, trial, base_seed)
    responses = []
    for index, case in enumerate((SOFT_POUCH, AIR_FILLED_POUCH)):
        channel = _catalog_channel(spec, axis_value, seed, tx_case=case, rx_case=case)
        responses.append(_chirp_response(
            lambda x: channel.transmit(x, rng=seed + 1 + index).samples,
            1000.0, 4000.0, 0.5, 50.0,
        )[1])
    expelled, filled = responses
    return TrialOutcome(counts={}, values={
        "mean_difference_db": float(abs(expelled.mean() - filled.mean())),
        "max_difference_db": float(np.max(np.abs(expelled - filled))),
    })


# ------------------------------------------------------------ ambient noise
def run_noise_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Fig. 4: ``axis_value`` seconds of a site's ambient noise as one
    device's microphone hears it.

    Levels are power *densities* (dB per Hz) below 1 kHz, in 1-4.5 kHz
    and above 6 kHz: the paper plots amplitude against frequency, so
    bands of different widths compare by density, not total power.
    """
    from repro.devices.models import DEVICE_CATALOG
    from repro.dsp.spectrum import band_power_db
    from repro.environments.factory import build_noise_model
    from repro.environments.sites import SITE_CATALOG

    seed = spec.point_seed(axis_value, trial, base_seed)
    raw = build_noise_model(SITE_CATALOG[spec.param("site")]).generate(
        int(float(axis_value) * SAMPLE_RATE_HZ), SAMPLE_RATE_HZ, rng=seed
    )
    heard = DEVICE_CATALOG[spec.param("device")].microphone_response.apply(
        raw, SAMPLE_RATE_HZ
    )

    def density(low_hz: float, high_hz: float) -> float:
        power = band_power_db(heard, SAMPLE_RATE_HZ, low_hz, high_hz)
        return float(power - 10.0 * np.log10(high_hz - low_hz))

    return TrialOutcome(counts={}, values={
        "below_1k_db": density(100.0, 1000.0),
        "band_1k_4k5_db": density(1000.0, 4500.0),
        "above_6k_db": density(6000.0, 12000.0),
    })


# ------------------------------------------------------ per-bin BER vs SNR
#: SNR bucket edges (dB) of Fig. 8's per-subcarrier BER curve.
SNR_BUCKETS_DB = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


def run_bins_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Fig. 8: uncoded BER per subcarrier, bucketed by that subcarrier's SNR.

    Bursts of ``axis_value`` payload bits are coded onto all 60
    subcarriers with interleaving off (coded bit ``i`` rides bin
    ``i mod 60``) at each of the spec's distances; each bin's errors are
    filed under the SNR the preamble measured for it.  A bucket counts
    once it holds 50 bits; the metrics are the BER of the lowest- and the
    highest-SNR populated bucket, each beside the theoretical BPSK BER
    ``Q(sqrt(2 SNR))`` at that bucket's centre.  Raises when fewer than
    three buckets are populated: the trial then has no curve to speak of.
    """
    from repro.analysis.ber import bpsk_ber_theoretical
    from repro.core.adaptation import selection_from_bins
    from repro.core.modem import AquaModem
    from repro.environments.factory import build_link_pair
    from repro.environments.sites import SITE_CATALOG

    seed = spec.point_seed(axis_value, trial, base_seed)
    payload_bits = int(axis_value)
    modem = AquaModem(use_interleaving=False)
    config = modem.ofdm_config
    band = selection_from_bins(config.first_data_bin, config.last_data_bin, config)
    silence = np.zeros(2 * config.extended_symbol_length)
    header = modem.build_preamble_and_header(1)
    edges = np.asarray(SNR_BUCKETS_DB)
    errors = np.zeros(edges.size - 1)
    bits = np.zeros(edges.size - 1)
    for index, distance in enumerate(spec.param("distances_m")):
        forward, _ = build_link_pair(
            site=SITE_CATALOG[spec.param("site")], distance_m=distance, seed=seed + index
        )
        rng = np.random.default_rng(seed + 100 + index)
        for _ in range(int(spec.param("packets", quick=quick))):
            forward.randomize(rng)
            payload = rng.integers(0, 2, payload_bits)
            burst = modem.encoder.encode(payload, band)
            waveform = np.concatenate([header.waveform, silence, burst.waveform])
            received = modem.filter_received(forward.transmit(waveform, rng).samples)
            detection = modem.detect_preamble(received)
            if not detection.detected:
                continue
            snr = modem.estimate_snr(received, detection.start_index).snr_db
            data_start = (detection.start_index + modem.preamble_generator.total_length
                          + config.extended_symbol_length + silence.size)
            try:
                decoded = modem.decoder.decode(
                    received[data_start:], band, payload_bits, apply_bandpass=False
                )
            except ValueError:
                continue
            wrong = decoded.hard_coded_bits != modem.decoder.coded_reference_bits(payload)
            bins = np.arange(wrong.size) % band.num_bins
            bucket = np.digitize(snr[bins], edges) - 1
            inside = (bucket >= 0) & (bucket < errors.size)
            np.add.at(errors, bucket[inside], wrong[inside])
            np.add.at(bits, bucket[inside], 1)
    populated = np.flatnonzero(bits >= 50)
    if populated.size < 3:
        raise ValueError(
            f"{spec.name}: only {populated.size} SNR buckets hold 50 bits; need 3"
        )
    low, high = populated[0], populated[-1]
    centres_db = (edges[:-1] + edges[1:]) / 2.0
    return TrialOutcome(
        counts={
            "ber_lowest_snr": (int(errors[low]), int(bits[low])),
            "ber_highest_snr": (int(errors[high]), int(bits[high])),
        },
        values={
            "bpsk_ber_lowest_snr": bpsk_ber_theoretical(centres_db[low]),
            "bpsk_ber_highest_snr": bpsk_ber_theoretical(centres_db[high]),
            "lowest_snr_db": float(edges[low]),
            "highest_snr_db": float(edges[high]),
            "buckets": float(populated.size),
        },
    )


# ----------------------------------------------- second-preamble stability
def run_stability_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Fig. 16: min SNR in the band picked from one preamble, re-measured
    with a second preamble one feedback interval later.

    Each probe redraws the channel realization.  Reports the mean, the
    worst and the spread of the probes, and the share below the spec's
    reference line (4 dB, about 1% BER).  Raises when no probe of the
    trial detected both preambles.
    """
    from repro.channel.motion import MOTION_PRESETS
    from repro.environments.factory import build_link_pair
    from repro.environments.sites import SITE_CATALOG
    from repro.link.session import LinkSession

    seed = spec.point_seed(axis_value, trial, base_seed)
    forward, backward = build_link_pair(
        site=SITE_CATALOG[spec.param("site")],
        distance_m=float(axis_value),
        motion=MOTION_PRESETS[spec.param("motion")],
        seed=seed,
    )
    session = LinkSession(forward, backward, seed=seed)
    probes = []
    for index in range(int(spec.param("probes", quick=quick))):
        forward.randomize(np.random.default_rng(seed * 1000 + index))
        value = session.probe_channel_stability()
        if np.isfinite(value):
            probes.append(value)
    if not probes:
        raise ValueError(f"{spec.name}: no stability probe detected both preambles")
    probes = np.asarray(probes)
    below = int(np.count_nonzero(probes < float(spec.param("reference_db"))))
    return TrialOutcome(
        counts={"below_reference": (below, probes.size)},
        values={
            "probe_mean_db": float(probes.mean()),
            "probe_min_db": float(probes.min()),
            "probe_std_db": float(probes.std()),
        },
    )


# ---------------------------------------------------------------------- mac
def run_mac_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Fig. 19: ``axis_value`` backlogged transmitters, 5-10 m from one
    receiver, with or without carrier sense (the ``carrier_sense`` param)."""
    from repro.mac.simulator import MacNetworkSimulator, TransmitterConfig

    transmitters = [
        TransmitterConfig(
            name=f"tx{index}",
            distance_to_receiver_m=5.0 + 2.5 * index,
            num_packets=int(spec.param("packets_per_tx", quick=quick)),
        )
        for index in range(int(axis_value))
    ]
    simulator = MacNetworkSimulator(
        transmitters, carrier_sense=bool(spec.param("carrier_sense"))
    )
    result = simulator.run(seed=spec.point_seed(axis_value, trial, base_seed))
    return TrialOutcome(
        counts={"collided": (result.num_collided, result.num_packets)}, values={}
    )


# ------------------------------------------------------------------ airtime
def run_airtime_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Section 5: messaging latency and protocol airtime (deterministic).

    A hand signal is 8 bits, 12 after coding; a 50-character message is
    400 bits; a packet carries ``axis_value`` payload bits.
    """
    from repro.core.rates import coded_bitrate_bps, message_latency_s, packet_airtime_s

    payload_bits = int(axis_value)
    return TrialOutcome(counts={}, values={
        "hand_signal_25bps_s": message_latency_s(12, 25.0),
        "hand_signal_133bps_s": message_latency_s(12, 133.3),
        "two_signals_633bps_s": message_latency_s(24, 633.3),
        "text_50char_1kbps_s": message_latency_s(400, 1000.0),
        "airtime_60bins_s": packet_airtime_s(payload_bits, 60),
        "airtime_4bins_s": packet_airtime_s(payload_bits, 4),
        "sos_beacon_10bps_s": message_latency_s(6, 10.0),
        "bitrate_60bins_bps": coded_bitrate_bps(60),
    })


# ----------------------------------------------------------------- protocol
def run_protocol_trial(
    spec: FigureSpec, axis_value, trial: int, base_seed: int, quick: bool
) -> TrialOutcome:
    """Band-selection ablation: a link trial under the spec's SNR
    threshold and conservative factor, which no ``ModemSpec`` field
    expresses, so the trial builds its own modem for the scenario."""
    from repro.core.modem import AquaModem

    scenario = link_scenario(spec, axis_value, trial, base_seed, quick)
    protocol = ProtocolConfig(
        snr_threshold_db=float(spec.param("snr_threshold_db")),
        conservative_lambda=float(spec.param("conservative_lambda")),
    )
    session = scenario.build_session(modem=AquaModem(protocol_config=protocol))
    stats = session.run_packets(scenario.num_packets)
    return link_outcome(RunRecord.from_statistics(scenario, stats))


#: Trial executor of every figure kind.
EXECUTORS = {
    "link": run_link_trial,
    "sos": run_sos_trial,
    "net": run_net_trial,
    "cc": run_cc_trial,
    "faults": run_faults_trial,
    "response": run_response_trial,
    "reciprocity": run_reciprocity_trial,
    "case": run_case_trial,
    "noise": run_noise_trial,
    "bins": run_bins_trial,
    "stability": run_stability_trial,
    "mac": run_mac_trial,
    "airtime": run_airtime_trial,
    "protocol": run_protocol_trial,
}

#: Every figure kind.
KINDS = tuple(EXECUTORS)
