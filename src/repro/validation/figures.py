"""Declarative registry of the paper figures the validation harness runs.

A :class:`FigureSpec` encodes one figure as data: which executor produces
it (``kind``), the swept axis and its grid, the fixed parameters and the
named variants run at every grid point, the reported metrics, the single
*headline* metric gated against the committed envelope with its
tolerance, and the paper's claims on the figure
(:mod:`repro.validation.claims`).

The registry holds one spec per paper figure -- Figs. 3-19, the numbers
of Secs. 3 and 5, and two ablations of the design's choices -- besides
the six specs without claims that gate the extensions:
``ber_vs_snr`` and ``throughput_vs_distance`` (coded BER, in-band SNR
and goodput vs range), ``sos_range`` (beacon ID detection out to 110 m),
``net_pdr_vs_hops`` (multi-hop PDR with ARQ), ``cc_fairness_vs_load``
(fixed window vs Reno on one seed) and ``resilience_vs_churn`` (repair
on vs off on one churn schedule).

Each figure runs as ``trials`` seeded Monte-Carlo repetitions per grid
point; :mod:`repro.validation.montecarlo` owns the execution and
:mod:`repro.validation.executors` the per-kind trials.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.experiments.scenario import ModemSpec
from repro.validation.claims import Claim, agg, cell, claim
from repro.validation.executors import KINDS

#: Seed stride between grid points, so point seeds never collide with the
#: trial index range.  Prime to avoid aliasing against user base seeds.
SEED_STRIDE = 1009


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
        Which executor runs a trial (see :mod:`repro.validation.executors`):
        ``"link"`` (one link :class:`~repro.experiments.Scenario` per
        trial),
        ``"sos"`` (beacon broadcasts), ``"net"`` (multi-hop runs), ...
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
    variants:
        Named parameter overrides run at every (point, trial) on that
        cell's seed -- scheme, site, motion, ``ModemSpec``, device pair,
        beacon rate.  A variant's metrics are reported as
        ``metric@variant``; the default, one unnamed variant without
        overrides, keeps the bare metric names.  The headline is gated
        under every variant.
    quick_variants:
        Variants run by ``--quick`` (``None``: all of them).
    claims:
        The paper's claims on this figure
        (:class:`~repro.validation.claims.Claim`).
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
    variants: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: {"": {}}
    )
    quick_variants: tuple[str, ...] | None = None
    claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
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
        if not set(self.variant_names(quick=True)) <= set(self.variants):
            raise ValueError(f"quick_variants of {self.name} must be variants")
        for term in (cell for entry in self.claims for cell in entry.cells()):
            if (
                term.metric not in self.metrics
                or term.variant not in self.variants
                or (term.at is None and len(self.values) != 1)
                or (term.at is not None and term.at not in self.values)
            ):
                raise ValueError(
                    f"claim of {self.name} reads {term.describe()}, which "
                    f"is not a metric, variant and axis value of the figure"
                )

    def grid(self, quick: bool = False) -> tuple:
        """Axis values for a run (the quick subset in quick mode)."""
        return self.quick_values if quick else self.values

    def param(self, key: str, quick: bool = False):
        """Fixed parameter, honouring a ``quick_<key>`` override."""
        if quick and f"quick_{key}" in self.params:
            return self.params[f"quick_{key}"]
        return self.params[key]

    def variant_names(self, quick: bool = False) -> tuple[str, ...]:
        """Variants of a run (the quick subset in quick mode)."""
        if quick and self.quick_variants is not None:
            return tuple(self.quick_variants)
        return tuple(self.variants)

    def for_variant(self, name: str) -> "FigureSpec":
        """This spec with one variant's parameter overrides merged in."""
        overrides = self.variants[name]
        if not overrides:
            return self
        return dataclasses.replace(self, params={**self.params, **overrides})

    def point_seed(self, axis_value, trial: int, base_seed: int = 0) -> int:
        """Deterministic seed of one (grid point, trial) cell.

        Keyed by the value's index in the *full* grid so quick runs
        (which sweep a subset) land on the same seeds as full runs.
        """
        return base_seed + SEED_STRIDE * (self.values.index(axis_value) + 1) + trial


# ---------------------------------------------------------------- registry
#: Transmission schemes in figure-legend order: the paper's adaptive
#: scheme, then the three fixed-bandwidth baselines.
SCHEMES = ("adaptive", "fixed-3k", "fixed-1.5k", "fixed-0.5k")
_PER_SCHEME = {scheme: {"scheme": scheme} for scheme in SCHEMES}
_MOTIONS = {motion: {"motion": motion} for motion in ("static", "slow", "fast")}
_S9_PAIR = {"site": "lake", "tx_device": "galaxy_s9", "rx_device": "galaxy_s9"}
_DEVICE_PAIRS = {
    "s9-s9": {},
    "s9-pixel4": {"rx_device": "pixel_4"},
    "pixel4-oneplus8": {"tx_device": "pixel_4", "rx_device": "oneplus_8_pro"},
    "s9-watch4": {"rx_device": "galaxy_watch_4"},
}
_PROBE_SITES = ("bridge", "park", "lake", "museum")
_NOISE_DEVICES = ("galaxy_s9", "pixel_4", "oneplus_8_pro", "galaxy_watch_4")
_NOISE_SITES = ("bridge", "park", "lake", "museum", "bay")
_ENVIRONMENTS = ("bridge", "park", "lake")
_DEPTHS = (2.0, 5.0, 7.0)
_RANGES = (5.0, 10.0, 20.0, 30.0)
_ANGLES = (0.0, 45.0, 90.0, 135.0, 180.0)
#: Selected-bitrate CDF columns of a link figure and its median band edges.
_BITRATE_CDF = ("bitrate_p10_bps", "bitrate_p25_bps", "median_bitrate_bps",
                "bitrate_p75_bps", "bitrate_p90_bps")
_BAND_EDGES = ("band_start_hz", "band_end_hz")

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
        # ------------------------------------------------ paper figures
        FigureSpec(
            name="selectivity_by_device",
            title="Frequency selectivity by device pair (lake, 5 m, 1-5 kHz chirp)",
            kind="response",
            axis="distance_m",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=("gain_db", "swing_db", "notch_hz", "rolloff_db"),
            headline="gain_db",
            tolerance=3.0,
            params=_S9_PAIR,
            variants=_DEVICE_PAIRS,
            claims=(
                *(claim("Fig. 3a", "every pair's response is uneven, with deep notches",
                        cell("swing_db", p), ">", 6.0) for p in _DEVICE_PAIRS),
                *(claim("Fig. 3a", "the response diminishes above 4 kHz",
                        cell("rolloff_db", p), "<", 0.0) for p in _DEVICE_PAIRS),
                claim("Fig. 3a", "notch frequencies vary per device",
                      agg("distinct", *(cell("notch_hz", p) for p in _DEVICE_PAIRS)), ">", 1),
            ),
        ),
        FigureSpec(
            name="selectivity_by_site",
            title="Frequency selectivity by site (S9 pair, 10 m, 1-5 kHz chirp)",
            kind="response",
            axis="distance_m",
            values=(10.0,),
            quick_values=(10.0,),
            metrics=("gain_db", "swing_db", "notch_hz", "rolloff_db"),
            headline="gain_db",
            tolerance=3.0,
            params=_S9_PAIR,
            variants={site: {"site": site} for site in _PROBE_SITES},
            claims=(
                claim("Fig. 3b", "multipath moves the notches: the best frequencies "
                                 "change with location",
                      agg("distinct", *(cell("notch_hz", s) for s in _PROBE_SITES)), ">", 1),
            ),
        ),
        FigureSpec(
            name="reciprocity",
            title="Forward vs backward response, in air and underwater (S9 pair, 2 m)",
            kind="reciprocity",
            axis="distance_m",
            values=(2.0,),
            quick_values=(2.0,),
            metrics=("mismatch_air_db", "mismatch_water_db"),
            headline="mismatch_water_db",
            tolerance=2.0,
            params=_S9_PAIR,
            claims=(
                claim("Fig. 3c/d", "responses are similar in air but differ "
                                   "significantly underwater",
                      cell("mismatch_water_db"), ">", cell("mismatch_air_db")),
            ),
        ),
        FigureSpec(
            name="ambient_noise",
            title="Ambient noise density by device (lake) and by site (S9), dB/Hz",
            kind="noise",
            axis="duration_s",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=("below_1k_db", "band_1k_4k5_db", "above_6k_db"),
            headline="band_1k_4k5_db",
            tolerance=3.0,
            params={"site": "lake", "device": "galaxy_s9"},
            variants={
                **{device: {"device": device} for device in _NOISE_DEVICES},
                **{site: {"site": site} for site in _NOISE_SITES},
            },
            quick_variants=_NOISE_DEVICES,
            claims=(
                *(claim("Fig. 4a", "noise is strongest below 1 kHz and appreciable "
                                   "up to about 4.5 kHz",
                        cell("below_1k_db", d), ">", cell("band_1k_4k5_db", d),
                        ">", cell("above_6k_db", d))
                  for d in _NOISE_DEVICES),
                *(claim("Fig. 4a", "noise falls off sharply above about 4.5 kHz",
                        cell("band_1k_4k5_db", d), ">", cell("above_6k_db", d, plus=10.0))
                  for d in _NOISE_DEVICES),
                claim("Fig. 4b", "the 0-6 kHz noise level varies by about 9 dB "
                                 "across locations",
                      3.0, "<", agg("spread", *(cell("band_1k_4k5_db", s)
                                                for s in _NOISE_SITES)), "<", 15.0),
            ),
        ),
        FigureSpec(
            name="bin_ber_vs_snr",
            title="Uncoded BER per subcarrier vs its SNR (bridge, 5/10/20 m)",
            kind="bins",
            axis="payload_bits",
            values=(640,),
            quick_values=(640,),
            metrics=("ber_lowest_snr", "bpsk_ber_lowest_snr", "ber_highest_snr",
                     "bpsk_ber_highest_snr", "lowest_snr_db", "highest_snr_db",
                     "buckets"),
            headline="ber_highest_snr",
            tolerance=0.05,
            params={"site": "bridge", "distances_m": (5.0, 10.0, 20.0), "packets": 4},
            claims=(
                claim("Fig. 8", "the measured BER follows the theoretical BPSK "
                                "curve down as SNR rises",
                      cell("ber_highest_snr"), "<=", cell("ber_lowest_snr")),
                claim("Fig. 8", "the measured BER follows the theoretical BPSK "
                                "curve: low in the high-SNR buckets",
                      cell("ber_highest_snr"), "<", 0.05),
            ),
        ),
        FigureSpec(
            name="environments",
            title="PER, bitrate CDF and band by site at 5 m (adaptive vs fixed bands)",
            kind="link",
            axis="distance_m",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=("per", *_BITRATE_CDF, *_BAND_EDGES),
            headline="per",
            tolerance=0.15,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 25,
                    "quick_num_packets": 5},
            variants={f"{site}/{scheme}": {"site": site, "scheme": scheme}
                      for site in _ENVIRONMENTS for scheme in SCHEMES},
            quick_variants=tuple(f"{site}/adaptive" for site in _ENVIRONMENTS),
            claims=(
                *(claim("Fig. 9d", "adaptive PER stays around 1% on average",
                        cell("per", f"{site}/adaptive"), "<=", 0.25)
                  for site in _ENVIRONMENTS),
                claim("Fig. 9d", "fixed bands degrade with multipath, worst at the lake",
                      cell("per", "lake/adaptive"), "<=", cell("per", "lake/fixed-3k")),
            ),
        ),
        FigureSpec(
            name="depth",
            title="PER and bitrate CDF by device depth (museum, 5 m range, "
                  "adaptive vs fixed bands)",
            kind="link",
            axis="tx_depth_m",
            values=_DEPTHS,
            quick_values=(5.0,),
            metrics=("per", *_BITRATE_CDF),
            headline="per",
            tolerance=0.15,
            params={"site": "museum", "distance_m": 5.0, "scheme": "adaptive",
                    "num_packets": 20, "quick_num_packets": 10},
            variants=_PER_SCHEME,
            quick_variants=("adaptive",),
            claims=(
                claim("Fig. 10b", "the adaptive scheme has significantly lower PER "
                                  "than the fixed bands at all depths",
                      agg("mean", *(cell("per", "adaptive", d) for d in _DEPTHS)), "<=",
                      agg("mean", *(agg("max", *(cell("per", f, d) for f in SCHEMES[1:]))
                                    for d in _DEPTHS), plus=1e-9)),
                *(claim("Fig. 10b", "the adaptive scheme keeps PER low at every depth",
                        cell("per", "adaptive", d), "<=", 0.25) for d in _DEPTHS),
            ),
        ),
        FigureSpec(
            name="deep_water",
            title="Deeper water in a hard case (bay, 3.5 m range, 12 m vs 1 m deep)",
            kind="link",
            axis="distance_m",
            values=(3.5,),
            quick_values=(3.5,),
            metrics=("detection_rate", *_BITRATE_CDF, "per"),
            headline="median_bitrate_bps",
            tolerance=120.0,
            params={"site": "bay", "scheme": "adaptive", "num_packets": 20,
                    "quick_num_packets": 5},
            variants={
                "hard_case-12m": {"tx_depth_m": 12.0, "rx_depth_m": 12.0,
                                  "case": "hard_case"},
                "soft_pouch-1m": {},
            },
            quick_variants=("hard_case-12m",),
            claims=(
                claim("Fig. 11", "communication still works at 12 m in the hard case",
                      cell("detection_rate", "hard_case-12m"), ">", 0.8),
                claim("Fig. 11", "median bitrate 133 bps at 12 m in the hard case",
                      cell("median_bitrate_bps", "hard_case-12m"), ">", 60.0),
                claim("Fig. 11", "the hard case at depth runs at a reduced rate",
                      cell("median_bitrate_bps", "hard_case-12m"), "<=",
                      cell("median_bitrate_bps", "soft_pouch-1m")),
            ),
        ),
        FigureSpec(
            name="range",
            title="Bitrate, band, PER, preamble and feedback vs range (lake)",
            kind="link",
            axis="distance_m",
            values=_RANGES,
            quick_values=(5.0, 30.0),
            metrics=(*_BITRATE_CDF, *_BAND_EDGES, "band_width_hz", "coded_ber", "per",
                     "detection_rate", "feedback_error_rate"),
            headline="per",
            tolerance=0.15,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 25,
                    "quick_num_packets": 5},
            variants=_PER_SCHEME,
            quick_variants=("adaptive",),
            claims=(
                claim("Fig. 12a", "median bitrate falls from 633 bps at 5 m to "
                                  "133 bps at 30 m",
                      cell("median_bitrate_bps", "adaptive", 30.0), "<",
                      cell("median_bitrate_bps", "adaptive", 5.0)),
                claim("Fig. 12a", "median bitrate 633 bps at 5 m",
                      cell("median_bitrate_bps", "adaptive", 5.0), ">", 300.0),
                claim("Fig. 12a", "median bitrate 133 bps at 30 m",
                      cell("median_bitrate_bps", "adaptive", 30.0), "<", 350.0),
                claim("Fig. 12c", "fixed 1.5/3 kHz bands reach 100% PER at 30 m; "
                                  "adaptive stays near 7%",
                      cell("per", "adaptive", 30.0), "<=",
                      agg("max", *(cell("per", f, 30.0) for f in SCHEMES[1:]))),
                claim("Fig. 13", "a smaller band in response to the attenuation "
                                 "at larger distances",
                      cell("band_width_hz", "adaptive", 30.0), "<",
                      cell("band_width_hz", "adaptive", 5.0)),
                claim("Fig. 13", "most of the 1-4 kHz band at short range",
                      cell("band_width_hz", "adaptive", 5.0), ">=", 500.0),
                claim("Sec. 3", "preamble detection 0.99 at 5 m",
                      cell("detection_rate", "adaptive", 5.0), ">=", 0.95),
                claim("Sec. 3", "preamble detection 1.0 at 10 m",
                      cell("detection_rate", "adaptive", 10.0), ">=", 0.95),
                claim("Sec. 3", "preamble detection 0.96 at 30 m",
                      cell("detection_rate", "adaptive", 30.0), ">=", 0.6),
                *(claim("Sec. 3", "feedback errors about 1 in 100 packets at every "
                                  "distance",
                        cell("feedback_error_rate", "adaptive", d), "<=", 0.35)
                  for d in _RANGES),
            ),
        ),
        FigureSpec(
            name="fsk_range",
            title="Uncoded BER of the low-rate FSK beacon vs range (beach)",
            kind="sos",
            axis="distance_m",
            values=(30.0, 60.0, 100.0, 113.0),
            quick_values=(113.0,),
            metrics=("sos_bit_error_rate", "id_detection_rate"),
            headline="sos_bit_error_rate",
            tolerance=0.1,
            params={"site": "beach", "rate_bps": 10, "user_id": 27,
                    "repetitions": 12, "quick_repetitions": 6},
            variants={f"{rate}bps": {"rate_bps": rate} for rate in (5, 10, 20)},
            quick_variants=("5bps", "10bps"),
            claims=(
                claim("Fig. 12d", "BER below 1% at 5 bps up to 113 m",
                      cell("sos_bit_error_rate", "5bps", 113.0), "<=", 0.05),
                claim("Fig. 12d", "BER below 1% at 10 bps up to 113 m",
                      cell("sos_bit_error_rate", "10bps", 113.0), "<=", 0.10),
                claim("Fig. 12d", "the 20 bps mode degrades sooner",
                      cell("sos_bit_error_rate", "5bps", 113.0), "<=",
                      cell("sos_bit_error_rate", "20bps", 113.0, plus=1e-9)),
            ),
        ),
        FigureSpec(
            name="mobility",
            title="Bitrate CDF and PER under motion (lake, 5 m)",
            kind="link",
            axis="distance_m",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=(*_BITRATE_CDF, "per"),
            headline="per",
            tolerance=0.15,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 20,
                    "quick_num_packets": 10},
            variants=_MOTIONS,
            quick_variants=("static", "fast"),
            claims=(
                claim("Fig. 14a", "median bitrate 640 bps static, 336 bps fast",
                      cell("median_bitrate_bps", "fast"), "<=",
                      cell("median_bitrate_bps", "static", plus=1e-9)),
            ),
        ),
        FigureSpec(
            name="differential_coding",
            title="Uncoded BER with vs without differential coding "
                  "(lake, 5 m, 192-bit bursts)",
            kind="link",
            axis="distance_m",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=("coded_ber", "per"),
            headline="coded_ber",
            tolerance=0.1,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 8,
                    "quick_num_packets": 2},
            variants={
                f"{motion}/{tag}": {
                    "motion": motion,
                    "modem": ModemSpec(payload_bits=192, use_differential=differential),
                }
                for motion in _MOTIONS
                for tag, differential in (("diff", True), ("no-diff", False))
            },
            quick_variants=("fast/diff",),
            claims=(
                claim("Fig. 14c", "without differential coding BER exceeds 10% "
                                  "under motion; with it ~1%",
                      cell("coded_ber", "fast/no-diff"), ">=", cell("coded_ber", "fast/diff")),
                claim("Fig. 14c", "without differential coding BER exceeds 10% "
                                  "under motion; with it ~1%",
                      agg("sum", cell("coded_ber", "fast/no-diff"),
                          cell("coded_ber", "slow/no-diff")), ">",
                      agg("sum", cell("coded_ber", "fast/diff"),
                          cell("coded_ber", "slow/diff"))),
                claim("Fig. 14c", "with differential coding BER stays around 1% "
                                  "under motion",
                      cell("coded_ber", "fast/diff"), "<", 0.2),
            ),
        ),
        FigureSpec(
            name="orientation",
            title="Bitrate CDF and PER vs azimuth offset (bridge, 5 m)",
            kind="link",
            axis="orientation_deg",
            values=_ANGLES,
            quick_values=(0.0,),
            metrics=(*_BITRATE_CDF, "per"),
            headline="per",
            tolerance=0.15,
            params={"site": "bridge", "distance_m": 5.0, "scheme": "adaptive",
                    "num_packets": 15, "quick_num_packets": 5},
            variants=_PER_SCHEME,
            quick_variants=("adaptive",),
            claims=(
                claim("Fig. 15a", "median bitrate 1067 bps at 0 deg, 567 bps at 180 deg",
                      cell("median_bitrate_bps", "adaptive", 180.0), "<=",
                      cell("median_bitrate_bps", "adaptive", 0.0)),
                claim("Fig. 15a", "1067 bps at 0 deg falls to 567 bps at 180 deg (-47%)",
                      cell("median_bitrate_bps", "adaptive", 180.0), "<=",
                      cell("median_bitrate_bps", "adaptive", 0.0, times=567 / 1067),
                      gap="full run: 1053 bps at 180 deg vs 1340 at 0 deg (-21%); "
                          "the loss is DeviceModel.directivity_loss_at_180_db "
                          "(5 dB) in repro/devices/models.py"),
                *(claim("Fig. 15b", "the adaptive scheme keeps a low PER at every "
                                    "orientation",
                        cell("per", "adaptive", a), "<=", 0.35) for a in _ANGLES),
            ),
        ),
        FigureSpec(
            name="channel_stability",
            title="Min in-band SNR re-measured by a second preamble (lake, 10 m)",
            kind="stability",
            axis="distance_m",
            values=(10.0,),
            quick_values=(10.0,),
            metrics=("probe_mean_db", "probe_min_db", "probe_std_db", "below_reference"),
            headline="probe_mean_db",
            tolerance=3.0,
            params={"site": "lake", "motion": "static", "probes": 15,
                    "reference_db": 4.0},
            variants=_MOTIONS,
            claims=(
                claim("Fig. 16", "slow/fast motion increases the fluctuation",
                      cell("probe_std_db", "fast"), ">=",
                      cell("probe_std_db", "static", times=0.7)),
                claim("Fig. 16", "motion occasionally drops below the 4 dB line",
                      cell("probe_min_db", "fast"), "<=",
                      cell("probe_min_db", "static", plus=1.0)),
                claim("Fig. 16", "static probes stay comfortably above the 4 dB "
                                 "(~1% BER) line",
                      cell("probe_min_db", "static"), ">", 4.0,
                      gap="full run: the worst static probe averages -8.8 dB and "
                          "83% of static probes sit below 4 dB; the 10 m link SNR "
                          "is set by LAKE in repro/environments/sites.py"),
            ),
        ),
        FigureSpec(
            name="subcarrier_spacing",
            title="PER and bitrate CDF by OFDM subcarrier spacing (lake, 5 and 20 m)",
            kind="link",
            axis="distance_m",
            values=(5.0, 20.0),
            quick_values=(5.0,),
            metrics=("per", "detection_rate", *_BITRATE_CDF),
            headline="per",
            tolerance=0.15,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 10,
                    "quick_num_packets": 3},
            variants={
                "50hz": {},
                **{f"{hz:g}hz": {"modem": ModemSpec(subcarrier_spacing_hz=hz)}
                   for hz in (25.0, 10.0)},
            },
            claims=(
                claim("Fig. 17c", "at 20 m the 50 Hz spacing degrades (4.6%) while "
                                  "25/10 Hz stay below 1%",
                      agg("min", cell("per", "25hz", 20.0), cell("per", "10hz", 20.0)),
                      "<=", agg("max", cell("per", "50hz", 20.0), 0.1, plus=1e-9)),
                *(claim("Fig. 17c", "about 1% PER at every spacing at 5 m",
                        cell("per", s, 5.0), "<=", 0.35) for s in ("50hz", "25hz", "10hz")),
            ),
        ),
        FigureSpec(
            name="case_air",
            title="Air inside the waterproof pouch (lake, 5 m, 1-4 kHz chirp)",
            kind="case",
            axis="distance_m",
            values=(5.0,),
            quick_values=(5.0,),
            metrics=("mean_difference_db", "max_difference_db"),
            headline="mean_difference_db",
            tolerance=2.0,
            params=_S9_PAIR,
            claims=(
                claim("Fig. 18", "the average 1-4 kHz power is not significantly "
                                 "different",
                      cell("mean_difference_db"), "<", 4.0),
                claim("Fig. 18", "the fine structure of the response changes",
                      cell("max_difference_db"), ">", cell("mean_difference_db")),
            ),
        ),
        FigureSpec(
            name="mac_carrier_sense",
            title="Share of collided packets with and without carrier sense",
            kind="mac",
            axis="num_transmitters",
            values=(2, 3),
            quick_values=(2, 3),
            metrics=("collided",),
            headline="collided",
            tolerance=0.1,
            params={"packets_per_tx": 120},
            variants={"nocs": {"carrier_sense": False}, "cs": {"carrier_sense": True}},
            claims=(
                claim("Fig. 19", "collisions without carrier sense: 33% with 2 "
                                 "transmitters, 53% with 3",
                      cell("collided", "nocs", 3), ">", cell("collided", "nocs", 2)),
                *(claim("Fig. 19", f"carrier sense cuts collisions to {paper} "
                                   f"with {n} transmitters",
                        cell("collided", "cs", n), "<", cell("collided", "nocs", n, times=0.5))
                  for n, paper in ((2, "5% from 33%"), (3, "7% from 53%"))),
                *(claim("Fig. 19", f"{paper} collisions with carrier sense, "
                                   f"{n} transmitters",
                        cell("collided", "cs", n), "<", 0.15)
                  for n, paper in ((2, "5%"), (3, "7%"))),
            ),
        ),
        FigureSpec(
            name="message_latency",
            title="Messaging latency and protocol airtime (seconds)",
            kind="airtime",
            axis="payload_bits",
            values=(16,),
            quick_values=(16,),
            metrics=("hand_signal_25bps_s", "hand_signal_133bps_s",
                     "two_signals_633bps_s", "text_50char_1kbps_s",
                     "airtime_60bins_s", "airtime_4bins_s", "sos_beacon_10bps_s",
                     "bitrate_60bins_bps"),
            headline="airtime_60bins_s",
            tolerance=0.01,
            claims=(
                claim("Sec. 5", "a hand signal takes about 0.5 s at 25 bps",
                      cell("hand_signal_25bps_s"), "<", 1.0),
                claim("Sec. 5", "50 characters take about 0.5 s at 1 kbps",
                      cell("text_50char_1kbps_s"), "<", 1.0),
                claim("Abstract", "bit rates up to 1.8 kbps",
                      cell("bitrate_60bins_bps"), ">", 1500.0),
            ),
        ),
        FigureSpec(
            name="band_parameters",
            title="Band selection parameters: SNR threshold and conservative "
                  "factor (lake, 20 m)",
            kind="protocol",
            axis="distance_m",
            values=(20.0,),
            quick_values=(20.0,),
            metrics=("per", "median_bitrate_bps"),
            headline="median_bitrate_bps",
            tolerance=150.0,
            params={"site": "lake", "num_packets": 15, "quick_num_packets": 3,
                    "snr_threshold_db": 7.0, "conservative_lambda": 0.8},
            variants={
                "paper": {},
                "aggressive": {"snr_threshold_db": 3.0, "conservative_lambda": 1.0},
                "conservative": {"snr_threshold_db": 12.0, "conservative_lambda": 0.5},
            },
            quick_variants=("aggressive", "conservative"),
            claims=(
                claim("Ablation", "beyond the paper; its choice is eps = 7 dB, "
                                  "lambda = 0.8",
                      cell("median_bitrate_bps", "aggressive"), ">=",
                      cell("median_bitrate_bps", "conservative")),
            ),
        ),
        FigureSpec(
            name="receive_chain",
            title="Receive-chain ablation: interleaving, equalizer, differential "
                  "coding (lake, 20 m)",
            kind="link",
            axis="distance_m",
            values=(20.0,),
            quick_values=(20.0,),
            metrics=("per", "coded_ber"),
            headline="per",
            tolerance=0.2,
            params={"site": "lake", "scheme": "adaptive", "num_packets": 15,
                    "quick_num_packets": 3},
            variants={
                "full": {},
                **{f"no-{part}": {"modem": ModemSpec(**{f"use_{part}": False})}
                   for part in ("interleaving", "equalizer", "differential")},
            },
            quick_variants=("full", "no-equalizer"),
            claims=(
                claim("Ablation", "beyond the paper; the receiver equalizes "
                                  "every packet",
                      cell("per", "full"), "<=", cell("per", "no-equalizer", plus=0.2)),
            ),
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
