"""Quality-of-experience scoring of network runs.

The CGReplay pattern (PAPERS.md): once the *same* workload can be
replayed against different stacks, the interesting output is no longer a
single PDR number but the user-facing deltas -- how the latency
distribution moved, how many messages effectively "felt lost", whether
safety alerts still met their deadline.  This module turns a
:class:`~repro.net.metrics.NetworkMetrics` into a :class:`QoeReport` and
two reports into a :class:`QoeDelta`.

The message QoE score is a mean opinion score in [0, 1]: a lost message
scores 0, a delivered one ``exp(-latency / tau)`` -- instant delivery is
worth 1, a delivery after ``tau`` seconds has decayed to ~0.37, and the
tail keeps discounting but never rewards a loss.  ``tau`` defaults to
30 s, the patience scale of short-message exchanges between divers (an
SOS alert uses the stricter deadline-miss count instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.metrics import NetworkMetrics
from repro.utils.jsonsafe import nan_to_none

#: Latency decay constant of the message QoE score (seconds).
DEFAULT_LATENCY_TAU_S = 30.0

#: Delivery deadline for SOS broadcast alerts (seconds).
DEFAULT_SOS_DEADLINE_S = 60.0

#: Latency percentiles of the :class:`QoeDelta` comparison table.
REPORT_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


@dataclass(frozen=True)
class QoeReport:
    """User-facing quality summary of one network run.

    Attributes
    ----------
    offered, delivered:
        End-to-end payload counts.
    pdr:
        Packet delivery ratio.
    mean_latency_s, median_latency_s, p95_latency_s:
        Latency statistics over delivered payloads.
    qoe_score:
        Mean per-message score in [0, 1] (see module docstring).
    latency_tau_s:
        Decay constant the score was computed with.
    sos_offered:
        Broadcast (SOS) payload records considered.
    sos_deadline_misses:
        Broadcast records lost or delivered after ``sos_deadline_s``.
    sos_deadline_s:
        The deadline applied.
    """

    offered: int
    delivered: int
    pdr: float
    mean_latency_s: float
    median_latency_s: float
    p95_latency_s: float
    qoe_score: float
    latency_tau_s: float
    sos_offered: int
    sos_deadline_misses: int
    sos_deadline_s: float

    def to_dict(self) -> dict:
        """JSON-safe dictionary form."""
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "pdr": nan_to_none(self.pdr),
            "mean_latency_s": nan_to_none(self.mean_latency_s),
            "median_latency_s": nan_to_none(self.median_latency_s),
            "p95_latency_s": nan_to_none(self.p95_latency_s),
            "qoe_score": nan_to_none(self.qoe_score),
            "latency_tau_s": self.latency_tau_s,
            "sos_offered": self.sos_offered,
            "sos_deadline_misses": self.sos_deadline_misses,
            "sos_deadline_s": self.sos_deadline_s,
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"  delivered                : {self.delivered}/{self.offered} "
            f"(PDR {self.pdr:.1%})",
            f"  latency                  : median {self.median_latency_s:.2f} s, "
            f"p95 {self.p95_latency_s:.2f} s",
            f"  message QoE score        : {self.qoe_score:.3f} "
            f"(tau {self.latency_tau_s:g} s)",
        ]
        if self.sos_offered:
            lines.append(
                f"  SOS deadline misses      : {self.sos_deadline_misses}/"
                f"{self.sos_offered} (deadline {self.sos_deadline_s:g} s)"
            )
        return "\n".join(lines)


def qoe_report(
    metrics: NetworkMetrics,
    latency_tau_s: float = DEFAULT_LATENCY_TAU_S,
    sos_deadline_s: float = DEFAULT_SOS_DEADLINE_S,
) -> QoeReport:
    """Score one run's :class:`~repro.net.metrics.NetworkMetrics`."""
    if latency_tau_s <= 0:
        raise ValueError("latency_tau_s must be positive")
    if sos_deadline_s <= 0:
        raise ValueError("sos_deadline_s must be positive")
    scores = []
    sos_offered = 0
    sos_misses = 0
    for record in metrics.records:
        latency = record.latency_s
        scores.append(
            float(np.exp(-latency / latency_tau_s)) if record.delivered else 0.0
        )
        if record.kind == "broadcast":
            sos_offered += 1
            if not record.delivered or latency > sos_deadline_s:
                sos_misses += 1
    return QoeReport(
        offered=metrics.offered,
        delivered=metrics.delivered,
        pdr=metrics.packet_delivery_ratio,
        mean_latency_s=metrics.mean_latency_s,
        median_latency_s=metrics.median_latency_s,
        p95_latency_s=metrics.p95_latency_s,
        qoe_score=float(np.mean(scores)) if scores else float("nan"),
        latency_tau_s=latency_tau_s,
        sos_offered=sos_offered,
        sos_deadline_misses=sos_misses,
        sos_deadline_s=sos_deadline_s,
    )


@dataclass(frozen=True)
class QoeDelta:
    """Paired QoE comparison of two runs of the *same* workload.

    Deltas are ``b - a`` throughout: a positive ``pdr_delta`` means
    stack B delivered more, a positive latency delta means stack B was
    slower.
    """

    label_a: str
    label_b: str
    a: QoeReport
    b: QoeReport
    percentiles_a: dict[float, float]
    percentiles_b: dict[float, float]

    @property
    def pdr_delta(self) -> float:
        return self.b.pdr - self.a.pdr

    @property
    def qoe_delta(self) -> float:
        return self.b.qoe_score - self.a.qoe_score

    @property
    def sos_miss_delta(self) -> int:
        return self.b.sos_deadline_misses - self.a.sos_deadline_misses

    def to_dict(self) -> dict:
        """JSON-safe dictionary form."""
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "latency_percentiles_a": {
                str(q): nan_to_none(v) for q, v in self.percentiles_a.items()
            },
            "latency_percentiles_b": {
                str(q): nan_to_none(v) for q, v in self.percentiles_b.items()
            },
            "pdr_delta": nan_to_none(self.pdr_delta),
            "qoe_delta": nan_to_none(self.qoe_delta),
            "sos_miss_delta": self.sos_miss_delta,
        }

    def to_markdown(self) -> str:
        """Comparison table: one row per metric, deltas last."""
        rows = [
            "| metric | " + self.label_a + " | " + self.label_b + " | delta (b-a) |",
            "|---|---|---|---|",
            f"| PDR | {self.a.pdr:.3f} | {self.b.pdr:.3f} | {self.pdr_delta:+.3f} |",
            f"| QoE score | {self.a.qoe_score:.3f} | {self.b.qoe_score:.3f} "
            f"| {self.qoe_delta:+.3f} |",
        ]
        for q in sorted(self.percentiles_a):
            a_v, b_v = self.percentiles_a[q], self.percentiles_b[q]
            rows.append(
                f"| latency p{q:g} (s) | {a_v:.2f} | {b_v:.2f} "
                f"| {b_v - a_v:+.2f} |"
            )
        if self.a.sos_offered or self.b.sos_offered:
            rows.append(
                f"| SOS deadline misses | {self.a.sos_deadline_misses} "
                f"| {self.b.sos_deadline_misses} | {self.sos_miss_delta:+d} |"
            )
        return "\n".join(rows)


def qoe_delta(
    metrics_a: NetworkMetrics,
    metrics_b: NetworkMetrics,
    label_a: str = "a",
    label_b: str = "b",
    latency_tau_s: float = DEFAULT_LATENCY_TAU_S,
    sos_deadline_s: float = DEFAULT_SOS_DEADLINE_S,
) -> QoeDelta:
    """Score two runs of the same workload and pair the results."""
    return QoeDelta(
        label_a=label_a,
        label_b=label_b,
        a=qoe_report(metrics_a, latency_tau_s, sos_deadline_s),
        b=qoe_report(metrics_b, latency_tau_s, sos_deadline_s),
        percentiles_a=metrics_a.latency_percentiles_s(REPORT_PERCENTILES),
        percentiles_b=metrics_b.latency_percentiles_s(REPORT_PERCENTILES),
    )
