"""End-to-end network metrics.

One :class:`DeliveryRecord` per application payload (or per reachable
node for broadcasts) plus network-wide counters, aggregated into the
numbers the evaluation reports: packet delivery ratio, end-to-end
latency, hop counts, goodput and an energy proxy based on the acoustic
modem power figures the underwater-routing literature uses.

Storage is a plain row list.  :attr:`NetworkMetrics.records` holds the
delivery rows in the order payloads were settled, and
:attr:`NetworkMetrics.flows` holds one :class:`FlowRecord` per ARQ flow
epoch: offered and delivered payloads, delivered bits, queue drops,
losses, retransmissions, timeouts, the abort flag and the sampled cwnd
trajectory.  Each aggregate is a numpy reduction over an array built
from the rows in that order.  A 250-node run settles a few hundred
payloads, so the rows cost little.

Every run reports the same keys: :meth:`NetworkMetrics.to_dict` keeps
the congestion section (queue drops, fairness, per-flow rows) and the
resilience section (drop and abort reasons, crashes, repairs, delivery
under churn) flat beside the base keys, as strict JSON (an aggregate
over nothing is ``None``).  :meth:`NetworkMetrics.summary` prints a
line only for a section with data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.net.congestion import CwndTrajectory, jain_fairness_index
from repro.utils.jsonsafe import nan_to_none

#: Transmit/receive power draw (W) of a small acoustic modem -- the
#: Evologics S2CR figures quoted by the uwoarouting simulators.  Used for
#: the energy *proxy*, not for a hardware-accurate budget.
TX_POWER_W = 2.8
RX_POWER_W = 1.3


def format_reasons(counts: dict[str, int]) -> str:
    """``"name count, ..."`` in name order, as the reports print causes."""
    return ", ".join(f"{name} {count}" for name, count in sorted(counts.items()))


@dataclass(frozen=True)
class DeliveryRecord:
    """Fate of one end-to-end payload.

    Attributes
    ----------
    uid:
        Network packet uid (shared by retransmitted copies).
    source, destination:
        End-to-end addresses (a concrete node even for broadcasts: one
        record per reached node).
    created_s:
        Time the payload entered the network.
    delivered_s:
        Delivery time, ``nan`` if lost.
    hop_count:
        Hops of the delivered copy (0 if lost).
    kind:
        ``"data"`` / ``"raw"`` / ``"broadcast"``.
    """

    uid: int
    source: str
    destination: str
    created_s: float
    delivered_s: float = float("nan")
    hop_count: int = 0
    kind: str = "data"

    @property
    def delivered(self) -> bool:
        """Whether the payload arrived."""
        return math.isfinite(self.delivered_s)

    @property
    def latency_s(self) -> float:
        """End-to-end latency (``nan`` if lost)."""
        return self.delivered_s - self.created_s if self.delivered else float("nan")


@dataclass(slots=True)
class FlowRecord:
    """Books of one ARQ flow epoch.

    The simulator counts payloads and queue drops as they happen and
    copies the sender's end-of-run state (retransmissions, timeouts,
    abort flag, cwnd trajectory) in when the run finishes.
    """

    source: str
    destination: str
    offered: int = 0
    delivered: int = 0
    delivered_bits: float = 0.0
    queue_drops: int = 0
    lost: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    aborted: bool = False
    cwnd: CwndTrajectory | None = None


@dataclass(eq=False, repr=False)
class NetworkMetrics:
    """Aggregate statistics of one network run.

    The simulator counts into these fields as the run goes; the
    properties and :meth:`to_dict` aggregate them.
    """

    #: Fate of every payload, in the order the run settled them.
    records: list[DeliveryRecord] = field(default_factory=list)
    transmissions: int = 0
    collisions: int = 0
    link_drops: int = 0
    duplicates_suppressed: int = 0
    ttl_drops: int = 0
    routing_voids: int = 0
    tx_airtime_s: float = 0.0
    rx_airtime_s: float = 0.0
    #: Packets refused by a bounded node buffer (tail drop).
    queue_drops: int = 0
    #: Books of every ARQ flow epoch, keyed by flow id.
    flows: dict[str, FlowRecord] = field(default_factory=dict, init=False)
    #: Lost payloads by first observed cause (ttl/void/queue-drop/
    #: dest-dead/source-dead/expired).
    drop_reasons: dict[str, int] = field(default_factory=dict, init=False)
    #: Aborted ARQ flows by cause (max-retry/dest-dead/source-dead/
    #: no-route).
    abort_reasons: dict[str, int] = field(default_factory=dict, init=False)
    #: Payloads offered/delivered while at least one node was down.
    churn_offered: int = field(default=0, init=False)
    churn_delivered: int = field(default=0, init=False)
    #: Crash-to-observed-repair latencies (liveness detection).
    repair_times_s: list[float] = field(default_factory=list, init=False)
    node_crashes: int = field(default=0, init=False)
    node_recoveries: int = field(default=0, init=False)
    #: Run duration recorded by the simulator; per-flow goodputs need
    #: it (``None`` until a run finishes).
    duration_s: float | None = field(default=None, init=False)

    # -------------------------------------------------------------- recording
    def record_delivery(
        self,
        uid: int,
        source: str,
        destination: str,
        created_s: float,
        delivered_s: float,
        hop_count: int,
        kind: str,
    ) -> None:
        """Record the fate of one payload from its fields."""
        self.add(
            DeliveryRecord(
                uid, source, destination, created_s, delivered_s, hop_count, kind
            )
        )

    def add(self, record: DeliveryRecord) -> None:
        """Record the fate of one payload."""
        self.records.append(record)

    # -------------------------------------------------------------- delivery
    @property
    def offered(self) -> int:
        """Payloads that entered the network."""
        return len(self.records)

    @property
    def delivered(self) -> int:
        """Payloads that reached their destination."""
        return sum(record.delivered for record in self.records)

    @property
    def packet_delivery_ratio(self) -> float:
        """Delivered over offered (PDR)."""
        if not self.records:
            return float("nan")
        return self.delivered / self.offered

    # --------------------------------------------------------------- latency
    def latencies_s(self) -> np.ndarray:
        """End-to-end latencies of delivered payloads."""
        values = np.array(
            [record.delivered_s - record.created_s for record in self.records],
            dtype=float,
        )
        return values[np.isfinite(values)]

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency of delivered payloads."""
        latencies = self.latencies_s()
        return float(np.mean(latencies)) if latencies.size else float("nan")

    def latency_percentiles_s(self, percentiles) -> dict[float, float]:
        """Latency percentiles of delivered payloads (``nan`` when none)."""
        latencies = self.latencies_s()
        if not latencies.size:
            return {q: float("nan") for q in percentiles}
        values = np.percentile(latencies, percentiles)
        return {q: float(v) for q, v in zip(percentiles, values)}

    @property
    def median_latency_s(self) -> float:
        """Median end-to-end latency of delivered payloads."""
        return self.latency_percentiles_s((50.0,))[50.0]

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end latency of delivered payloads."""
        return self.latency_percentiles_s((95.0,))[95.0]

    # ------------------------------------------------------------------ hops
    def hop_counts(self) -> np.ndarray:
        """Hop counts of delivered payloads."""
        return np.array(
            [record.hop_count for record in self.records if record.delivered],
            dtype=int,
        )

    @property
    def mean_hop_count(self) -> float:
        """Mean hops of delivered payloads."""
        hops = self.hop_counts()
        return float(np.mean(hops)) if hops.size else float("nan")

    @property
    def max_hop_count(self) -> int:
        """Longest delivered path."""
        hops = self.hop_counts()
        return int(hops.max()) if hops.size else 0

    # -------------------------------------------------------------- goodput
    def goodput_bps(self, duration_s: float) -> float:
        """Delivered payload bits per second over ``duration_s``, counting
        each delivery as one 16-bit message."""
        if duration_s <= 0:
            return float("nan")
        return self.delivered * 16 / duration_s

    # ------------------------------------------------------------- per flow
    def register_flow(self, flow_id: str, source: str, destination: str) -> FlowRecord:
        """Open one flow epoch's books."""
        flow = self.flows[flow_id] = FlowRecord(source, destination)
        return flow

    @property
    def num_flows(self) -> int:
        """Registered ARQ flow epochs."""
        return len(self.flows)

    def flow_delivered_bits(self) -> np.ndarray:
        """Delivered payload bits per registered flow."""
        return np.array(
            [flow.delivered_bits for flow in self.flows.values()], dtype=float
        )

    @property
    def aggregate_goodput_bps(self) -> float:
        """Summed per-flow goodput over the recorded duration."""
        if not self.duration_s or self.duration_s <= 0:
            return float("nan")
        return float(np.sum(self.flow_delivered_bits())) / self.duration_s

    def pair_delivered_bits(self) -> np.ndarray:
        """Delivered bits per (source, destination) *pair*.

        An aborted flow restarts as a new epoch (new flow id) for the
        same pair; fairness is about the pair's total service, so epochs
        of one pair are summed rather than counted as separate flows.
        """
        totals: dict[tuple[str, str], float] = {}
        for flow in self.flows.values():
            pair = (flow.source, flow.destination)
            totals[pair] = totals.get(pair, 0.0) + flow.delivered_bits
        return np.asarray(list(totals.values()), dtype=float)

    def jain_fairness(self) -> float:
        """Jain index over per-pair delivered bits.

        Scale-invariant, so delivered bits and goodput give the same
        index; 1.0 is a perfectly fair share, ``1/n`` total starvation
        of all but one flow.  Epochs of the same (source, destination)
        pair are pooled first -- see :meth:`pair_delivered_bits`.
        """
        return jain_fairness_index(self.pair_delivered_bits())

    def per_flow(self) -> dict[str, dict]:
        """JSON-safe per-flow counters keyed by flow id, one row schema.

        A controller that samples no window (the fixed window) reports
        ``final_cwnd`` as ``None`` and ``cwnd_samples`` as 0.
        """
        out: dict[str, dict] = {}
        duration = self.duration_s if self.duration_s else None
        for flow_id, flow in self.flows.items():
            bits = flow.delivered_bits
            samples = len(flow.cwnd) if flow.cwnd is not None else 0
            out[flow_id] = {
                "source": flow.source,
                "destination": flow.destination,
                "offered": flow.offered,
                "delivered": flow.delivered,
                "delivered_bits": bits,
                "goodput_bps": (bits / duration) if duration else None,
                "retransmissions": flow.retransmissions,
                "timeouts": flow.timeouts,
                "queue_drops": flow.queue_drops,
                "aborted": flow.aborted,
                "lost": flow.lost,
                "final_cwnd": flow.cwnd.cwnds[-1] if samples else None,
                "cwnd_samples": samples,
            }
        return out

    # ------------------------------------------------------------- resilience
    def record_drop_reason(self, reason: str) -> None:
        """Count one lost payload under its first observed cause."""
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def record_abort_reason(self, reason: str) -> None:
        """Count one aborted ARQ flow under its cause."""
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1

    def record_repair(self, elapsed_s: float) -> None:
        """Record one crash-to-observed-eviction repair latency."""
        self.repair_times_s.append(float(elapsed_s))

    @property
    def mean_time_to_repair_s(self) -> float:
        """Mean latency from a crash to its neighbourhood evicting it."""
        if not self.repair_times_s:
            return float("nan")
        return float(np.mean(self.repair_times_s))

    @property
    def pdr_under_churn(self) -> float:
        """Delivery ratio of payloads offered while a node was down."""
        if not self.churn_offered:
            return float("nan")
        return self.churn_delivered / self.churn_offered

    # --------------------------------------------------------------- energy
    @property
    def energy_proxy_j(self) -> float:
        """Transmit plus receive energy consumed by the whole network."""
        return TX_POWER_W * self.tx_airtime_s + RX_POWER_W * self.rx_airtime_s

    # --------------------------------------------------------------- reports
    def to_dict(self) -> dict:
        """The run's report: the same keys for every run, strict JSON.

        The base delivery, latency and channel counters come first, then
        the congestion section and the resilience section, all flat.  An
        aggregate over nothing (``nan``) is written as ``None``.
        """
        return nan_to_none({
            "offered": self.offered,
            "delivered": self.delivered,
            "packet_delivery_ratio": self.packet_delivery_ratio,
            "mean_latency_s": self.mean_latency_s,
            "median_latency_s": self.median_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "mean_hop_count": self.mean_hop_count,
            "max_hop_count": self.max_hop_count,
            "transmissions": self.transmissions,
            "collisions": self.collisions,
            "link_drops": self.link_drops,
            "duplicates_suppressed": self.duplicates_suppressed,
            "ttl_drops": self.ttl_drops,
            "routing_voids": self.routing_voids,
            "energy_proxy_j": self.energy_proxy_j,
            "queue_drops": self.queue_drops,
            "jain_fairness_index": self.jain_fairness(),
            "aggregate_goodput_bps": self.aggregate_goodput_bps,
            "flows": self.per_flow(),
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
            "abort_reasons": dict(sorted(self.abort_reasons.items())),
            "node_crashes": self.node_crashes,
            "node_recoveries": self.node_recoveries,
            "repairs": len(self.repair_times_s),
            "mean_time_to_repair_s": self.mean_time_to_repair_s,
            "churn_offered": self.churn_offered,
            "churn_delivered": self.churn_delivered,
            "pdr_under_churn": self.pdr_under_churn,
        })

    def summary(self) -> str:
        """Multi-line human-readable report: the base lines, then one
        line per section with data (flows, crashes, losses, aborts, ...)."""
        lines = [
            f"  delivered                : {self.delivered}/{self.offered} "
            f"(PDR {self.packet_delivery_ratio:.1%})",
            f"  end-to-end latency       : mean {self.mean_latency_s:.2f} s, "
            f"median {self.median_latency_s:.2f} s, p95 {self.p95_latency_s:.2f} s",
            f"  hop count                : mean {self.mean_hop_count:.2f}, "
            f"max {self.max_hop_count}",
            f"  transmissions            : {self.transmissions} "
            f"({self.collisions} collided, {self.link_drops} channel losses)",
            f"  duplicates suppressed    : {self.duplicates_suppressed}",
            f"  ttl drops / voids        : {self.ttl_drops} / {self.routing_voids}",
            f"  energy proxy             : {self.energy_proxy_j:.1f} J",
        ]
        flows = self.flows
        aborted = sum(flow.aborted for flow in flows.values())
        if flows or self.queue_drops:
            lines.append(f"  queue drops              : {self.queue_drops}")
        if flows:
            lines.append(
                f"  flows                    : {len(flows)} "
                f"({aborted} aborted) | jain {self.jain_fairness():.3f} | "
                f"aggregate goodput {self.aggregate_goodput_bps:.1f} bps"
            )
            # Per-flow rows stay readable for small deployments and
            # collapse to the aggregate line beyond that.
            if len(flows) <= 8:
                for flow_id, row in self.per_flow().items():
                    goodput = row["goodput_bps"]
                    goodput_text = (
                        f"{goodput:.1f} bps" if goodput is not None else "n/a"
                    )
                    lines.append(
                        f"    {flow_id:<16s}: {row['delivered']}/"
                        f"{row['offered']} delivered, {goodput_text}, "
                        f"{row['retransmissions']} rtx, "
                        f"{row['queue_drops']} queue drops"
                        + (" [ABORTED]" if row["aborted"] else "")
                    )
        if self.node_crashes or self.node_recoveries:
            lines.append(
                f"  node churn               : {self.node_crashes} crashes, "
                f"{self.node_recoveries} recoveries"
            )
        if self.repair_times_s:
            lines.append(
                f"  route repair             : {len(self.repair_times_s)} "
                f"evictions, mean time-to-repair "
                f"{self.mean_time_to_repair_s:.1f} s"
            )
        if self.churn_offered:
            lines.append(
                f"  delivery under churn     : {self.churn_delivered}/"
                f"{self.churn_offered} (PDR {self.pdr_under_churn:.1%})"
            )
        if self.drop_reasons:
            lines.append(
                f"  drop reasons             : {format_reasons(self.drop_reasons)}"
            )
        if flows:
            retransmissions = sum(flow.retransmissions for flow in flows.values())
            lines.append(
                f"  arq retransmissions      : {retransmissions} over "
                f"{len(flows)} flow(s)"
            )
        if aborted:
            lines.append(
                f"  arq flows aborted        : {aborted} "
                f"({format_reasons(self.abort_reasons)})"
            )
        return "\n".join(lines)
