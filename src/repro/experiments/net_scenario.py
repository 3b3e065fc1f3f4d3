"""Declarative description of one *network* experiment point.

The single-link :class:`~repro.experiments.scenario.Scenario` freezes a
point-to-point experiment; :class:`NetScenario` does the same for a
multi-hop :mod:`repro.net` run: deployment shape, routing protocol, link
model, ARQ configuration, traffic workload and seed.  Like ``Scenario``
it is frozen, hashable, picklable and JSON-serializable, so network
points can ride the same sweep/runner machinery and CLI conventions.

>>> from repro.experiments import NetScenario
>>> point = NetScenario(num_nodes=25, routing="greedy", seed=3)
>>> result = point.run()                    # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.environments.sites import SITE_CATALOG
from repro.experiments.scenario import content_hash
from repro.net.congestion import CC_KINDS
from repro.net.links import CalibratedLink, LinkModel, PhysicalLink, calibrate_from_phy
from repro.net.routing import ROUTING_CATALOG, build_routing
from repro.net.simulator import NetworkResult, NetworkSimulator
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import (
    CBRTraffic,
    PoissonTraffic,
    SosBroadcastTraffic,
    TrafficGenerator,
    convergecast_sources,
)
from repro.net.transport import ArqConfig
from repro.utils.validation import (
    require_bool,
    require_dict,
    require_finite,
    require_int,
    require_str,
)

#: Deployment shapes :meth:`NetScenario.build_topology` understands.
TOPOLOGY_KINDS = ("line", "grid", "random")

#: Link-model keys.
LINK_KINDS = ("calibrated", "physical")

#: Traffic workload keys.
TRAFFIC_KINDS = ("poisson", "cbr", "sos", "population")

#: ARQ mode keys (``"none"`` disables reliable transport).
ARQ_KINDS = ("none", "go-back-n", "selective-repeat")


@dataclass(frozen=True)
class NetScenario:
    """One declarative network experiment point.

    Attributes
    ----------
    site:
        ``SITE_CATALOG`` key providing the acoustics.
    topology:
        Deployment shape: ``"line"``, ``"grid"`` or ``"random"``.
    num_nodes:
        Deployment size.
    spacing_m:
        Node spacing (line/grid); the random deployment covers a square
        of side ``spacing_m * sqrt(num_nodes)``.
    comm_range_m:
        Neighbour range; with grid spacing 8 m and range 12 m a packet
        crosses the deployment in several hops.
    depth_m:
        Device depth for regular deployments.
    routing:
        ``ROUTING_CATALOG`` key.
    link:
        ``"calibrated"`` (fast table) or ``"physical"`` (full PHY).
    arq:
        ``"none"``, ``"go-back-n"`` or ``"selective-repeat"``.
    window_size, timeout_s, max_retries:
        ARQ knobs (ignored for ``arq="none"``).
    cc:
        Congestion controller per ARQ flow: ``"fixed"`` (the bit-exact
        legacy window) or ``"reno"`` (AIMD with adaptive RTO).
    num_flows:
        When set, run this many concurrent convergecast flows: the
        ``num_flows`` nodes farthest from the destination (default
        ``"n0"``) each source the configured traffic towards it, sharing
        relays -- the multi-flow contention workload.  ``None`` keeps
        the legacy all-to-one/random workloads.
    queue_capacity:
        When set, bound every node's transmit buffer to this many
        packets (tail drop, accounted as ``queue_drops``).
    traffic:
        ``"poisson"``, ``"cbr"``, ``"sos"`` or ``"population"`` (the
        :class:`~repro.trace.population.PopulationWorkload` user-group
        synthesis: sessions, diurnal swing, heavy-tailed sizes).
    rate_msgs_per_s:
        Per-source Poisson rate (or ``1/interval`` for CBR).
    duration_s:
        Traffic horizon; the run drains all in-flight events afterwards.
    destination:
        Fixed destination node name, or ``None`` for random peers
        (``sos`` traffic broadcasts from node ``n0`` instead).
    ttl:
        Hop budget per packet copy.
    seed:
        Master seed; identical scenarios replay identically.
    calibration_packets_per_point:
        When set (and ``link="calibrated"``), the PER/bitrate table is
        measured freshly from the PHY with this many packets per distance
        instead of replaying the baked lake table -- the interactive
        rebuild the frequency-domain fast path makes affordable.
    calibration_progress:
        Emit per-distance progress/ETA lines on stderr while measuring
        the calibration table.  Off by default so library users (and
        parallel sweep workers) stay quiet; the CLI turns it on.
    faults_json:
        Canonical JSON of a :class:`~repro.faults.schedule.FaultSchedule`
        to inject into the run (``""`` = no faults).  Stored as a string
        so the scenario stays frozen/hashable and the schedule enters the
        scenario identity verbatim -- two scenarios with the same faults
        hash identically.
    label:
        Free-form tag for reports.
    """

    site: str = "lake"
    topology: str = "grid"
    num_nodes: int = 9
    spacing_m: float = 8.0
    comm_range_m: float = 12.0
    depth_m: float = 1.0
    routing: str = "greedy"
    link: str = "calibrated"
    arq: str = "go-back-n"
    window_size: int = 4
    timeout_s: float = 6.0
    max_retries: int = 4
    cc: str = "fixed"
    num_flows: int | None = None
    queue_capacity: int | None = None
    traffic: str = "poisson"
    rate_msgs_per_s: float = 0.02
    duration_s: float = 120.0
    destination: str | None = None
    ttl: int = 8
    seed: int = 0
    calibration_packets_per_point: int | None = None
    calibration_progress: bool = False
    faults_json: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITE_CATALOG:
            raise ValueError(
                f"unknown site {self.site!r}; known: {', '.join(sorted(SITE_CATALOG))}"
            )
        for value, options, kind in (
            (self.topology, TOPOLOGY_KINDS, "topology"),
            (self.link, LINK_KINDS, "link"),
            (self.traffic, TRAFFIC_KINDS, "traffic"),
            (self.arq, ARQ_KINDS, "arq"),
        ):
            if value not in options:
                raise ValueError(
                    f"unknown {kind} {value!r}; known: {', '.join(options)}"
                )
        if self.routing not in ROUTING_CATALOG:
            raise ValueError(
                f"unknown routing {self.routing!r}; known: "
                f"{', '.join(sorted(ROUTING_CATALOG))}"
            )
        if self.cc not in CC_KINDS:
            raise ValueError(
                f"unknown cc {self.cc!r}; known: {', '.join(CC_KINDS)}"
            )
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be at least 2")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if self.ttl < 1:
            raise ValueError("ttl must be at least 1")
        if self.num_flows is not None:
            if self.num_flows < 1:
                raise ValueError("num_flows must be at least 1")
            if self.num_flows > self.num_nodes - 1:
                raise ValueError(
                    f"num_flows={self.num_flows} needs that many "
                    f"non-destination nodes; num_nodes={self.num_nodes} "
                    f"provides {self.num_nodes - 1}"
                )
            if self.traffic not in ("poisson", "cbr"):
                raise ValueError(
                    "num_flows requires poisson or cbr traffic (the other "
                    "workloads define their own sources)"
                )
            if self.arq == "none":
                raise ValueError(
                    "num_flows describes concurrent ARQ flows; it needs "
                    "arq != 'none'"
                )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_msgs_per_s <= 0:
            raise ValueError("rate_msgs_per_s must be positive")
        if self.routing == "greedy-depth" and self.arq != "none":
            raise ValueError(
                "greedy-depth routing only moves packets shallower, so ARQ "
                "acknowledgements can never return to the sender; use "
                "arq='none' (unacknowledged convergecast) with it"
            )
        if self.destination is not None:
            known = {f"n{i}" for i in range(self.num_nodes)}
            if self.destination not in known:
                raise ValueError(
                    f"destination {self.destination!r} is not one of the "
                    f"{self.num_nodes} generated nodes (n0..n{self.num_nodes - 1})"
                )
        if self.calibration_packets_per_point is not None:
            if self.calibration_packets_per_point < 1:
                raise ValueError("calibration_packets_per_point must be at least 1")
            if self.link != "calibrated":
                raise ValueError(
                    "calibration_packets_per_point only applies to "
                    "link='calibrated' (the physical link runs the full PHY "
                    "per packet and needs no table)"
                )
        if self.faults_json:
            # Parse eagerly so an invalid schedule fails at declaration
            # time, like every other scenario field.
            self.fault_schedule()

    # ------------------------------------------------------------- components
    def fault_schedule(self):
        """Parse ``faults_json`` (``None`` when the scenario is fault-free)."""
        if not self.faults_json:
            return None
        from repro.faults import FaultSchedule

        return FaultSchedule.from_json(self.faults_json)

    def with_faults(self, schedule) -> "NetScenario":
        """Copy with a :class:`FaultSchedule` (or ``None``) installed."""
        return self.replace(
            faults_json="" if schedule is None else schedule.to_json()
        )

    def build_topology(self) -> AcousticNetTopology:
        """Construct the deployment this scenario describes."""
        site = SITE_CATALOG[self.site]
        if self.topology == "random":
            side = self.spacing_m * math.sqrt(self.num_nodes)
            return AcousticNetTopology.random_deployment(
                self.num_nodes, (side, side), site=site,
                comm_range_m=self.comm_range_m, seed=self.seed,
            )
        topology = AcousticNetTopology(site=site, comm_range_m=self.comm_range_m)
        cols = (
            self.num_nodes
            if self.topology == "line"
            else int(math.ceil(math.sqrt(self.num_nodes)))
        )
        for index in range(self.num_nodes):
            topology.add_node(
                f"n{index}",
                (index % cols) * self.spacing_m,
                (index // cols) * self.spacing_m,
                self.depth_m,
            )
        return topology

    def build_link_model(self) -> LinkModel:
        """Construct the configured per-hop link model."""
        if self.link == "physical":
            return PhysicalLink(site=SITE_CATALOG[self.site], seed=self.seed + 77)
        if self.calibration_packets_per_point is not None:
            calibration = calibrate_from_phy(
                site=self.site,
                packets_per_point=self.calibration_packets_per_point,
                seed=self.seed + 177,
                progress=self.calibration_progress,
            )
            return CalibratedLink(calibration)
        return CalibratedLink()

    def build_traffic(self) -> TrafficGenerator:
        """Construct the configured workload."""
        if self.traffic == "population":
            from repro.trace.population import PopulationWorkload

            # Two diurnal cycles per run keeps the burst/lull contrast
            # visible at any duration; the remaining knobs ride the
            # module defaults (buddy groups of 4, 35% duty, lognormal
            # sizes) so a scenario stays a one-line declaration.
            return PopulationWorkload(
                duration_s=self.duration_s,
                base_rate_msgs_per_s=self.rate_msgs_per_s,
                diurnal_period_s=self.duration_s / 2.0,
            )
        if self.traffic == "sos":
            times = tuple(
                float(t) for t in range(0, int(self.duration_s), 30)
            ) or (0.0,)
            return SosBroadcastTraffic("n0", times_s=times)
        sources = None
        destination = self.destination
        if self.num_flows is not None:
            # Convergecast: the num_flows farthest nodes all send to one
            # sink, sharing the relays near it.  Building the (cheap,
            # deterministic) topology here keeps the traffic declaration
            # self-contained.
            destination = self.destination or "n0"
            sources = convergecast_sources(
                self.build_topology(), self.num_flows, destination
            )
        if self.traffic == "cbr":
            return CBRTraffic(
                interval_s=1.0 / self.rate_msgs_per_s,
                duration_s=self.duration_s,
                sources=sources,
                destination=destination,
            )
        return PoissonTraffic(
            rate_msgs_per_s=self.rate_msgs_per_s,
            duration_s=self.duration_s,
            sources=sources,
            destination=destination,
        )

    def build_simulator(self, observer=None) -> NetworkSimulator:
        """Construct the fully wired simulator for this scenario.

        ``observer`` (a :class:`~repro.net.simulator.NetObserver`, e.g. a
        :class:`~repro.trace.capture.TraceRecorder`) taps the app layer
        without entering the scenario's identity: observation must never
        change a scenario hash or its results.
        """
        arq = (
            None
            if self.arq == "none"
            else ArqConfig(
                window_size=self.window_size,
                seq_modulus=max(2 * self.window_size, 8),
                timeout_s=self.timeout_s,
                max_retries=self.max_retries,
                mode=self.arq,
            )
        )
        topology = self.build_topology()
        faults = None
        if self.faults_json:
            from repro.faults import FaultInjector

            schedule = self.fault_schedule()
            schedule.validate_names(topology.names)
            faults = FaultInjector(schedule)
        return NetworkSimulator(
            topology=topology,
            routing=build_routing(self.routing),
            link_model=self.build_link_model(),
            arq=arq,
            ttl=self.ttl,
            seed=self.seed + 1,
            observer=observer,
            cc=self.cc,
            queue_capacity=self.queue_capacity,
            faults=faults,
        )

    # ------------------------------------------------------------------- misc
    def replace(self, **changes) -> "NetScenario":
        """Copy with some fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-safe dictionary form (all fields are primitives)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetScenario":
        """Rebuild from :meth:`to_dict` output, failing closed.

        Every field is read once through :mod:`repro.utils.validation`, by
        its declared type: an unknown key, a wrong type or a non-finite
        number raises :class:`ValueError`, as the scenario's own checks do
        for a bad value.  A key the document lacks keeps its default, so
        a trace captured before a field existed still replays as it ran.
        """
        data = require_dict(data, "scenario")
        unknown = sorted(set(data) - set(_FIELD_READERS))
        if unknown:
            raise ValueError(f"scenario: unknown field(s) {', '.join(map(repr, unknown))}")
        values = {}
        for name, value in data.items():
            read, nullable = _FIELD_READERS[name]
            values[name] = None if nullable and value is None else read(value, f"scenario {name}")
        return cls(**values)

    def scenario_hash(self) -> str:
        """Stable content hash (cache key)."""
        return content_hash(self.to_dict())

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            self.label or None,
            self.site,
            f"{self.num_nodes} nodes ({self.topology})",
            self.routing,
            self.link,
            None if self.arq == "none" else self.arq,
            None if self.cc == "fixed" else f"cc {self.cc}",
            None if self.num_flows is None else f"{self.num_flows} flows",
            None
            if not self.faults_json
            else (
                "faults"
                if self.fault_schedule().repair
                else "faults (no repair)"
            ),
            f"{self.traffic} {self.duration_s:g} s",
            f"seed {self.seed}",
        ]
        return " | ".join(p for p in parts if p)

    def run(self) -> NetworkResult:
        """Run the scenario in this process."""
        return self.build_simulator().run(traffic=self.build_traffic())


#: How :meth:`NetScenario.from_dict` reads each field: the reader of its
#: declared type (annotations are strings under postponed evaluation) and
#: whether ``null`` is allowed.
_FIELD_READERS = {
    field.name: (
        {"str": require_str, "int": require_int, "float": require_finite, "bool": require_bool}[
            field.type.removesuffix(" | None")
        ],
        field.type.endswith(" | None"),
    )
    for field in dataclasses.fields(NetScenario)
}
