"""Multi-hop underwater acoustic network simulator.

The paper's evaluation stops at single-hop links plus a 2-3 transmitter
carrier-sense MAC; its stated vision, however, is group messaging among
divers *beyond direct acoustic range*.  This package provides the network
layer that vision needs, as a discrete-event simulation stacked on top of
the existing channel/link machinery:

* :mod:`~repro.net.scheduler` -- a generic discrete-event :class:`Scheduler`;
* :mod:`~repro.net.topology` -- :class:`AcousticNetTopology`: node
  positions, per-pair distances and propagation delays derived
  from :mod:`repro.channel.physics`;
* :mod:`~repro.net.routing` -- pluggable :class:`RoutingProtocol`
  implementations (flooding, static shortest path, distance/depth greedy
  forwarding);
* :mod:`~repro.net.transport` -- sliding-window ARQ (Go-Back-N and
  selective repeat) generalizing the single-packet retry logic of
  :class:`repro.app.messenger.Messenger`;
* :mod:`~repro.net.links` -- interchangeable link models:
  :class:`PhysicalLink` runs the full PHY per packet, while
  :class:`CalibratedLink` replays a PER/bitrate-vs-distance table
  calibrated from the PHY so thousand-node scenarios run in seconds;
* :mod:`~repro.net.traffic` -- Poisson/CBR/SOS-broadcast generators;
* :mod:`~repro.net.congestion` -- pluggable congestion control
  (:class:`FixedWindow`, Reno-style AIMD with adaptive RTO) for
  many-flow scenarios;
* :mod:`~repro.net.metrics` -- PDR, end-to-end latency, hop counts,
  goodput, per-flow accounting with Jain fairness, and an energy proxy;
* :mod:`~repro.net.simulator` -- :class:`NetworkSimulator` gluing it all
  together, with an optional tail-drop bound on every node's queue.
"""

from repro.net.congestion import (
    CC_KINDS,
    AdaptiveRto,
    CongestionController,
    CwndTrajectory,
    FixedWindow,
    RenoController,
    build_controller,
    jain_fairness_index,
)
from repro.net.links import (
    CalibratedLink,
    LinkCalibration,
    LinkModel,
    LinkOutcome,
    PhysicalLink,
    calibrate_from_phy,
)
from repro.net.metrics import DeliveryRecord, NetworkMetrics
from repro.net.packet import BROADCAST, NetPacket
from repro.net.routing import (
    ROUTING_CATALOG,
    FloodingRouting,
    GreedyForwarding,
    RoutingProtocol,
    StaticShortestPathRouting,
    build_routing,
)
from repro.net.scheduler import Event, Scheduler
from repro.net.simulator import NetObserver, NetworkResult, NetworkSimulator
from repro.net.topology import AcousticNetTopology, NodePosition
from repro.net.traffic import (
    AppMessage,
    CBRTraffic,
    PoissonTraffic,
    SosBroadcastTraffic,
    TrafficGenerator,
)
from repro.net.transport import ArqConfig, ArqReceiver, ArqSender, FlowStats, Segment

__all__ = [
    "AcousticNetTopology",
    "AdaptiveRto",
    "AppMessage",
    "ArqConfig",
    "ArqReceiver",
    "ArqSender",
    "BROADCAST",
    "CBRTraffic",
    "CC_KINDS",
    "CalibratedLink",
    "CongestionController",
    "CwndTrajectory",
    "DeliveryRecord",
    "Event",
    "FixedWindow",
    "FloodingRouting",
    "FlowStats",
    "GreedyForwarding",
    "LinkCalibration",
    "LinkModel",
    "LinkOutcome",
    "NetObserver",
    "NetPacket",
    "NetworkMetrics",
    "NetworkResult",
    "NetworkSimulator",
    "NodePosition",
    "PhysicalLink",
    "PoissonTraffic",
    "ROUTING_CATALOG",
    "RenoController",
    "RoutingProtocol",
    "Scheduler",
    "Segment",
    "SosBroadcastTraffic",
    "StaticShortestPathRouting",
    "TrafficGenerator",
    "build_controller",
    "build_routing",
    "calibrate_from_phy",
    "jain_fairness_index",
]
