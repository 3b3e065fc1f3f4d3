"""Discrete-event simulation of an N-node underwater acoustic network.

:class:`NetworkSimulator` drives one scenario: application messages from
a :class:`~repro.net.traffic.TrafficGenerator` enter at their sources,
a :class:`~repro.net.routing.RoutingProtocol` picks relays hop by hop, a
:class:`~repro.net.links.LinkModel` resolves each hop's delivery, and --
when an :class:`~repro.net.transport.ArqConfig` is given -- sliding-window
ARQ flows provide end-to-end reliability.  Every action is an event on
one :class:`~repro.net.scheduler.Scheduler`, so propagation delays
(distance over the shared sound speed), transmission airtimes and ARQ
timers interleave exactly once, in time order, per seed.

The acoustic medium semantics mirror the MAC layer's: a transmission is a
local broadcast heard by every in-range neighbour, a node is half-duplex
(it cannot receive while transmitting), and two receptions overlapping in
time at the same node collide and destroy each other -- which is what
makes the "collision, then ARQ retry" sequence of the tests physical
rather than scripted.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.congestion import CC_KINDS, build_controller
from repro.net.links import CalibratedLink, LinkModel
from repro.net.metrics import DeliveryRecord, FlowRecord, NetworkMetrics
from repro.net.packet import BROADCAST, DEFAULT_TTL, NetPacket
from repro.net.routing import FloodingRouting, RoutingProtocol
from repro.net.scheduler import Event, Scheduler
from repro.net.topology import AcousticNetTopology
from repro.net.traffic import AppMessage, TrafficGenerator
from repro.net.transport import ArqConfig, ArqReceiver, ArqSender, Segment
from repro.utils.progress import progress_sink
from repro.utils.rng import ensure_rng

#: Size of an ACK packet on the wire (bits).
ACK_SIZE_BITS = 8

#: Events between two progress emissions of :meth:`NetworkSimulator.run`.
PROGRESS_CHUNK_EVENTS = 20_000

#: Relays wait a uniform random delay up to this bound (seconds) before
#: re-transmitting.  Without it, equidistant relays of the same flood
#: rebroadcast at the identical instant and their copies collide
#: deterministically (the broadcast-storm pathology).
FORWARD_JITTER_S = 0.15


class NetObserver:
    """App-layer instrumentation hooks on :class:`NetworkSimulator`.

    Subclass and override the hooks of interest; the base class is a
    no-op, so observers only pay for what they watch.  The concrete
    trace recorder lives in :mod:`repro.trace.capture` -- this base stays
    in :mod:`repro.net` so the simulator depends on nothing above it.
    """

    def on_send(self, time_s: float, uid: int, message: AppMessage, kind: str) -> None:
        """An application message entered the network as payload ``uid``."""

    def on_delivery(self, record: DeliveryRecord) -> None:
        """A payload reached (one of) its destination(s)."""

    def on_drop(self, record: DeliveryRecord, time_s: float, reason: str = "") -> None:
        """A payload was finalized as lost when the run drained.

        ``reason`` names the first cause observed for the payload
        (``ttl``, ``void``, ``queue-drop``, ``dest-dead``,
        ``source-dead``; ``expired`` when nothing more specific was
        seen).
        """

    def on_flow_abort(self, time_s: float, flow_id: str, reason: str = "") -> None:
        """An ARQ flow was aborted (``max-retry``, ``dest-dead``,
        ``source-dead`` or ``no-route``)."""


@dataclass
class _NodeState:
    """Runtime state of one node."""

    name: str
    queue: deque = field(default_factory=deque, init=False)
    tx_busy_until_s: float = 0.0
    seen_uids: set = field(default_factory=set, init=False)
    #: Pending/recent reception intervals: [start, end, event-or-None].
    receptions: list = field(default_factory=list, init=False)
    #: Physical liveness (fault injection); a dead node neither receives
    #: nor transmits, but stays in routing views until *observed* dead.
    alive: bool = True


@dataclass
class _PendingDelivery:
    """A payload awaiting its delivery record."""

    uid: int
    source: str
    destination: str
    created_s: float
    kind: str
    #: First observed cause of loss ("" until a copy dies with a cause).
    reason: str = ""
    #: Whether the payload was offered while some node was down.
    churn: bool = False


@dataclass
class NetworkResult:
    """Everything one :meth:`NetworkSimulator.run` produced: the metrics
    ledger (per-flow books included) plus the run's size and stack."""

    metrics: NetworkMetrics
    duration_s: float
    num_nodes: int
    routing_name: str
    link_name: str
    num_events: int

    @property
    def total_retransmissions(self) -> int:
        """ARQ retransmissions summed over all flow epochs."""
        return sum(flow.retransmissions for flow in self.metrics.flows.values())

    @property
    def aborted_flows(self) -> int:
        """ARQ flow epochs that ended aborted."""
        return sum(flow.aborted for flow in self.metrics.flows.values())

    def describe(self) -> str:
        """Human-readable report of the run."""
        header = (
            f"{self.num_nodes} nodes | routing {self.routing_name} | "
            f"link {self.link_name} | {self.duration_s:.1f} s simulated | "
            f"{self.num_events} events"
        )
        return f"{header}\n{self.metrics.summary()}"

    def to_dict(self) -> dict:
        """JSON-safe summary."""
        data = self.metrics.to_dict()
        data.update(
            duration_s=self.duration_s,
            num_nodes=self.num_nodes,
            routing=self.routing_name,
            link=self.link_name,
            num_events=self.num_events,
            total_retransmissions=self.total_retransmissions,
            aborted_flows=self.aborted_flows,
        )
        return data


class NetworkSimulator:
    """One multi-hop network scenario, run event by event.

    Parameters
    ----------
    topology:
        Node deployment (positions and ranges).
    routing:
        Relay selection protocol.
    link_model:
        Per-hop delivery model (defaults to the fast calibrated table).
    arq:
        Enable end-to-end reliable transport with this configuration;
        ``None`` sends unacknowledged datagrams.
    ttl:
        Hop budget per packet copy.
    seed:
        Master seed; a given (topology, traffic, seed) triple replays
        bit-identically.
    observer:
        Optional :class:`NetObserver` receiving app-layer hooks (sends,
        deliveries, drops, flow aborts) -- how :mod:`repro.trace`
        captures a run without the simulator knowing about traces.
        Observing a run never changes it: each delivery and drop is one
        :class:`~repro.net.metrics.DeliveryRecord`, stored in the
        metrics and then passed to the hook.
    cc:
        Congestion controller per ARQ flow, a kind name from
        :data:`~repro.net.congestion.CC_KINDS`; every flow epoch gets a
        fresh :func:`~repro.net.congestion.build_controller` instance.
        The default ``"fixed"`` is bit-identical to the pre-congestion
        simulator.  Every ARQ flow keeps its books in
        :attr:`NetworkMetrics.flows`, and every report shows them.
    queue_capacity:
        Bound every node's transmit buffer to this many packets; a packet
        arriving at a full buffer is tail-dropped and counted in
        ``queue_drops``.  ``None`` (default) keeps the queues unbounded.
    faults:
        Optional fault injector (duck-typed: anything with an
        ``install(simulator)`` method, canonically
        :class:`repro.faults.FaultInjector`).  An injector whose
        schedule is empty installs nothing, keeping the run bit-identical
        to ``faults=None``.
    """

    def __init__(
        self,
        topology: AcousticNetTopology,
        routing: RoutingProtocol,
        link_model: LinkModel | None = None,
        arq: ArqConfig | None = None,
        ttl: int = DEFAULT_TTL,
        seed: int | np.random.Generator | None = None,
        observer: NetObserver | None = None,
        cc: str = "fixed",
        queue_capacity: int | None = None,
        faults: object | None = None,
    ) -> None:
        if topology.num_nodes < 2:
            raise ValueError("the network needs at least two nodes")
        self.topology = topology
        self.routing = routing
        self.link_model = link_model if link_model is not None else CalibratedLink()
        self.arq = arq
        self.ttl = int(ttl)
        if cc not in CC_KINDS:
            raise ValueError(f"cc must be one of {CC_KINDS}, got {cc!r}")
        self.cc = cc
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.queue_capacity = queue_capacity
        self.observer = observer if observer is not None else NetObserver()
        self._rng = ensure_rng(seed)
        self._scheduler = Scheduler()
        self._nodes = {name: _NodeState(name) for name in topology.names}
        # Per-sender fan-out cache: the neighbour table's receiver states
        # in table order, keyed by table identity (a membership change
        # yields a new table object, invalidating the entry).
        self._fanout: dict[str, tuple[object, list[_NodeState]]] = {}
        # (sender, target, size_bits) -> cached unicast transmit plan
        # (see _transmit); validated against the topology version.
        self._txplans: dict[tuple[str, str, int], tuple] = {}
        self._uids = itertools.count()
        self._metrics = NetworkMetrics()
        self._pending: dict[tuple[str, int], _PendingDelivery] = {}
        self._payload_sizes: dict[int, int] = {}
        # ARQ payload uid -> its flow's books, until delivered or lost.
        self._payload_flow: dict[int, FlowRecord] = {}
        self._broadcast_routing = FloodingRouting()
        # Current-epoch sender per (source, destination); an aborted flow is
        # replaced by a fresh epoch (new flow_id) on the next message, like a
        # connection reset.  Receivers and stats are keyed by flow_id.
        self._senders: dict[tuple[str, str], ArqSender] = {}
        self._senders_by_id: dict[str, ArqSender] = {}
        self._receivers: dict[str, ArqReceiver] = {}
        self._flow_epochs: dict[tuple[str, str], int] = {}
        self._flow_timers: dict[tuple[str, str], Event] = {}
        self.faults = faults
        #: Set by a non-empty injector at install time; ``None`` keeps
        #: every fault-path branch a single attribute test, so the
        #: fault-free run is bit-identical to the pre-faults simulator.
        self._fault_hooks = None
        #: Broadcast payloads kept for recovery re-flooding (faults only).
        self._broadcast_store: dict[int, NetPacket] = {}
        self._ran = False

    # -------------------------------------------------------------- injection
    def send_message(
        self, source: str, destination: str, time_s: float = 0.0, size_bits: int = 16
    ) -> None:
        """Schedule one application message (callable before :meth:`run`)."""
        message = AppMessage(float(time_s), source, destination, int(size_bits))
        if message.source not in self.topology:
            raise ValueError(f"unknown source {message.source!r}")
        if message.destination != BROADCAST and message.destination not in self.topology:
            raise ValueError(f"unknown destination {message.destination!r}")
        self._scheduler.at(message.time_s, lambda: self._on_app_message(message))

    # ------------------------------------------------------------------- run
    def run(
        self,
        traffic: TrafficGenerator | None = None,
        until_s: float | None = None,
        max_events: int = 2_000_000,
        progress: bool | Callable[[str], None] = False,
    ) -> NetworkResult:
        """Execute the scenario and return its metrics.

        The event queue drains naturally: traffic is finite, every packet
        copy carries a TTL, and ARQ flows stop once done or aborted, so
        ``until_s`` is a cap, not a requirement.

        ``progress`` enables periodic progress/ETA lines while the event
        queue drains (``True`` prints to stderr; a callable receives each
        line), mirroring the ``calibrate_from_phy`` idiom so long runs
        are followable from the CLI.
        """
        if self._ran:
            raise RuntimeError(
                "NetworkSimulator.run is one-shot; build a new simulator "
                "(same seed) to replay the scenario"
            )
        self._ran = True
        if traffic is not None:
            # Traffic expansion draws from its own stream, derived with a
            # single draw from the master generator.  The simulation's
            # draw sequence is therefore independent of how many draws
            # the generator consumed -- which is what lets a replayed
            # trace (zero draws, see repro.trace) reproduce the original
            # run's event interleaving bit for bit.
            traffic_rng = np.random.default_rng(
                int(self._rng.integers(0, 2 ** 63 - 1))
            )
            for message in traffic.messages(self.topology, traffic_rng):
                self.send_message(
                    message.source, message.destination, message.time_s,
                    message.size_bits,
                )
        self.routing.prepare(self.topology)
        if self.faults is not None:
            self.faults.install(self)
        self._drain(until_s, max_events, progress)
        self._finalize_lost()
        self._metrics.duration_s = self._scheduler.now_s
        for flow_id, sender in self._senders_by_id.items():
            flow = self._metrics.flows[flow_id]
            flow.retransmissions = sender.stats.retransmissions
            flow.timeouts = sender.stats.timeouts
            flow.aborted = sender.failed
            flow.cwnd = sender.controller.trajectory
        return NetworkResult(
            metrics=self._metrics,
            duration_s=self._scheduler.now_s,
            num_nodes=self.topology.num_nodes,
            routing_name=self.routing.name,
            link_name=self.link_model.name,
            num_events=self._scheduler.num_processed,
        )

    def _drain(
        self,
        until_s: float | None,
        max_events: int,
        progress: bool | Callable[[str], None],
    ) -> None:
        """Run the event queue, optionally emitting progress/ETA lines."""
        emit = progress_sink(progress)
        if emit is None:
            self._scheduler.run(until_s=until_s, max_events=max_events)
            return
        started = time.perf_counter()
        processed = 0
        while processed < max_events:
            chunk = min(PROGRESS_CHUNK_EVENTS, max_events - processed)
            ran = self._scheduler.run(until_s=until_s, max_events=chunk)
            processed += ran
            elapsed = time.perf_counter() - started
            now = self._scheduler.now_s
            if until_s is not None and now > 0:
                # Sim-time fraction gives the honest ETA when a horizon
                # is known; otherwise fall back to the queue's backlog.
                remaining = elapsed / now * max(0.0, until_s - now)
            elif processed > 0:
                remaining = elapsed / processed * self._scheduler.num_pending
            else:
                remaining = 0.0
            emit(
                f"net run: {processed} events, t={now:.1f} s sim, "
                f"{self._scheduler.num_pending} pending "
                f"({elapsed:.1f}s elapsed, eta {remaining:.1f}s)"
            )
            if ran < chunk:
                break

    def _finalize_lost(self) -> None:
        now = self._scheduler.now_s
        metrics = self._metrics
        hooks = self._fault_hooks
        for pending in self._pending.values():
            # In-flight payloads are charged to their flow as losses, not
            # leaked as forever-pending epoch state: a destination that
            # disappeared mid-flight still settles its flow's books.
            flow = self._payload_flow.pop(pending.uid, None)
            if flow is not None:
                flow.lost += 1
            self._payload_sizes.pop(pending.uid, None)
            reason = pending.reason
            if not reason:
                if hooks is not None and not self._nodes[pending.destination].alive:
                    reason = "dest-dead"
                else:
                    reason = "expired"
            metrics.record_drop_reason(reason)
            record = DeliveryRecord(
                uid=pending.uid,
                source=pending.source,
                destination=pending.destination,
                created_s=pending.created_s,
                kind=pending.kind,
            )
            metrics.add(record)
            self.observer.on_drop(record, now, reason)
        self._pending.clear()

    # -------------------------------------------------------------- app layer
    def _on_app_message(self, message: AppMessage) -> None:
        now = self._scheduler.now_s
        hooks = self._fault_hooks
        churn = hooks is not None and hooks.any_down
        base_reason = ""
        if hooks is not None and not self._nodes[message.source].alive:
            base_reason = "source-dead"
        if message.destination == BROADCAST:
            uid = next(self._uids)
            # One pending record per potential receiver: broadcast PDR is
            # the fraction of the group the beacon reaches.
            for name in self.topology.names:
                if name != message.source:
                    self._pending[(name, uid)] = _PendingDelivery(
                        uid, message.source, name, now, "broadcast",
                        reason=base_reason, churn=churn,
                    )
                    if churn:
                        self._metrics.churn_offered += 1
            packet = NetPacket(
                uid=uid, kind="raw", source=message.source,
                destination=BROADCAST, created_s=now, ttl=self.ttl,
                size_bits=message.size_bits,
            )
            if hooks is not None:
                # Remembered for re-flooding toward recovered nodes.
                self._broadcast_store[uid] = packet
            self.observer.on_send(now, uid, message, "broadcast")
            self._enqueue(message.source, packet)
            return
        if self.arq is None:
            uid = next(self._uids)
            self._pending[(message.destination, uid)] = _PendingDelivery(
                uid, message.source, message.destination, now, "raw",
                reason=base_reason, churn=churn,
            )
            if churn:
                self._metrics.churn_offered += 1
            packet = NetPacket(
                uid=uid, kind="raw", source=message.source,
                destination=message.destination, created_s=now, ttl=self.ttl,
                size_bits=message.size_bits,
            )
            self.observer.on_send(now, uid, message, "raw")
            self._enqueue(message.source, packet)
            return
        # Reliable flow: the payload *is* the delivery-record uid.
        if base_reason or (
            hooks is not None and hooks.observed_dead(message.destination)
        ):
            # Graceful degradation: a dead source cannot open a flow, and
            # a source that has *observed* its destination dead refuses
            # the payload up front instead of burning a retry budget.
            uid = next(self._uids)
            self._pending[(message.destination, uid)] = _PendingDelivery(
                uid, message.source, message.destination, now, "data",
                reason=base_reason or "dest-dead", churn=churn,
            )
            if churn:
                self._metrics.churn_offered += 1
            self.observer.on_send(now, uid, message, "data")
            return
        key = (message.source, message.destination)
        sender = self._senders.get(key)
        if sender is None or sender.failed:
            epoch = self._flow_epochs.get(key, -1) + 1
            self._flow_epochs[key] = epoch
            sender = ArqSender(
                f"{key[0]}>{key[1]}#{epoch}", self.arq,
                build_controller(self.cc, self.arq),
            )
            self._senders[key] = sender
            self._senders_by_id[sender.flow_id] = sender
            self._metrics.register_flow(sender.flow_id, key[0], key[1])
        uid = next(self._uids)
        self._pending[(message.destination, uid)] = _PendingDelivery(
            uid, message.source, message.destination, now, "data", churn=churn
        )
        if churn:
            self._metrics.churn_offered += 1
        self._payload_sizes[uid] = message.size_bits
        flow = self._metrics.flows[sender.flow_id]
        flow.offered += 1
        self._payload_flow[uid] = flow
        self.observer.on_send(now, uid, message, "data")
        sender.offer(uid)
        self._pump_flow(key)

    # -------------------------------------------------------------- transport
    def _segment_packet(self, key: tuple[str, str], segment: Segment) -> NetPacket:
        source, destination = key
        # The segment payload is the delivery-record uid; look its size up
        # so ARQ airtime/energy accounting honours AppMessage.size_bits.
        size_bits = self._payload_sizes.get(segment.payload, 16)
        return NetPacket(
            uid=next(self._uids), kind="data", source=source,
            destination=destination, created_s=self._scheduler.now_s,
            ttl=self.ttl, size_bits=size_bits, segment=segment,
        )

    def _pump_flow(self, key: tuple[str, str]) -> None:
        """Send whatever the flow's window newly allows, then arm its timer."""
        sender = self._senders[key]
        now = self._scheduler.now_s
        for segment in sender.window_transmissions(now):
            self._enqueue(key[0], self._segment_packet(key, segment))
        self._arm_flow_timer(key)

    def _arm_flow_timer(self, key: tuple[str, str]) -> None:
        sender = self._senders[key]
        existing = self._flow_timers.pop(key, None)
        if existing is not None:
            self._scheduler.cancel(existing)
        deadline = sender.next_timeout_s()
        if deadline is None:
            return
        # Random jitter desynchronizes flows whose packets collided: with
        # deterministic timers two synchronized losers would re-collide on
        # every retry forever.
        jitter = float(self._rng.uniform(0.0, 0.25 * self.arq.timeout_s))
        deadline = max(deadline, self._scheduler._now_s) + jitter
        # The (source, destination) names are the timer's scheduler
        # tie-break: same-instant timers of different flows fire in name
        # order, not flow-creation order, keeping many-flow runs
        # bit-reproducible across traffic insertion order.
        self._flow_timers[key] = self._scheduler.at(
            deadline, lambda: self._on_flow_timeout(key), key=key
        )

    def _on_flow_timeout(self, key: tuple[str, str]) -> None:
        self._flow_timers.pop(key, None)
        sender = self._senders[key]
        was_failed = sender.failed
        for segment in sender.on_timeout(self._scheduler.now_s):
            self._enqueue(key[0], self._segment_packet(key, segment))
        if sender.failed and not was_failed:
            reason = self._abort_reason(key)
            self._metrics.record_abort_reason(reason)
            self.observer.on_flow_abort(
                self._scheduler.now_s, sender.flow_id, reason
            )
        self._arm_flow_timer(key)

    def _abort_reason(self, key: tuple[str, str]) -> str:
        """Classify a flow abort; fault context refines plain max-retry."""
        if self._fault_hooks is not None:
            source, destination = key
            if not self._nodes[destination].alive:
                return "dest-dead"
            if not self._nodes[source].alive:
                return "source-dead"
            if not self._route_exists(source, destination):
                return "no-route"
        return "max-retry"

    def _route_exists(self, source: str, destination: str) -> bool:
        routing = self.routing
        has_route = getattr(routing, "has_route", None)
        if has_route is not None:
            return bool(has_route(source, destination))
        probe = NetPacket(
            uid=-1, kind="data", source=source, destination=destination,
            created_s=self._scheduler.now_s, ttl=self.ttl,
        )
        return bool(routing.next_hops(source, probe, self.topology))

    # ----------------------------------------------------------------- faults
    def fail_node(self, name: str) -> None:
        """Physically crash a node: no reception, relaying or sending.

        Deliberately *not* a topology change -- the dead node stays in
        every neighbour table and route until the liveness layer observes
        its silence (or forever, with repair disabled), so senders keep
        wasting airtime into it exactly as a real network would.
        """
        node = self._nodes[name]
        if not node.alive:
            return
        node.alive = False
        node.queue.clear()
        for entry in node.receptions:
            event = entry[2]
            if event is not None and not event.cancelled:
                self._scheduler.cancel(event)
        node.receptions.clear()

    def recover_node(self, name: str) -> None:
        """Bring a crashed node back up (with an empty queue and no
        memory of in-flight receptions)."""
        node = self._nodes[name]
        node.alive = True

    def reflood_broadcasts(self, name: str) -> None:
        """Ask an informed live neighbour to re-flood each broadcast the
        recovered node ``name`` is still missing (SOS recovery path)."""
        node = self._nodes[name]
        if not node.alive or not self._broadcast_store:
            return
        table = self.topology.neighbor_table(name)
        for uid, packet in self._broadcast_store.items():
            if (name, uid) not in self._pending or uid in node.seen_uids:
                continue
            for neighbor in table.names:
                helper = self._nodes[neighbor]
                if helper.alive and uid in helper.seen_uids:
                    self._enqueue(
                        neighbor, dataclasses.replace(packet, ttl=self.ttl)
                    )
                    break

    def abort_flows_to(self, destination: str, reason: str) -> None:
        """Proactively abort live flows toward an observed-dead
        destination instead of letting them burn their retry budgets."""
        now = self._scheduler.now_s
        for key, sender in self._senders.items():
            if key[1] != destination or sender.failed or sender.done:
                continue
            sender.fail()
            timer = self._flow_timers.pop(key, None)
            if timer is not None:
                self._scheduler.cancel(timer)
            self._metrics.record_abort_reason(reason)
            self.observer.on_flow_abort(now, sender.flow_id, reason)

    # ------------------------------------------------------------ transmitting
    def _enqueue(self, node_name: str, packet: NetPacket) -> None:
        node = self._nodes[node_name]
        if not node.alive:
            return
        if self.queue_capacity is not None and len(node.queue) >= self.queue_capacity:
            self._metrics.queue_drops += 1
            self._note_copy_drop(packet, "queue-drop")
            if packet.segment is not None:
                self._metrics.flows[packet.segment.flow_id].queue_drops += 1
            return
        node.queue.append(packet)
        self._service(node)

    def _note_copy_drop(self, packet: NetPacket, cause: str) -> None:
        """Attribute a dying packet copy to its payload's pending record,
        so the eventual lost record carries a cause, not just "expired"."""
        if packet.kind == "ack" or packet.destination == BROADCAST:
            return
        segment = packet.segment
        uid = segment.payload if segment is not None else packet.uid
        pending = self._pending.get((packet.destination, uid))
        if pending is not None and not pending.reason:
            pending.reason = cause

    def _service(self, node: _NodeState) -> None:
        """Start transmitting the head-of-queue packet if the node is idle.

        Mirrors the carrier-sense MAC below this layer: while another
        node's packet is audibly arriving, the transmission is deferred
        until the channel falls silent (plus a short sensing jitter).
        Hidden terminals -- nodes out of range of each other -- cannot
        hear one another and may still collide at a common receiver.
        """
        scheduler = self._scheduler
        now = scheduler._now_s
        if not node.alive:
            return
        if node.tx_busy_until_s > now:
            return  # _on_tx_done will call back
        queue = node.queue
        if queue:
            # Find the latest-ending audible reception without building a
            # list (this runs once per queue touch).  Expired intervals
            # (end <= now) can never test audible; the transmit fan-out
            # compacts them away, so the list stays short here.
            busiest = None
            for start, end, _ in node.receptions:
                if start <= now < end and (busiest is None or end > busiest):
                    busiest = end
            if busiest is not None:
                defer = busiest + float(self._rng.uniform(0.0, 0.08))
                scheduler.at(defer, lambda: self._service(node))
                return
        metrics = self._metrics
        routing = self.routing
        topology = self.topology
        while queue:
            packet = queue.popleft()
            if packet.ttl <= 0:
                metrics.ttl_drops += 1
                self._note_copy_drop(packet, "ttl")
                continue
            # Broadcasts always flood, whatever unicast routing is in use.
            if packet.destination == BROADCAST:
                targets = self._broadcast_routing.next_hops(
                    node.name, packet, topology
                )
            else:
                targets = routing.next_hops(node.name, packet, topology)
            if not targets:
                if packet.destination != BROADCAST and routing.reports_voids:
                    metrics.routing_voids += 1
                    self._note_copy_drop(packet, "void")
                continue
            self._transmit(node, packet, targets)
            return

    def _transmit(
        self, node: _NodeState, packet: NetPacket, targets: tuple[str, ...]
    ) -> None:
        scheduler = self._scheduler
        now = scheduler._now_s
        copy = packet.forwarded(node.name)
        link_model = self.link_model
        topology = self.topology
        metrics = self._metrics
        # ARQ traffic re-transmits the same (sender, relay, size) hop over
        # and over, so the geometry-derived parts of a unicast transmit --
        # receiver states in table order, delays, the target's slot and
        # distance, the airtime -- are cached as a *plan* validated
        # against the topology version.  Only the delivery draw (which
        # must consume the RNG stream per transmission) stays live.
        plan = None
        if len(targets) == 1:
            plan_key = (node.name, targets[0], packet.size_bits)
            plan = self._txplans.get(plan_key)
            if plan is not None and plan[0] != topology._version:
                plan = None
        else:
            plan_key = None
        if plan is not None:
            _, receivers, delays, target_slot, farthest, airtime = plan
            outcome_row: list = [None] * len(receivers)
            outcome_row[target_slot] = link_model.deliver(
                farthest, self._rng, size_bits=packet.size_bits
            )
        else:
            table = topology.neighbor_table(node.name)
            slot = table.slot
            distances = table.distances_m
            names = table.names
            delays = table.delays_list
            fanout = self._fanout.get(node.name)
            if fanout is None or fanout[0] is not table:
                nodes = self._nodes
                receivers = [nodes[name] for name in names]
                self._fanout[node.name] = (table, receivers)
            else:
                receivers = fanout[1]
            outcome_row = [None] * len(names)
            target_slot = None
            if plan_key is not None:
                # Routing targets are in-range neighbours, so the cached
                # table answers their distances; the scalar fallback only
                # covers a target that left range between route choice and
                # transmission.  A single scalar deliver consumes the RNG
                # stream identically to a batch of one.
                target = targets[0]
                target_slot = slot.get(target)
                if target_slot is not None:
                    farthest = float(distances[target_slot])
                    outcome_row[target_slot] = link_model.deliver(
                        farthest, self._rng, size_bits=packet.size_bits
                    )
                else:
                    farthest = topology.distance_m(node.name, target)
            else:
                target_set = set(targets)
                farthest = max(
                    float(distances[slot[t]])
                    if t in slot
                    else topology.distance_m(node.name, t)
                    for t in targets
                )
                target_slots = [
                    position for position, name in enumerate(names)
                    if name in target_set
                ]
                if target_slots:
                    resolved = link_model.deliver_many(
                        distances[target_slots], self._rng,
                        size_bits=packet.size_bits,
                    )
                    for position, outcome in zip(target_slots, resolved):
                        outcome_row[position] = outcome
            # airtime_s draws no RNG and is a pure function of
            # (size, distance) for every link model, so the plan may
            # carry its value.
            airtime = link_model.airtime_s(packet.size_bits, farthest)
            if target_slot is not None:
                self._txplans[plan_key] = (
                    topology._version, receivers, delays, target_slot,
                    farthest, airtime,
                )
        if self._fault_hooks is not None:
            # Link blackout/degradation windows, noise bursts and the
            # per-node energy ledger all live behind this one call; the
            # injector draws from its *own* generator, leaving the
            # simulation stream untouched.
            self._fault_hooks.on_transmit(
                node.name, receivers, outcome_row, airtime, now
            )
        node.tx_busy_until_s = now + airtime
        metrics.transmissions += 1
        metrics.tx_airtime_s += airtime
        scheduler.at(node.tx_busy_until_s, lambda: self._service(node))
        # Acoustic transmissions are local broadcasts: *every* in-range
        # neighbour hears the energy.  Routing targets may capture the
        # packet; everyone else just gets jammed for its duration (which is
        # what carrier sense defers on and hidden terminals collide with).
        # Per-neighbour accumulation (not ``airtime * k``): the committed
        # energy proxy is compared bit-for-bit in fixture replays, and
        # float addition order changes the low bits.
        rx_airtime = metrics.rx_airtime_s
        for receiver, delay, outcome in zip(receivers, delays, outcome_row):
            start = now + delay
            end = start + airtime
            rx_airtime += airtime
            deliverable = None
            if outcome is not None:
                if outcome.delivered:
                    deliverable = copy
                else:
                    metrics.link_drops += 1
            # Register the arrival at the receiver (inlined reception
            # scheduling -- this fan-out loop dominates the transmit
            # profile).  ``deliverable=None`` means the energy arrives but
            # carries nothing for this node (not a routing target, or the
            # link model dropped it); the interval still participates in
            # carrier sensing and collisions.
            receptions = receiver.receptions
            collided = False
            # One pass does double duty: expired intervals (end <= now,
            # which can never overlap an arrival starting at or after now)
            # are compacted out in place, and live ones are tested for
            # overlap.  Lists therefore stay at live-interval size --
            # typically zero to two entries.
            write = 0
            for entry in receptions:
                entry_end = entry[1]
                if entry_end <= now:
                    continue
                receptions[write] = entry
                write += 1
                if start < entry_end and entry[0] < end:
                    collided = True
                    other_event = entry[2]
                    if other_event is not None and not other_event.cancelled:
                        scheduler.cancel(other_event)
                        entry[2] = None
                        metrics.collisions += 1
            if write != len(receptions):
                del receptions[write:]
            event = None
            if deliverable is not None:
                if receiver.tx_busy_until_s > start:
                    # Half duplex: a node transmitting when the packet
                    # starts arriving cannot capture it (energy still
                    # jams).
                    metrics.collisions += 1
                elif collided:
                    metrics.collisions += 1
                else:
                    event = scheduler.at(
                        end,
                        lambda r=receiver, p=deliverable, s=start: (
                            self._on_receive(r, p, s)
                        ),
                    )
            receptions.append([start, end, event])
        metrics.rx_airtime_s = rx_airtime

    # --------------------------------------------------------------- receiving
    def _on_receive(self, node: _NodeState, packet: NetPacket, start_s: float) -> None:
        if not node.alive:
            return  # crashed while the packet was in flight
        # Half duplex, re-checked at reception end: the node may have begun
        # transmitting *after* this reception was scheduled but before (or
        # while) the packet arrived; any own transmission overlapping
        # [start_s, now] wipes the capture.
        if node.tx_busy_until_s > start_s:
            self._metrics.collisions += 1
            return
        if packet.uid in node.seen_uids:
            self._metrics.duplicates_suppressed += 1
            return
        node.seen_uids.add(packet.uid)
        now = self._scheduler._now_s
        is_for_me = packet.destination == node.name
        is_broadcast = packet.destination == BROADCAST
        if is_broadcast:
            self._record_delivery(node.name, packet.uid, packet.hop_count, now)
            self._relay(node, packet)  # keep flooding outwards
            return
        if not is_for_me:
            self._relay(node, packet)
            return
        if packet.kind == "raw":
            self._record_delivery(node.name, packet.uid, packet.hop_count, now)
            return
        if packet.kind == "data":
            self._on_data_segment(node, packet, now)
            return
        if packet.kind == "ack":
            self._on_ack_segment(node, packet)

    def _relay(self, node: _NodeState, packet: NetPacket) -> None:
        """Re-queue a packet for forwarding, after the de-sync jitter."""
        scheduler = self._scheduler
        delay = float(self._rng.uniform(0.0, FORWARD_JITTER_S))
        scheduler.at(
            scheduler._now_s + delay, lambda: self._enqueue(node.name, packet)
        )

    def _record_delivery(
        self, node_name: str, uid: int, hop_count: int, now: float
    ) -> None:
        pending = self._pending.pop((node_name, uid), None)
        if pending is None:
            return
        if pending.churn:
            self._metrics.churn_delivered += 1
        flow = self._payload_flow.pop(uid, None)
        if flow is not None:
            flow.delivered += 1
            flow.delivered_bits += self._payload_sizes.get(uid, 16)
        record = DeliveryRecord(
            uid=uid,
            source=pending.source,
            destination=pending.destination,
            created_s=pending.created_s,
            delivered_s=now,
            hop_count=hop_count,
            kind=pending.kind,
        )
        self._metrics.add(record)
        self.observer.on_delivery(record)

    def _on_data_segment(
        self, node: _NodeState, packet: NetPacket, now: float
    ) -> None:
        flow_id = packet.segment.flow_id
        receiver = self._receivers.get(flow_id)
        if receiver is None:
            receiver = ArqReceiver(flow_id, self.arq)
            self._receivers[flow_id] = receiver
        delivered, ack = receiver.on_data(packet.segment)
        for payload_uid in delivered:
            self._record_delivery(node.name, payload_uid, packet.hop_count, now)
        ack_packet = NetPacket(
            uid=next(self._uids), kind="ack", source=node.name,
            destination=packet.source, created_s=now, ttl=self.ttl,
            size_bits=ACK_SIZE_BITS, segment=ack,
        )
        self._enqueue(node.name, ack_packet)

    def _on_ack_segment(self, node: _NodeState, packet: NetPacket) -> None:
        # The ACK travels dst -> src, so the flow key is reversed.
        key = (node.name, packet.source)
        sender = self._senders_by_id.get(packet.segment.flow_id)
        if sender is None or sender is not self._senders.get(key):
            return  # ACK for an abandoned epoch
        now = self._scheduler.now_s
        for segment in sender.on_ack(packet.segment, now):
            self._enqueue(key[0], self._segment_packet(key, segment))
        self._pump_flow(key)
