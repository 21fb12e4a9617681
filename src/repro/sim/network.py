"""Simulated wide-area network: topology, latency, and message delivery.

The paper assumes a global infrastructure of servers with heterogeneous
connectivity: a well-connected core (where primary-tier replicas live) and
high-latency, low-bandwidth leaves (Section 1, Section 4.4.3).  We model
this with a transit-stub-style topology: a small clique-ish core of transit
routers, each with several stub domains of servers hanging off it.

Messages are delivered by the :class:`Network` with latency equal to the
shortest-path link latency between endpoints plus a per-message overhead.
Traffic is counted once, per (src, dst, subsystem, phase); the global,
per-link and per-phase totals the bandwidth experiments (Figure 6) read
are folds over that one ledger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable

import networkx as nx

from repro.sim.kernel import Kernel
from repro.util import ConfigError

NodeId = int
Handler = Callable[["Message"], None]


class Message:
    """A network-level message between two simulated hosts.

    ``payload`` is an arbitrary protocol object; ``size_bytes`` is the
    bandwidth accounting size (protocol layers set this explicitly so the
    Figure 6 cost model uses the paper's byte counts, not Python object
    sizes).

    A plain ``__slots__`` class, not a dataclass: ``Network.send``
    allocates one per message, and a frozen dataclass ``__init__`` (one
    ``object.__setattr__`` per field) costs ~4x a direct init on this
    hot path.  Treat instances as immutable: the network fans one object
    out to every handler.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes")

    def __init__(
        self, src: NodeId, dst: NodeId, payload: Any, size_bytes: int
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes


@dataclass(frozen=True, slots=True)
class Corrupted:
    """A garbled frame: the payload arrived but fails integrity checks.

    Protocol handlers dispatch on payload type, so a corrupted message is
    delivered (it consumes bandwidth and a handler invocation) but no
    protocol acts on it -- the application-layer view of a bad checksum.
    """

    original: Any


@dataclass(slots=True)
class Traffic:
    """Messages and bytes sent, whether or not they were delivered.

    One per route-cache entry -- (src, dst, subsystem, phase) -- is the
    network's only traffic count.  :attr:`Network.phase_stats` (the
    measured side of the paper's Figure 6 cost model b = c1*n^2 +
    (u+c2)*n + c3, fitted in :mod:`repro.consistency.costmodel`),
    :attr:`Network.link_stats` and the ``stats_total_*`` totals are
    folds over those entries at read time.
    """

    messages: int = 0
    bytes: int = 0


#: link latencies (ms) of a generated topology, each stretched by up to
#: +/- ``LATENCY_JITTER`` of itself at generation time
TRANSIT_TRANSIT_LATENCY_MS = 40.0
TRANSIT_STUB_LATENCY_MS = 20.0
STUB_STUB_LATENCY_MS = 5.0
LATENCY_JITTER = 0.2
#: random chords added across the ring of transit routers
EXTRA_TRANSIT_EDGES = 4


@dataclass
class TopologyParams:
    """Node counts for transit-stub topology generation."""

    transit_nodes: int = 8
    stubs_per_transit: int = 3
    nodes_per_stub: int = 8

    def __post_init__(self) -> None:
        if self.transit_nodes < 1:
            raise ConfigError(f"transit_nodes must be >= 1: {self.transit_nodes}")
        if self.stubs_per_transit < 0:
            raise ConfigError(f"stubs_per_transit must be >= 0: {self.stubs_per_transit}")
        if self.nodes_per_stub < 1:
            raise ConfigError(f"nodes_per_stub must be >= 1: {self.nodes_per_stub}")


def build_transit_stub_topology(
    params: TopologyParams, rng: random.Random
) -> nx.Graph:
    """Generate a transit-stub graph with per-edge ``latency_ms``.

    Transit routers form a ring plus random chords; each transit router
    sponsors several stub domains, each a small connected cluster of
    server nodes.  Node attribute ``kind`` is ``"transit"`` or ``"stub"``.
    """
    graph = nx.Graph()

    def jittered(base: float) -> float:
        return base * (1.0 + rng.uniform(-LATENCY_JITTER, LATENCY_JITTER))

    transit = list(range(params.transit_nodes))
    for t in transit:
        graph.add_node(t, kind="transit")
    for i, t in enumerate(transit):
        u = transit[(i + 1) % len(transit)]
        if t != u:
            graph.add_edge(t, u, latency_ms=jittered(TRANSIT_TRANSIT_LATENCY_MS))
    for _ in range(EXTRA_TRANSIT_EDGES):
        if len(transit) < 2:
            break
        a, b = rng.sample(transit, 2)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b, latency_ms=jittered(TRANSIT_TRANSIT_LATENCY_MS))

    next_id = params.transit_nodes
    for t in transit:
        for _ in range(params.stubs_per_transit):
            stub_nodes = list(range(next_id, next_id + params.nodes_per_stub))
            next_id += params.nodes_per_stub
            for s in stub_nodes:
                graph.add_node(s, kind="stub")
            # Connect stub nodes in a short path plus random chords, then
            # attach the first node (the stub gateway) to the transit router.
            for a, b in zip(stub_nodes, stub_nodes[1:]):
                graph.add_edge(a, b, latency_ms=jittered(STUB_STUB_LATENCY_MS))
            for s in stub_nodes[2:]:
                if rng.random() < 0.3:
                    other = rng.choice(stub_nodes[: stub_nodes.index(s)])
                    if not graph.has_edge(s, other):
                        graph.add_edge(
                            s, other, latency_ms=jittered(STUB_STUB_LATENCY_MS)
                        )
            graph.add_edge(
                stub_nodes[0], t, latency_ms=jittered(TRANSIT_STUB_LATENCY_MS)
            )
    return graph


class Network:
    """Latency-accurate message delivery over a topology graph.

    Handlers are registered per node; :meth:`send` schedules delivery on
    the kernel after the shortest-path latency.  Partitions and crashed
    nodes silently drop messages, as real networks do -- protocols must
    handle loss with timeouts and retries.
    """

    #: Fixed per-message processing overhead (serialization, queuing).
    PER_MESSAGE_OVERHEAD_MS = 1.0

    def __init__(self, kernel: Kernel, graph: nx.Graph, telemetry=None) -> None:
        self.kernel = kernel
        self.graph = graph
        #: optional telemetry facade (duck-typed so :mod:`repro.sim` stays
        #: a leaf package; see :mod:`repro.telemetry`).  ``None`` means
        #: uninstrumented -- the hot path guards on it.
        self.telemetry = telemetry
        #: per-node subscriptions in subscription order: (handler, the
        #: exact payload classes it acts on, or ``None`` for every message)
        self._subscriptions: dict[
            NodeId, list[tuple[Handler, Collection[type] | None]]
        ] = {}
        #: per-node mailbox derived from the above: payload type -> handlers
        #: interested in it, with the wildcard-only tuple under ``None`` for
        #: every undeclared type.  The tuples are replaced copy-on-write, so
        #: a delivery iterates a stable snapshot without copying per message.
        #: A node is present iff it has at least one subscription.
        self._handlers: dict[NodeId, dict[type | None, tuple[Handler, ...]]] = {}
        #: per-(src, dst, subsystem, phase) send-path memo and traffic
        #: ledger: (Traffic, delay_ms | None, deliver label, sub, ph).
        #: The topology graph is immutable for the lifetime of a run (the
        #: latency cache has no invalidation path either), so the one-way
        #: delay is a constant per ordered pair; the delay slot stays
        #: ``None`` until the first send that survives the drop checks, so
        #: a send to a down-but-unreachable node still drops instead of
        #: raising, exactly as the uncached path did.
        self._route_cache: dict[tuple, tuple] = {}
        self._down: set[NodeId] = set()
        #: bumped by every :meth:`set_down` call, whether or not the set
        #: changed; anything derived from :meth:`is_down` answers (a mesh
        #: route) is still valid while this stands still
        self.liveness_epoch = 0
        self._partitions: list[tuple[set[NodeId], set[NodeId]]] = []
        #: one-way partitions: (src side, dst side) pairs where traffic
        #: src->dst drops but dst->src still flows
        self._asym_partitions: list[tuple[set[NodeId], set[NodeId]]] = []
        #: optional per-link fault schedule (duck-typed: anything with a
        #: ``decide(src, dst, now) -> FaultDecision`` method; see
        #: :mod:`repro.sim.faults.network`)
        self.fault_injector = None
        self._latency_cache: dict[NodeId, dict[NodeId, float]] = {}
        self._hops_cache: dict[NodeId, dict[NodeId, int]] = {}
        self._neighbors: dict[NodeId, tuple[NodeId, ...]] = {}
        #: messages lost, by reason: "unreachable" (an endpoint down or a
        #: partition), "fault" (the injector dropped it), "unregistered"
        #: (nobody listens at the destination).  Bumped only by :meth:`_drop`.
        self.drops: dict[str, int] = {}

    # -- membership --------------------------------------------------------

    def register(
        self, node: NodeId, handler: Handler, types: Collection[type] | None = None
    ) -> None:
        """Install ``handler`` as the node's sole message handler."""
        self.unregister(node)
        self.subscribe(node, handler, types)

    def subscribe(
        self, node: NodeId, handler: Handler, types: Collection[type] | None = None
    ) -> None:
        """Add a handler for messages whose payload class is in ``types``.

        A single simulated host often runs several protocols (a primary
        replica can also be a dissemination-tree root); each subscribes
        with the exact payload classes it acts on, and delivery costs one
        lookup on ``type(payload)`` however many protocols share the node.
        Matching is by exact class, never ``isinstance``.  Without
        ``types`` the handler sees every message, :class:`Corrupted`
        frames included.  Handlers for one payload run in subscription
        order.
        """
        if node not in self.graph:
            raise KeyError(f"node {node} not in topology")
        self._subscriptions.setdefault(node, []).append((handler, types))
        mailbox = self._handlers.setdefault(node, {None: ()})
        if types is None:
            for payload_type, handlers in mailbox.items():
                mailbox[payload_type] = handlers + (handler,)
        else:
            wildcard = mailbox[None]
            for payload_type in set(types):
                mailbox[payload_type] = mailbox.get(payload_type, wildcard) + (handler,)

    def unsubscribe(self, node: NodeId, handler: Handler) -> None:
        """Remove one subscribed handler, leaving co-hosted protocols."""
        remaining = list(self._subscriptions.get(node, ()))
        for i, (subscribed, _) in enumerate(remaining):
            if subscribed == handler:
                del remaining[i]
                break
        else:
            return
        self.unregister(node)
        for subscribed, wanted in remaining:
            self.subscribe(node, subscribed, wanted)

    def unregister(self, node: NodeId) -> None:
        self._subscriptions.pop(node, None)
        self._handlers.pop(node, None)

    def nodes(self) -> Iterable[NodeId]:
        return self.graph.nodes()

    # -- failures ----------------------------------------------------------

    def set_down(self, node: NodeId, down: bool = True) -> None:
        """Crash (or revive) a node; messages to/from it are dropped."""
        self.liveness_epoch += 1
        if down:
            self._down.add(node)
        else:
            self._down.discard(node)

    def is_down(self, node: NodeId) -> bool:
        return node in self._down

    def add_partition(self, side_a: set[NodeId], side_b: set[NodeId]) -> None:
        """Drop all traffic between the two sides until healed."""
        self._partitions.append((set(side_a), set(side_b)))

    def add_asymmetric_partition(
        self, src_side: set[NodeId], dst_side: set[NodeId]
    ) -> None:
        """Drop traffic from ``src_side`` to ``dst_side`` only.

        Models one-way reachability loss (BGP misconfiguration, NAT
        breakage): acks flow, requests do not.
        """
        self._asym_partitions.append((set(src_side), set(dst_side)))

    def heal_partitions(self) -> None:
        self._partitions.clear()
        self._asym_partitions.clear()

    def _partitioned(self, a: NodeId, b: NodeId) -> bool:
        """True when traffic from ``a`` to ``b`` is cut."""
        for side_a, side_b in self._partitions:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return True
        for src_side, dst_side in self._asym_partitions:
            if a in src_side and b in dst_side:
                return True
        return False

    # -- latency model -----------------------------------------------------

    def latency_ms(self, src: NodeId, dst: NodeId) -> float:
        """Shortest-path latency between two nodes (ms), cached."""
        if src == dst:
            return 0.0
        if src not in self._latency_cache:
            self._latency_cache[src] = nx.single_source_dijkstra_path_length(
                self.graph, src, weight="latency_ms"
            )
        try:
            return self._latency_cache[src][dst]
        except KeyError:
            raise ValueError(f"no path from {src} to {dst}") from None

    def hop_count(self, src: NodeId, dst: NodeId) -> int:
        """Shortest-path hop count (used as the Bloom-filter distance metric)."""
        if src == dst:
            return 0
        if src not in self._hops_cache:
            self._hops_cache[src] = nx.single_source_shortest_path_length(
                self.graph, src
            )
        try:
            return self._hops_cache[src][dst]
        except KeyError:
            raise ValueError(f"no path from {src} to {dst}") from None

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Adjacent nodes in ascending order, cached like the path caches."""
        cached = self._neighbors.get(node)
        if cached is None:
            cached = self._neighbors[node] = tuple(sorted(self.graph.neighbors(node)))
        return cached

    # -- delivery ----------------------------------------------------------

    def _build_route(self, route_key: tuple) -> tuple:
        """Slow path of :meth:`send`: materialize a route-cache entry.

        The delay slot is left ``None`` (filled by the first send that
        survives the drop checks) so unreachable destinations keep the
        old drop-before-raise ordering.
        """
        _, _, subsystem, phase = route_key
        sub = subsystem if subsystem is not None else "other"
        ph = phase if phase is not None else "other"
        route = (Traffic(), None, f"net.deliver:{sub}/{ph}", sub, ph)
        self._route_cache[route_key] = route
        return route

    def send(
        self,
        src: NodeId,
        dst: NodeId,
        payload: Any,
        size_bytes: int,
        phase: str | None = None,
        subsystem: str | None = None,
    ) -> None:
        """Send a message; delivery is scheduled on the kernel.

        ``subsystem``/``phase`` attribute the traffic to a protocol phase
        (``pbft``/``prepare``, ``dissemination``/``push``, ...) in
        :attr:`phase_stats` -- the measured side of the Figure 6 cost
        model.  Every send is counted there, delivered or not.  Loss
        conditions (either endpoint down, partition, unregistered
        destination) go through :meth:`_drop` and deliver nothing.
        """
        message = Message(src, dst, payload, size_bytes)
        route_key = (src, dst, subsystem, phase)
        route = self._route_cache.get(route_key)
        if route is None:
            route = self._build_route(route_key)
        traffic, delay, label, sub, ph = route
        traffic.messages += 1
        traffic.bytes += size_bytes

        tel = self.telemetry
        instrumented = tel is not None and tel.enabled
        if instrumented:
            tel.record(
                "net",
                "send",
                src=src,
                dst=dst,
                type=type(payload).__name__,
                bytes=size_bytes,
                subsystem=sub,
                phase=ph,
            )
        down = self._down
        if (
            src in down
            or dst in down
            or (
                (self._partitions or self._asym_partitions)
                and self._partitioned(src, dst)
            )
        ):
            self._drop(src, dst, "unreachable")
            return
        if delay is None:
            if src == dst:
                delay = self.PER_MESSAGE_OVERHEAD_MS
            else:
                latencies = self._latency_cache.get(src)
                if latencies is None:
                    latencies = self._latency_cache[src] = (
                        nx.single_source_dijkstra_path_length(
                            self.graph, src, weight="latency_ms"
                        )
                    )
                try:
                    delay = latencies[dst] + self.PER_MESSAGE_OVERHEAD_MS
                except KeyError:
                    raise ValueError(f"no path from {src} to {dst}") from None
            self._route_cache[route_key] = (traffic, delay, label, sub, ph)

        copies = 1
        injector = self.fault_injector
        if injector is not None:
            decision = injector.decide(src, dst, self.kernel.now)
            if decision.drop:
                self._drop(src, dst, "fault")
                return
            if decision.corrupt:
                message = Message(src, dst, Corrupted(payload), size_bytes)
                if instrumented:
                    tel.count("net_corrupted_total")
                    tel.record("net", "corrupt", src=src, dst=dst)
            delay += decision.extra_delay_ms
            copies += decision.duplicates
            if instrumented and decision.duplicates:
                tel.record(
                    "net", "duplicate", src=src, dst=dst, copies=decision.duplicates
                )
            if instrumented and decision.extra_delay_ms:
                tel.record(
                    "net", "delay", src=src, dst=dst, extra_ms=decision.extra_delay_ms
                )

        # Captures ride as default args, not closure cells: the send
        # frame skips MAKE_CELL setup and the delivery body reads
        # LOAD_FAST locals -- measurably cheaper on the heartbeat path.
        def deliver(
            self=self,
            src=src,
            dst=dst,
            message=message,
            instrumented=instrumented,
            tel=tel,
            sub=sub,
            ph=ph,
        ) -> None:
            if dst in self._down or (
                (self._partitions or self._asym_partitions)
                and self._partitioned(src, dst)
            ):
                self._drop(src, dst, "unreachable")
                return
            mailbox = self._handlers.get(dst)
            if mailbox is None:
                self._drop(src, dst, "unregistered")
                return
            if instrumented:
                tel.record(
                    "net",
                    "deliver",
                    src=src,
                    dst=dst,
                    type=type(message.payload).__name__,
                    subsystem=sub,
                    phase=ph,
                )
            # handler tuples are replaced copy-on-write at (un)subscribe,
            # so iterating directly is the same snapshot a copy would give
            handlers = mailbox.get(type(message.payload))
            if handlers is None:
                handlers = mailbox[None]
            for handler in handlers:
                handler(message)

        # Trace-context capture happens inside post_after when the
        # kernel's trace_wrapper is installed: the delivery callback (and
        # hence every span the destination handler opens) binds to the
        # span that was current at send time.  Duplicated copies trail
        # the original by one processing overhead each.
        kernel = self.kernel
        if kernel.event_hook is None:
            # Labels only reach observers through the hook; keep the
            # unobserved case label-free exactly as before the memo.
            label = None
        if copies == 1:
            kernel.post_after(delay, deliver, label=label)
        else:
            for i in range(copies):
                kernel.post_after(
                    delay + i * self.PER_MESSAGE_OVERHEAD_MS, deliver, label=label
                )

    def _drop(self, src: NodeId, dst: NodeId, reason: str) -> None:
        """Lose one message: the only place a drop is counted or recorded."""
        drops = self.drops
        drops[reason] = drops.get(reason, 0) + 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.record("net", "drop", src=src, dst=dst, reason=reason)

    # -- traffic: folds over the route-cache ledger -------------------------

    @property
    def stats_total_messages(self) -> int:
        return sum(traffic.messages for traffic, *_ in self._route_cache.values())

    @property
    def stats_total_bytes(self) -> int:
        return sum(traffic.bytes for traffic, *_ in self._route_cache.values())

    @property
    def stats_dropped(self) -> int:
        return sum(self.drops.values())

    @property
    def link_stats(self) -> dict[tuple[NodeId, NodeId], Traffic]:
        """Traffic per undirected link ``(low, high)``, both directions."""
        return self._fold(lambda src, dst, sub, ph: (min(src, dst), max(src, dst)))

    @property
    def phase_stats(self) -> dict[tuple[str, str], Traffic]:
        """Traffic per (subsystem, phase); untagged sends land in
        ("other", "other").  Keys appear in first-send order."""
        return self._fold(lambda src, dst, sub, ph: (sub, ph))

    def _fold(self, key_of) -> dict:
        folded: dict = {}
        for (src, dst, _, _), (traffic, _, _, sub, ph) in self._route_cache.items():
            total = folded.setdefault(key_of(src, dst, sub, ph), Traffic())
            total.messages += traffic.messages
            total.bytes += traffic.bytes
        return folded

    def phase_report(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-(subsystem, phase) traffic as a JSON-able nested dict.

        Shape: ``{subsystem: {phase: {"messages": m, "bytes": b}}}``,
        keys sorted, so reports diff cleanly across runs.
        """
        report: dict[str, dict[str, dict[str, int]]] = {}
        for (sub, ph), stats in sorted(self.phase_stats.items()):
            report.setdefault(sub, {})[ph] = {
                "messages": stats.messages,
                "bytes": stats.bytes,
            }
        return report

    def phase_totals(self, subsystem: str) -> tuple[int, int]:
        """(messages, bytes) summed over one subsystem's phases."""
        messages = 0
        total_bytes = 0
        for (sub, _), stats in self.phase_stats.items():
            if sub == subsystem:
                messages += stats.messages
                total_bytes += stats.bytes
        return messages, total_bytes
