"""Probabilistic data location by hill-climbing (Section 4.3.2, Figure 2).

"The probabilistic algorithm is fully distributed and uses a constant
amount of storage per server.  It is based on the idea of hill-climbing;
if a query cannot be satisfied by a server, local information is used to
route the query to a likely neighbor."

Every node keeps, for each directed edge, the attenuated Bloom filter its
neighbor last advertised.  A query at a node first checks local content,
then forwards along the edge whose filter claims the object at the
smallest distance.  Queries carry a TTL and a visited set (loop
avoidance); if no filter matches, the query *fails over* to the
deterministic global algorithm (Section 4.3.1's two-tier design).

Per the paper, "'reliability factors' can be applied locally to increase
the distance to nodes that have abused the protocol in the past,
automatically routing around certain classes of attacks": each node
tracks a penalty per neighbor, added to the filter distance during
next-hop selection, so neighbors that advertise objects they cannot
produce stop attracting queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.bloom import AttenuatedBloomFilter, BloomFilter, guid_mask
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of one probabilistic query."""

    found: bool
    location: NodeId | None
    path: tuple[NodeId, ...]
    latency_ms: float

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)


@dataclass
class _NodeState:
    content: set[GUID] = field(default_factory=set)
    local_filter: BloomFilter | None = None
    #: filter this node advertises to its neighbors; published as a value
    #: and replaced, never edited
    advertisement: AttenuatedBloomFilter | None = None
    #: live neighbors, ascending, as of the locator's liveness epoch
    live: tuple[NodeId, ...] = ()
    #: the live neighbors ``advertisement`` was built from (None: never built)
    built_from: tuple[NodeId, ...] | None = None
    #: filters received from each neighbor, keyed by neighbor id
    neighbor_filters: dict[NodeId, AttenuatedBloomFilter] = field(default_factory=dict)
    #: reliability penalty per neighbor (added to filter distance)
    penalties: dict[NodeId, float] = field(default_factory=dict)


class ProbabilisticLocator:
    """Attenuated-Bloom-filter location layer over a simulated network.

    Filter state converges via :meth:`refresh_round`: each round, every
    node's advertisement is recomputed from its neighbors' previous
    advertisements and pushed to every live neighbor, so information
    propagates one hop per round (run ``depth`` rounds after content
    changes for full convergence -- exactly the soft-state maintenance
    cost the design trades for constant storage).

    Only the recomputation is incremental: a node is rebuilt when one of
    its inputs moved (its local filter, its live neighbors, or a
    neighbor's advertisement replaced last round), and a rebuild with
    unchanged bits keeps the old object, so a change stops spreading
    where it stops mattering.  Every push still happens every round.

    :meth:`converge` charges its rounds at once and runs them before the
    next read of filter state (:meth:`query`, :meth:`refresh_round`,
    :meth:`advertisement`, :meth:`neighbor_filters`,
    :meth:`clear_neighbor_filters`), so a batch of converges costs one.
    """

    def __init__(
        self,
        network: Network,
        depth: int = 3,
        width: int = 2048,
        hashes: int = 4,
        telemetry=None,
    ) -> None:
        self.network = network
        self.telemetry = coalesce(telemetry)
        self.depth = depth
        self.width = width
        self.hashes = hashes
        self._nodes: dict[NodeId, _NodeState] = {}
        for node in network.nodes():
            state = _NodeState()
            state.local_filter = BloomFilter(width, hashes)
            state.advertisement = AttenuatedBloomFilter(depth, width, hashes)
            self._nodes[node] = state
        #: ``network.liveness_epoch`` the ``live`` tuples were taken at
        self._live_epoch: int | None = None
        #: (node, its state, its live neighbors' states) per live node
        self._senders: list[tuple[NodeId, _NodeState, tuple[_NodeState, ...]]] = []
        #: live directed edges: the pushes one round makes
        self._live_edges = 0
        #: nodes whose advertisement was replaced in the last round
        self._replaced: set[NodeId] = set()
        #: a converge() whose rounds have not run yet
        self._pending = False
        #: local filters as of that converge(), for nodes whose content moved since
        self._held: dict[NodeId, BloomFilter] = {}
        self.stats_refresh_bytes = 0

    # -- content management -------------------------------------------------

    def add_object(self, node: NodeId, guid: GUID) -> None:
        state = self._nodes[node]
        self._hold(node, state)
        state.content.add(guid)
        state.local_filter.add(guid)

    def remove_object(self, node: NodeId, guid: GUID) -> None:
        """Remove content; the local filter is rebuilt (no counting filters)."""
        state = self._nodes[node]
        self._hold(node, state)
        state.content.discard(guid)
        state.local_filter = BloomFilter(self.width, self.hashes)
        for g in state.content:
            state.local_filter.add(g)

    def _hold(self, node: NodeId, state: _NodeState) -> None:
        """Keep the local bits a pending converge() must still run against."""
        if self._pending and node not in self._held:
            self._held[node] = BloomFilter(self.width, self.hashes, state.local_filter.bits)

    def objects_at(self, node: NodeId) -> set[GUID]:
        return set(self._nodes[node].content)

    # -- filter state ----------------------------------------------------------

    def advertisement(self, node: NodeId) -> AttenuatedBloomFilter:
        """The filter ``node`` advertises to its neighbors."""
        self._run_pending()
        return self._nodes[node].advertisement

    def neighbor_filters(self, node: NodeId) -> dict[NodeId, AttenuatedBloomFilter]:
        """The filters ``node`` last received, by neighbor, in first-arrival order."""
        self._run_pending()
        return dict(self._nodes[node].neighbor_filters)

    def clear_neighbor_filters(self, node: NodeId) -> None:
        """Drop every filter ``node`` received (soft state expiring)."""
        self._run_pending()
        self._nodes[node].neighbor_filters.clear()

    # -- filter maintenance ---------------------------------------------------

    def refresh_round(self) -> None:
        """One synchronous advertisement round.

        Each node's advertisement is recomputed from neighbors' *previous*
        advertisements and pushed to every live neighbor.  Byte cost is
        tracked for overhead accounting.
        """
        self._run_pending()
        if self._live_epoch != self.network.liveness_epoch:
            self._relink()
        self._round()
        self._charge(1)

    def _round(self) -> None:
        """Rebuild what changed and push, over the links as last taken."""
        nodes, held = self._nodes, self._held
        replaced = self._replaced
        new_ads: dict[NodeId, AttenuatedBloomFilter] = {}
        for node, state in nodes.items():
            ad = state.advertisement
            local = held.get(node, state.local_filter)
            if (
                state.built_from == state.live
                and ad.levels[0].bits == local.bits
                and replaced.isdisjoint(state.live)
            ):
                continue  # same inputs as last build, so the same bits
            state.built_from = state.live
            built = AttenuatedBloomFilter.from_local_and_neighbors(
                self.depth,
                self.width,
                self.hashes,
                local,
                [nodes[n].advertisement for n in state.live],
            )
            if built.levels != ad.levels:
                new_ads[node] = built
        for node, ad in new_ads.items():
            nodes[node].advertisement = ad
        self._replaced = set(new_ads)
        for node, state, receivers in self._senders:
            ad = state.advertisement
            for receiver in receivers:
                receiver.neighbor_filters[node] = ad

    def _charge(self, rounds: int) -> None:
        """Account ``rounds`` rounds of pushes over the current live edges."""
        per_round = self._live_edges * self.depth * ((self.width + 7) // 8)
        self.stats_refresh_bytes += rounds * per_round
        tel = self.telemetry
        if tel.enabled:
            tel.count("bloom_refresh_rounds_total", rounds)

    def _relink(self) -> None:
        """Re-take every node's live neighbors after a liveness change.

        A live node pushes to each live neighbor, in ascending order; a
        down node keeps recomputing its advertisement but pushes nothing.
        """
        network, nodes = self.network, self._nodes
        self._live_epoch = network.liveness_epoch
        self._senders = []
        for node, state in nodes.items():
            state.live = tuple(
                n for n in network.neighbors(node) if not network.is_down(n)
            )
            if not network.is_down(node):
                self._senders.append((node, state, tuple(nodes[n] for n in state.live)))
        self._live_edges = sum(len(receivers) for _, _, receivers in self._senders)

    def converge(self) -> None:
        """Full depth-D convergence: ``depth + 1`` rounds, run at the next read.

        The rounds are charged to the byte ledger and telemetry now, and
        run before the next read of filter state, exactly as they would
        have run here: against each node's local bits and live neighbors
        as of this call.  ``depth + 1`` rounds at fixed content and
        liveness leave filters that depend on nothing else, so a later
        converge() at the same liveness epoch replaces a pending one; at
        a new epoch it first runs the pending rounds over their own links.
        """
        if self._live_epoch != self.network.liveness_epoch:
            self._run_pending()
            self._relink()
        self._held.clear()
        self._pending = True
        self._charge(self.depth + 1)

    def _run_pending(self) -> None:
        """Run the rounds of a pending converge(), if any."""
        if self._pending:
            self._pending = False
            for _ in range(self.depth + 1):
                self._round()
            self._held.clear()

    # -- querying --------------------------------------------------------------

    def query(
        self, start: NodeId, guid: GUID, ttl: int | None = None
    ) -> QueryResult:
        """Hill-climb from ``start`` toward ``guid`` (Figure 2).

        ``ttl`` bounds the number of forwarding hops; the default is
        ``2 * depth`` -- beyond that the filters carry no signal and the
        query should fall back to the global algorithm.
        """
        self._run_pending()
        tel = self.telemetry
        if not tel.enabled:
            return self._query(start, guid, ttl)
        with tel.span("bloom.query", start=start):
            result = self._query(start, guid, ttl)
        tel.count("bloom_queries_total", result="hit" if result.found else "miss")
        return result

    def _query(self, start: NodeId, guid: GUID, ttl: int | None) -> QueryResult:
        if ttl is None:
            ttl = 2 * self.depth
        mask = guid_mask(guid, self.width, self.hashes)
        path = [start]
        latency = 0.0
        visited = {start}
        current = start
        for _ in range(ttl + 1):
            state = self._nodes[current]
            if guid in state.content:
                return QueryResult(True, current, tuple(path), latency)
            best: tuple[float, float, NodeId] | None = None
            for neighbor, filt in state.neighbor_filters.items():
                if neighbor in visited or self.network.is_down(neighbor):
                    continue
                distance = filt.first_level(mask)
                if distance is None:
                    continue
                hop_latency = self.network.latency_ms(current, neighbor)
                effective = distance + state.penalties.get(neighbor, 0.0)
                candidate = (effective, hop_latency, neighbor)
                if best is None or candidate < best:
                    best = candidate
            if best is None:
                break
            _, hop_latency, neighbor = best
            latency += hop_latency
            current = neighbor
            visited.add(current)
            path.append(current)
        return QueryResult(False, None, tuple(path), latency)

    # -- reliability factors ----------------------------------------------------

    def penalize(self, node: NodeId, neighbor: NodeId, amount: float = 1.0) -> None:
        """Record protocol abuse: ``node`` distrusts ``neighbor``.

        The penalty inflates the neighbor's apparent filter distance, so
        hill-climbing prefers honest edges ("automatically routing around
        certain classes of attacks").
        """
        if amount < 0:
            raise ValueError("penalty must be non-negative")
        state = self._nodes[node]
        state.penalties[neighbor] = state.penalties.get(neighbor, 0.0) + amount

    def forgive(self, node: NodeId, neighbor: NodeId) -> None:
        """Reset a neighbor's penalty (e.g. after sustained good service)."""
        self._nodes[node].penalties.pop(neighbor, None)

    def penalty(self, node: NodeId, neighbor: NodeId) -> float:
        return self._nodes[node].penalties.get(neighbor, 0.0)
