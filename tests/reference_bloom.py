"""The reference Bloom location tier the incremental locator is tested against.

Before advertisements became shared values, every
:meth:`~repro.routing.probabilistic.ProbabilisticLocator.refresh_round`
rebuilt every node's attenuated filter from scratch, one ``BloomFilter``
union per level, and pushed a fresh copy along every live directed edge;
a query probed each filter bit position by bit position, and ``converge``
ran its rounds on the spot.  That obviously-correct form lives here, in
the test tree, with the filter classes it used.  Only
:func:`~repro.routing.bloom.guid_bit_positions` is shared with production.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.bloom import guid_bit_positions
from repro.sim.network import Network, NodeId
from repro.util.ids import GUID


class ReferenceBloomFilter:
    """A fixed-width Bloom filter probed one bit position at a time."""

    __slots__ = ("width", "hashes", "bits")

    def __init__(self, width: int, hashes: int, bits: int = 0) -> None:
        self.width = width
        self.hashes = hashes
        self.bits = bits

    def add(self, guid: GUID) -> None:
        for pos in guid_bit_positions(guid, self.width, self.hashes):
            self.bits |= 1 << pos

    def __contains__(self, guid: GUID) -> bool:
        return all(
            self.bits & (1 << pos)
            for pos in guid_bit_positions(guid, self.width, self.hashes)
        )

    def union_update(self, other: "ReferenceBloomFilter") -> None:
        self.bits |= other.bits

    def copy(self) -> "ReferenceBloomFilter":
        return ReferenceBloomFilter(self.width, self.hashes, self.bits)


class ReferenceAttenuatedFilter:
    """A depth-D array of filters, copied per edge and rebuilt per round."""

    def __init__(self, depth: int, width: int, hashes: int) -> None:
        self.depth = depth
        self.width = width
        self.hashes = hashes
        self.levels = [ReferenceBloomFilter(width, hashes) for _ in range(depth)]

    def first_match(self, guid: GUID) -> int | None:
        for distance, level in enumerate(self.levels):
            if guid in level:
                return distance
        return None

    def size_bytes(self) -> int:
        return sum((level.width + 7) // 8 for level in self.levels)

    def copy(self) -> "ReferenceAttenuatedFilter":
        clone = ReferenceAttenuatedFilter(self.depth, self.width, self.hashes)
        clone.levels = [level.copy() for level in self.levels]
        return clone

    @classmethod
    def from_local_and_neighbors(
        cls,
        depth: int,
        width: int,
        hashes: int,
        local: ReferenceBloomFilter,
        neighbor_filters: list["ReferenceAttenuatedFilter"],
    ) -> "ReferenceAttenuatedFilter":
        result = cls(depth, width, hashes)
        result.levels[0] = local.copy()
        for level in range(1, depth):
            merged = ReferenceBloomFilter(width, hashes)
            for nf in neighbor_filters:
                merged.union_update(nf.levels[level - 1])
            result.levels[level] = merged
        return result


@dataclass
class _ReferenceNode:
    content: set[GUID] = field(default_factory=set)
    local_filter: ReferenceBloomFilter | None = None
    advertisement: ReferenceAttenuatedFilter | None = None
    neighbor_filters: dict[NodeId, ReferenceAttenuatedFilter] = field(
        default_factory=dict
    )
    penalties: dict[NodeId, float] = field(default_factory=dict)


class ReferenceLocator:
    """The rebuild-everything, copy-per-edge probabilistic locator."""

    def __init__(
        self, network: Network, depth: int = 3, width: int = 2048, hashes: int = 4
    ) -> None:
        self.network = network
        self.depth = depth
        self.width = width
        self.hashes = hashes
        self._nodes: dict[NodeId, _ReferenceNode] = {}
        for node in network.nodes():
            state = _ReferenceNode()
            state.local_filter = ReferenceBloomFilter(width, hashes)
            state.advertisement = ReferenceAttenuatedFilter(depth, width, hashes)
            self._nodes[node] = state
        self.stats_refresh_bytes = 0

    def add_object(self, node: NodeId, guid: GUID) -> None:
        state = self._nodes[node]
        state.content.add(guid)
        state.local_filter.add(guid)

    def remove_object(self, node: NodeId, guid: GUID) -> None:
        state = self._nodes[node]
        state.content.discard(guid)
        state.local_filter = ReferenceBloomFilter(self.width, self.hashes)
        for g in state.content:
            state.local_filter.add(g)

    def refresh_round(self) -> None:
        new_ads: dict[NodeId, ReferenceAttenuatedFilter] = {}
        for node, state in self._nodes.items():
            neighbor_ads = [
                self._nodes[n].advertisement
                for n in sorted(self.network.graph.neighbors(node))
                if not self.network.is_down(n)
            ]
            new_ads[node] = ReferenceAttenuatedFilter.from_local_and_neighbors(
                self.depth, self.width, self.hashes, state.local_filter, neighbor_ads
            )
        for node, ad in new_ads.items():
            self._nodes[node].advertisement = ad
            for neighbor in sorted(self.network.graph.neighbors(node)):
                if self.network.is_down(node) or self.network.is_down(neighbor):
                    continue
                self._nodes[neighbor].neighbor_filters[node] = ad.copy()
                self.stats_refresh_bytes += ad.size_bytes()

    def converge(self) -> None:
        for _ in range(self.depth + 1):
            self.refresh_round()

    def advertisement(self, node: NodeId) -> ReferenceAttenuatedFilter:
        return self._nodes[node].advertisement

    def neighbor_filters(self, node: NodeId) -> dict[NodeId, ReferenceAttenuatedFilter]:
        return dict(self._nodes[node].neighbor_filters)

    def clear_neighbor_filters(self, node: NodeId) -> None:
        self._nodes[node].neighbor_filters.clear()

    def query(
        self, start: NodeId, guid: GUID, ttl: int | None = None
    ) -> tuple[bool, NodeId | None, tuple[NodeId, ...], float]:
        """(found, location, path, latency_ms) of the hill-climb."""
        if ttl is None:
            ttl = 2 * self.depth
        path = [start]
        latency = 0.0
        visited = {start}
        current = start
        for _ in range(ttl + 1):
            state = self._nodes[current]
            if guid in state.content:
                return True, current, tuple(path), latency
            best: tuple[float, float, NodeId] | None = None
            for neighbor, filt in state.neighbor_filters.items():
                if neighbor in visited or self.network.is_down(neighbor):
                    continue
                distance = filt.first_match(guid)
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
        return False, None, tuple(path), latency

    def penalize(self, node: NodeId, neighbor: NodeId, amount: float) -> None:
        state = self._nodes[node]
        state.penalties[neighbor] = state.penalties.get(neighbor, 0.0) + amount
