"""Bloom filters and attenuated Bloom filters (Section 4.3.2).

"An attenuated Bloom filter of depth D can be viewed as an array of D
normal Bloom filters.  In the context of our algorithm, the first Bloom
filter is a record of the objects contained locally on the current node.
The i-th Bloom filter is the union of all of the Bloom filters for all of
the nodes a distance i through any path from the current node.  An
attenuated Bloom filter is stored for each directed edge in the network."

Hash functions are derived from the object GUID itself (the GUID is
already a secure hash, so slicing it yields independent bit positions --
this also matches Figure 2, where "GUID hashes to bits 0, 1, and 3").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.util.ids import GUID, GUID_BITS

#: 16-bit slices a GUID can supply directly before re-expansion kicks in
_DIRECT_SLICES = GUID_BITS // 16


def guid_bit_positions(guid: GUID, width: int, hashes: int) -> tuple[int, ...]:
    """The ``hashes`` bit positions a GUID sets in a ``width``-bit filter.

    Positions are carved from successive 16-bit slices of the GUID value,
    reduced mod ``width``; the GUID's pseudo-randomness makes the slices
    behave as independent hash functions.

    A 160-bit GUID only supplies ``GUID_BITS/16 = 10`` direct slices.
    Beyond that the shift runs off the end of the value, every further
    "slice" degenerates to zero, and the resulting positions become the
    same GUID-independent arithmetic schedule for *all* GUIDs -- so every
    filter silently shares its high positions and false-positive rates
    collapse.  High-index slices therefore re-expand the GUID through
    SHA-1(guid || round): still deterministic, still GUID-dependent.
    """
    if width <= 0:
        raise ValueError(f"filter width must be positive: {width}")
    if hashes <= 0:
        raise ValueError(f"hash count must be positive: {hashes}")
    positions = []
    value = guid.value
    extension = b""
    for i in range(hashes):
        if i < _DIRECT_SLICES:
            chunk = (value >> (16 * i)) & 0xFFFF
        else:
            j = i - _DIRECT_SLICES
            round_no, offset = divmod(j, _DIRECT_SLICES)
            if offset == 0:
                extension = hashlib.sha1(
                    guid.to_bytes() + round_no.to_bytes(4, "big")
                ).digest()
            chunk = int.from_bytes(extension[2 * offset : 2 * offset + 2], "big")
        # Fold in the index so repeated chunk values still differ.
        positions.append((chunk + i * 0x9E37) % width)
    return tuple(positions)


def guid_mask(guid: GUID, width: int, hashes: int) -> int:
    """The bits a GUID sets in a ``width``-bit filter, as one int.

    A filter claims the GUID iff ``bits & mask == mask``, so a query
    computes the mask once and probes every filter it meets with it.
    """
    mask = 0
    for pos in guid_bit_positions(guid, width, hashes):
        mask |= 1 << pos
    return mask


class BloomFilter:
    """A fixed-width Bloom filter over GUIDs."""

    __slots__ = ("width", "hashes", "bits")

    def __init__(self, width: int = 1024, hashes: int = 4, bits: int = 0) -> None:
        if width <= 0 or hashes <= 0:
            raise ValueError("width and hashes must be positive")
        self.width = width
        self.hashes = hashes
        self.bits = bits

    def add(self, guid: GUID) -> None:
        self.bits |= guid_mask(guid, self.width, self.hashes)

    def __contains__(self, guid: GUID) -> bool:
        mask = guid_mask(guid, self.width, self.hashes)
        return self.bits & mask == mask

    @property
    def popcount(self) -> int:
        return bin(self.bits).count("1")

    def fill_ratio(self) -> float:
        return self.popcount / self.width

    def size_bytes(self) -> int:
        """Wire size: the bit array, rounded up to bytes."""
        return (self.width + 7) // 8

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.width == other.width
            and self.hashes == other.hashes
            and self.bits == other.bits
        )


@dataclass(frozen=True, slots=True)
class AttenuatedMatch:
    """Result of probing an attenuated filter: smallest matching distance."""

    distance: int  # 0-based level; 0 = the neighbor itself


class AttenuatedBloomFilter:
    """A depth-D array of Bloom filters, one per distance level.

    Level 0 summarizes the objects on the edge's far endpoint; level i
    summarizes objects reachable i further hops beyond it.  Stored per
    *directed edge*, computed by each node from its own content plus the
    attenuated filters advertised by its neighbors.  An advertisement is
    a value once published: every neighbor holds the same object, and a
    changed advertisement is a new object, never an edit of the old one.
    """

    def __init__(self, depth: int, width: int = 1024, hashes: int = 4) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive: {depth}")
        self.depth = depth
        self.width = width
        self.hashes = hashes
        self.levels = [BloomFilter(width, hashes) for _ in range(depth)]

    def add(self, guid: GUID, distance: int) -> None:
        if not 0 <= distance < self.depth:
            raise ValueError(f"distance out of range: {distance}")
        self.levels[distance].add(guid)

    def first_level(self, mask: int) -> int | None:
        """Smallest level holding every bit of ``mask`` (see :func:`guid_mask`)."""
        for distance, level in enumerate(self.levels):
            if level.bits & mask == mask:
                return distance
        return None

    def first_match(self, guid: GUID) -> AttenuatedMatch | None:
        """Smallest level whose filter claims the GUID, if any."""
        distance = self.first_level(guid_mask(guid, self.width, self.hashes))
        return None if distance is None else AttenuatedMatch(distance=distance)

    def size_bytes(self) -> int:
        return sum(level.size_bytes() for level in self.levels)

    @classmethod
    def from_local_and_neighbors(
        cls,
        depth: int,
        width: int,
        hashes: int,
        local: BloomFilter,
        neighbor_filters: list["AttenuatedBloomFilter"],
    ) -> "AttenuatedBloomFilter":
        """Build the filter a node *advertises* on its incoming edges.

        Level 0 is the node's local content; level i is the union of the
        neighbors' advertised level i-1 (objects i hops beyond this node
        through any path).  This is the distributed maintenance rule: each
        node recomputes its advertisement from neighbor advertisements, so
        a change propagates one hop per refresh round.
        """
        for nf in neighbor_filters:
            if nf.depth != depth or nf.width != width or nf.hashes != hashes:
                raise ValueError("incompatible attenuated filter parameters")
        result = cls(depth, width, hashes)
        result.levels[0].bits = local.bits
        for level in range(1, depth):
            merged = 0
            for nf in neighbor_filters:
                merged |= nf.levels[level - 1].bits
            result.levels[level].bits = merged
        return result
