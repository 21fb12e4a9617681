"""Fragment retrieval and reconstruction over the network (Section 4.5).

"To reconstruct archival copies, OceanStore sends out a request keyed off
the GUID of the archival versions.  Note that we can make use of excess
capacity to insulate ourselves from slow servers by requesting more
fragments than we absolutely need and reconstructing the data as soon as
we have enough fragments."

And from the Status section: "Although only one half of the fragments
were required to reconstruct the object, we found that issuing requests
for extra fragments proved beneficial due to dropped requests."

:class:`FragmentFetcher` drives a retrieval against the simulator:
requests to fragment holders can be *dropped* with a configurable
probability (the lossy wide area); timeouts re-issue requests to unused
holders.  The experiment knob is ``extra``: how many more than k
fragments to request up front.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.archival.fragments import ArchivalFragment, ErasureCode, reconstruct_archival
from repro.archival.reed_solomon import CodingError
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NodeId


@dataclass
class FragmentStore:
    """Per-server storage of archival fragments, keyed by archival GUID.

    The key is the ``guid_bytes`` object every fragment of an archive
    shares.  A server usually holds one fragment of an archive, so a
    value is a tuple rather than a list with room to grow.
    """

    fragments: dict[bytes, tuple[ArchivalFragment, ...]] = field(default_factory=dict)

    def put(self, fragment: ArchivalFragment) -> None:
        key = fragment.guid_bytes
        self.fragments[key] = self.fragments.get(key, ()) + (fragment,)

    def get(self, archival_guid_bytes: bytes) -> list[ArchivalFragment]:
        return list(self.fragments.get(archival_guid_bytes, ()))


@dataclass
class FetchResult:
    """Outcome of one reconstruction attempt."""

    success: bool
    data: bytes | None
    elapsed_ms: float
    requests_sent: int
    fragments_received: int
    corrupt_rejected: int


class FragmentFetcher:
    """Requests fragments from holders and reconstructs when enough arrive.

    ``drop_probability`` models request loss; dropped requests silently
    vanish and are recovered by the timeout/retry loop.  ``extra`` is the
    over-request amount the Status-section experiment measures.
    """

    REQUEST_TIMEOUT_MS = 500.0

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        stores: dict[NodeId, FragmentStore],
        rng: random.Random,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0 <= drop_probability < 1:
            raise ValueError(f"drop probability in [0,1): {drop_probability}")
        self.kernel = kernel
        self.network = network
        self.stores = stores
        self.rng = rng
        self.drop_probability = drop_probability

    def holders_of(self, archival_guid_bytes: bytes) -> list[NodeId]:
        return [
            node
            for node, store in sorted(self.stores.items())
            if store.get(archival_guid_bytes) and not self.network.is_down(node)
        ]

    def fetch(
        self,
        client: NodeId,
        archival_guid_bytes: bytes,
        code: ErasureCode,
        merkle_root: bytes,
        extra: int = 0,
        max_rounds: int = 8,
        corrupt_holders: set[NodeId] | None = None,
    ) -> FetchResult:
        """Reconstruct the object, requesting ``k + extra`` fragments first.

        The fetch runs synchronously over virtual time: each round issues
        requests (closest holders first -- "closer fragments tend to be
        discovered first"), waits one timeout, collects arrivals, and
        retries against unused holders until k valid fragments are in
        hand or holders are exhausted.
        """
        start = self.kernel.now
        corrupt_holders = corrupt_holders or set()
        received: dict[int, ArchivalFragment] = {}
        corrupt_rejected = 0
        requests_sent = 0
        tried: set[NodeId] = set()
        responded: set[NodeId] = set()

        holders = sorted(
            self.holders_of(archival_guid_bytes),
            key=lambda node: (self.network.latency_ms(client, node), node),
        )
        want = code.k + extra

        for _ in range(max_rounds):
            if len(received) >= code.k:
                break
            # Holders that never answered (dropped request or corrupt
            # fragments) stay eligible for retry; fresh holders first.
            available = [h for h in holders if h not in responded]
            if not available:
                break
            available.sort(
                key=lambda node: (
                    node in tried,
                    self.network.latency_ms(client, node),
                    node,
                )
            )
            batch = available[: max(want - len(received), 1)]
            arrivals: list[tuple[float, NodeId, ArchivalFragment]] = []
            for holder in batch:
                tried.add(holder)
                requests_sent += 1
                if self.rng.random() < self.drop_probability:
                    continue  # request lost in the network
                rtt = 2 * self.network.latency_ms(client, holder)
                for fragment in self.stores[holder].get(archival_guid_bytes):
                    if holder in corrupt_holders:
                        fragment = _corrupt(fragment)
                    arrivals.append((rtt, holder, fragment))
            for rtt, holder, fragment in sorted(
                arrivals, key=lambda triple: triple[0]
            ):
                if fragment.verify():
                    received.setdefault(fragment.index, fragment)
                    responded.add(holder)
                else:
                    corrupt_rejected += 1
            self.kernel.run(until=self.kernel.now + self.REQUEST_TIMEOUT_MS)

        elapsed = self.kernel.now - start
        if len(received) < code.k:
            return FetchResult(
                success=False,
                data=None,
                elapsed_ms=elapsed,
                requests_sent=requests_sent,
                fragments_received=len(received),
                corrupt_rejected=corrupt_rejected,
            )
        try:
            data = reconstruct_archival(list(received.values()), code, merkle_root)
        except CodingError:
            return FetchResult(
                success=False,
                data=None,
                elapsed_ms=elapsed,
                requests_sent=requests_sent,
                fragments_received=len(received),
                corrupt_rejected=corrupt_rejected,
            )
        return FetchResult(
            success=True,
            data=data,
            elapsed_ms=elapsed,
            requests_sent=requests_sent,
            fragments_received=len(received),
            corrupt_rejected=corrupt_rejected,
        )


def _corrupt(fragment: ArchivalFragment) -> ArchivalFragment:
    """A malicious holder flips payload bits; verification must catch it."""
    mutated = bytes([fragment.payload[0] ^ 0xFF]) + fragment.payload[1:]
    return replace(fragment, payload=mutated)
