"""The ``RingProvider`` seam: per-GUID resolution of the responsible ring.

:class:`~repro.core.system.OceanStoreSystem` used to hold one hardcoded
``self.ring``; the provider replaces that with "resolve the ring for
this GUID", backed by the range sharding and the ring directory.  A
single-ring provider is pure indirection -- same ring, same nodes, no
extra lookups, no extra traffic -- which is what keeps ``ring_count=1``
deployments byte-identical to the pre-sharding implementation.

Each shard tracks its *epoch*: a monotonically increasing number bumped
by every membership handoff.  Exactly one ``(ring, epoch)`` pair is
active per shard; retired rings are kept (inert, detached from the
network) so cross-epoch bookkeeping -- liveness checks, fencing of
stragglers -- can still see what they executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consistency.pbft import InnerRing
from repro.rings.directory import RingDirectory
from repro.rings.sharding import ShardRange, shard_for
from repro.sim.network import NodeId
from repro.util.ids import GUID


@dataclass
class RingShard:
    """One shard: its range, its current ring, and its epoch history."""

    shard_id: int
    range: ShardRange
    epoch: int
    ring: InnerRing
    members: list[NodeId]
    #: True while a membership handoff is in flight: new submissions are
    #: queued by the handoff manager instead of entering the old ring
    transitioning: bool = False
    #: (epoch, ring) pairs fenced off by completed handoffs
    retired: list[tuple[int, InnerRing]] = field(default_factory=list)

    @property
    def contact(self) -> NodeId:
        return self.members[0]


class RingProvider:
    """Maps GUIDs to shards and shards to live rings."""

    def __init__(
        self, shards: list[RingShard], directory: RingDirectory
    ) -> None:
        self.shards = shards
        self.directory = directory
        self._ranges = tuple(shard.range for shard in shards)
        #: commits dropped by the epoch fence (stale-ring certificates)
        self.stats_fenced_commits = 0

    @property
    def ring_count(self) -> int:
        return len(self.shards)

    @property
    def sharded(self) -> bool:
        return len(self.shards) > 1

    # -- resolution --------------------------------------------------------

    def shard_of(self, guid: GUID) -> RingShard:
        """The shard owning ``guid`` (static range arithmetic only)."""
        return self.shards[shard_for(guid, self._ranges)]

    def resolve(self, guid: GUID, client: NodeId | None = None) -> RingShard:
        """The shard owning ``guid``, resolved through the directory.

        Single-ring deployments short-circuit: no directory counters, no
        mesh walk, nothing a pre-sharding deployment did not do.
        """
        if not self.sharded:
            return self.shards[0]
        shard = self.shard_of(guid)
        self.directory.resolve(shard.shard_id, client=client)
        return shard

    def ring_for(self, guid: GUID) -> InnerRing:
        return self.shard_of(guid).ring

    def members_for(self, guid: GUID) -> list[NodeId]:
        return list(self.shard_of(guid).members)

    def primary_for(self, guid: GUID) -> NodeId:
        return self.shard_of(guid).contact

    # -- node-centric lookups ----------------------------------------------

    def all_ring_nodes(self) -> set[NodeId]:
        nodes: set[NodeId] = set()
        for shard in self.shards:
            nodes.update(shard.members)
        return nodes

    def replica_on(self, node: NodeId):
        """The current-epoch PBFT replica hosted on ``node``, if any."""
        for shard in self.shards:
            if node in shard.members:
                return shard.ring.replicas[shard.members.index(node)]
        return None

    def rings(self) -> list[InnerRing]:
        """Every current-epoch ring, shard order."""
        return [shard.ring for shard in self.shards]

    def all_rings_ever(self) -> list[InnerRing]:
        """Current plus retired rings (for cross-epoch liveness checks)."""
        rings = []
        for shard in self.shards:
            rings.extend(ring for _, ring in shard.retired)
            rings.append(shard.ring)
        return rings

    # -- epoch management --------------------------------------------------

    def install_ring(
        self,
        shard_id: int,
        epoch: int,
        ring: InnerRing,
        members: list[NodeId],
    ) -> None:
        """Swap a shard to a new epoch; the old ring is fenced/retired."""
        shard = self.shards[shard_id]
        if epoch <= shard.epoch:
            raise ValueError(
                f"shard {shard_id}: epoch must advance "
                f"({shard.epoch} -> {epoch})"
            )
        shard.retired.append((shard.epoch, shard.ring))
        shard.epoch = epoch
        shard.ring = ring
        shard.members = list(members)
        shard.transitioning = False

    def fence_check(self, shard_id: int, epoch: int) -> bool:
        """True when ``epoch`` is the shard's current epoch.

        Certificates from any other epoch are stale-ring commits; the
        caller drops them and we count the drop.
        """
        if self.shards[shard_id].epoch == epoch:
            return True
        self.stats_fenced_commits += 1
        return False

    # -- reporting ---------------------------------------------------------

    def commit_stats(self) -> list[dict]:
        """Per-shard commit counters for the CLI and the observatory."""
        rows = []
        for shard in self.shards:
            rows.append(
                {
                    "shard": shard.shard_id,
                    "epoch": shard.epoch,
                    "members": list(shard.members),
                    "range": shard.range.describe(),
                    "committed": len(shard.ring.committed_order),
                    "retired_epochs": [e for e, _ in shard.retired],
                }
            )
        return rows
