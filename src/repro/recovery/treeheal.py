"""Dissemination-tree self-repair (Section 4.4.4).

When a secondary replica dies, its children become an orphaned subtree:
commit notices stop reaching them and their pull path is gone.  On
suspicion, :class:`TreeRepairer` walks every tier hosting a replica on
the dead node and

1. removes the dead member (its replica record is dropped, and with it
   its host's tier subscription once the host serves no other object),
2. reparents the orphans via the tree's own membership rules, restricted
   to *live* candidates,
3. has each orphan anti-entropy with its new parent, which streams the
   committed updates the subtree missed (the tree root serves catch-up
   from the primary tier's pushed log), and
4. clears the dead replica out of the location tiers and the
   introspective replica registry.

Pointer scrubbing for the dead host's publications is the routing
repairer's job; the manager wires both to the same suspicion event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consistency.dissemination import TreeError
from repro.routing.probabilistic import ProbabilisticLocator
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.consistency.secondary import SecondaryTier
    from repro.introspect.replica_mgmt import ReplicaManager


class TreeRepairer:
    """Reparent orphaned dissemination subtrees and catch them up."""

    def __init__(
        self,
        network: Network,
        tiers: dict[GUID, "SecondaryTier"],
        probabilistic: ProbabilisticLocator,
        replica_manager: "ReplicaManager | None" = None,
        telemetry=None,
    ) -> None:
        self.network = network
        self.tiers = tiers
        self.probabilistic = probabilistic
        self.replica_manager = replica_manager
        self.telemetry = coalesce(telemetry)
        self.stats_reparented = 0

    def on_suspect(self, node: NodeId) -> None:
        tel = self.telemetry
        for guid in sorted(self.tiers, key=lambda g: g.value):
            tier = self.tiers[guid]
            if node == tier.tree.root or node not in tier.replicas:
                continue
            try:
                reparented = tier.repair_member_failure(node)
            except TreeError:
                # No live member has spare fanout: leave the tier for a
                # later suspicion (or epidemic anti-entropy) to mend.
                if tel.enabled:
                    tel.record(
                        "recovery", "reparent_failed", object=guid, node=node
                    )
                continue
            if tel.enabled:
                tel.count("recovery_tree_repairs_total")
            for orphan in sorted(reparented):
                new_parent = reparented[orphan]
                self.stats_reparented += 1
                if tel.enabled:
                    tel.record(
                        "recovery",
                        "reparent",
                        object=guid,
                        orphan=orphan,
                        parent=new_parent,
                    )
                replica = tier.replicas.get(orphan)
                if replica is not None and not self.network.is_down(orphan):
                    # Anti-entropy with the new parent streams the
                    # committed updates the orphaned subtree missed.
                    replica.start_anti_entropy(new_parent)
            self.probabilistic.remove_object(node, guid)
            if self.replica_manager is not None:
                self.replica_manager.forget_replica(guid, node)
