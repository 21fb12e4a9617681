"""Dynamic mesh membership: insertion, removal, and repair.

Section 4.3.3, "Achieving Maintenance-Free Operation": the original
Plaxton work assumed a static mesh; OceanStore adds recursive node
insertion and removal, soft-state beacons for fault detection, a
second-chance policy before declaring nodes dead, and continuous repair
that republishes pointers and reconstructs data on permanent departure.

:class:`MembershipManager` maintains the invariants of
:class:`~repro.routing.plaxton.PlaxtonMesh` incrementally:

* **insert**: build the new node's table from the existing mesh; then
  offer the new node to every existing node's relevant table entries
  (it is inserted where it is closer than a current candidate or fills a
  hole).  Publish paths that should now pass through the new node are
  lazily repaired by the periodic republish sweep.
* **remove**: drop the node from all tables (backups take over), and
  republish every pointer the departed node held so location state
  survives.
* **beacons**: each node probes its table neighbors; a neighbor missing
  ``SECOND_CHANCE`` consecutive beacons is declared dead and removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.routing.plaxton import PlaxtonMesh, PlaxtonNode, RoutingError
from repro.sim.network import NodeId
from repro.util.ids import GUID


@dataclass
class BeaconState:
    """Soft-state failure detector for one (observer, neighbor) pair."""

    missed: int = 0


class MembershipManager:
    """Online insert/remove/repair for a Plaxton mesh."""

    #: Consecutive missed beacons before declaring a node dead (the
    #: paper's "second-chance algorithm" avoids evicting nodes on a
    #: single missed probe).
    SECOND_CHANCE = 2

    def __init__(self, mesh: PlaxtonMesh) -> None:
        self.mesh = mesh
        self._beacons: dict[tuple[NodeId, NodeId], BeaconState] = {}
        self.stats_inserted = 0
        self.stats_removed = 0
        self.stats_repaired_pointers = 0

    # -- insertion ------------------------------------------------------------

    def insert(self, network_id: NodeId, node_id: GUID | None = None) -> PlaxtonNode:
        """Insert a server into a live mesh.

        The new node's table is computed against current members; existing
        members then consider the new node for their own tables.  This is
        the global-knowledge rendering of the paper's recursive insertion:
        the information used (who matches which suffix, who is closest) is
        exactly what the recursive algorithm gathers hop by hop.
        """
        node = self.mesh.insert_server(network_id, node_id)
        self.stats_inserted += 1
        return node

    # -- removal ----------------------------------------------------------------

    def remove(self, network_id: NodeId) -> None:
        """Remove a server permanently: scrub tables, republish its pointers.

        Pointers *held by* the departed node are republished from their
        replica servers so location state survives (the paper: "servers
        slowly repeat the publishing process to repair pointers").
        """
        departed = self.mesh.remove_server(network_id)
        # Republishing: every replica the departed node pointed at re-runs
        # its publish path against the shrunken mesh.
        republished = set()
        for object_guid, replicas in departed.pointers.items():
            for replica in replicas:
                if (object_guid, replica) in republished:
                    continue
                republished.add((object_guid, replica))
                if replica in self.mesh.nodes and not self.mesh.network.is_down(replica):
                    self.mesh.publish(replica, object_guid)
                    self.stats_repaired_pointers += 1
        self.stats_removed += 1

    # -- beacons / failure detection ----------------------------------------------

    def beacon_round(self) -> list[NodeId]:
        """One soft-state probe round; returns nodes declared dead.

        Every node probes the neighbors in its table.  A down neighbor
        accrues a miss; after ``SECOND_CHANCE`` consecutive misses it is
        declared dead and removed from the mesh (triggering repair).  A
        successful probe resets the counter -- the second chance.
        """
        pairs = {
            (node.network_id, neighbor)
            for node in self.mesh.nodes.values()
            for neighbor in node.links()
        }
        suspects: dict[NodeId, int] = {}
        for key in pairs:
            _, neighbor = key
            state = self._beacons.setdefault(key, BeaconState())
            if self.mesh.network.is_down(neighbor):
                state.missed += 1
                suspects[neighbor] = max(suspects.get(neighbor, 0), state.missed)
            else:
                state.missed = 0
        declared_dead = [
            nid for nid, missed in suspects.items() if missed >= self.SECOND_CHANCE
        ]
        for nid in declared_dead:
            if nid in self.mesh.nodes:
                self.remove(nid)
        return declared_dead

    # -- continuous repair ---------------------------------------------------------

    def republish_sweep(self, replicas: dict[GUID, set[NodeId]]) -> int:
        """Repeat the publishing process for every known replica.

        ``replicas`` maps object GUID -> the servers currently holding a
        replica (in the full system this comes from each server's local
        store).  Repairs pointer paths invalidated by membership changes.
        Returns the number of publishes performed.
        """
        count = 0
        for object_guid, servers in replicas.items():
            for server in servers:
                if server in self.mesh.nodes and not self.mesh.network.is_down(server):
                    try:
                        self.mesh.publish(server, object_guid)
                        count += 1
                    except RoutingError:
                        continue
        return count
