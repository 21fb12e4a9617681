"""Routing soft-state repair: eviction, republish, and pointer refresh.

Section 4.3.4: "the neighbor links of the routing system are redundant,
soft-state" -- when a neighbor dies, routing fails over to backups and
the dead link is eventually evicted; location pointers along publish
paths through the dead node are republished so locates converge on live
surrogate roots; and pointers are periodically refreshed so stale paths
age out instead of accumulating forever.

:class:`RoutingRepairer` keeps, per registered publication
``(replica_node, object_guid)``, the per-salt publish path it last
deposited pointers along and the mesh's routing epoch it walked them at.
On suspicion of a node it (1) evicts the node from every neighbor-table
entry in the mesh, (2) scrubs and republishes every publication whose
stored path ran through the dead node, and (3) drops publications that
were *hosted* on the dead node.  On restore it re-inserts the node, so
the tables link it again (the paper's online insertion).  The periodic
:meth:`refresh` republishes every publication.  If the epoch moved since
its routes were walked, that means: scrub the old paths, then walk,
deposit along and remember the current routes.  Otherwise the stored routes
*are* the current ones, and scrub-then-deposit along them would leave
every pointer store as it is (an emptied key keeps its place), so the
refresh only deposits, in place, with the counters and telemetry of a
fresh publish.
"""

from __future__ import annotations

from repro.routing.plaxton import PlaxtonMesh, RouteTrace
from repro.routing.salt import SaltedRouter
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID

#: per salt, in salt order: the route pointers were last deposited along
_SaltPaths = list[RouteTrace]


class RoutingRepairer:
    """Soft-state maintenance for the Plaxton mesh's pointers and links."""

    def __init__(
        self,
        mesh: PlaxtonMesh,
        router: SaltedRouter,
        network: Network,
        telemetry=None,
    ) -> None:
        self.mesh = mesh
        self.router = router
        self.network = network
        self.telemetry = coalesce(telemetry)
        #: publication -> (routing epoch its routes were walked at, routes)
        self._paths: dict[
            tuple[NodeId, GUID], tuple[tuple[int, int], _SaltPaths]
        ] = {}
        self.stats_evictions = 0
        self.stats_republishes = 0

    # -- publication bookkeeping -------------------------------------------

    def register(self, replica_node: NodeId, object_guid: GUID) -> None:
        """Record the publish paths for a replica already published
        through the location service, so repair can find them later."""
        epoch = self.mesh.routing_epoch
        paths = [
            self.mesh.route_to_root(replica_node, salted)
            for salted in self.router.salted_guids(object_guid)
        ]
        self._paths[(replica_node, object_guid)] = (epoch, paths)

    def forget(
        self, replica_node: NodeId, object_guid: GUID, scrub: bool = True
    ) -> None:
        """Drop a publication; optionally scrub its pointers too."""
        record = self._paths.pop((replica_node, object_guid), None)
        if record is not None and scrub:
            self._scrub(replica_node, object_guid, record[1])

    def publications(self) -> list[tuple[NodeId, GUID]]:
        return sorted(self._paths, key=lambda key: (key[0], key[1].value))

    # -- repair actions ------------------------------------------------------

    def on_suspect(self, node: NodeId) -> None:
        """A node is suspected dead: evict its links, heal its paths."""
        self.evict(node)
        for replica_node, object_guid in self.publications():
            if replica_node == node:
                # The dead node hosted this replica: its pointers are
                # lies now; scrub them and forget the publication.
                self.forget(replica_node, object_guid, scrub=True)
                continue
            _, paths = self._paths[(replica_node, object_guid)]
            if any(node in trace.path for trace in paths):
                self.republish(replica_node, object_guid)

    def on_restore(self, node: NodeId) -> None:
        """A suspected node acks again: offer it back to every table entry
        it matches, so routes reach it and it can serve as a root again."""
        self.mesh.insert_server(node)

    def evict(self, node: NodeId) -> None:
        """Remove a node from every neighbor-table entry in the mesh.

        Routing already *skips* dead neighbors per hop; eviction makes
        the removal permanent so the table slot is free for a backup.
        The node's own table is left alone (it is not routing anyway,
        and a rebuild via ``build_tables`` restores everything).
        """
        removed = self.mesh.drop_links(node)
        self.stats_evictions += 1
        tel = self.telemetry
        if tel.enabled:
            tel.record("recovery", "evict", node=node, links_removed=removed)

    def republish(self, replica_node: NodeId, object_guid: GUID) -> None:
        """Deposit pointers along the current routes.  While the routing
        epoch stands those are the stored routes, deposited in place;
        once it moved, the stored paths are scrubbed and walked again."""
        key = (replica_node, object_guid)
        record = self._paths.get(key)
        if record is None:
            return
        if self.network.is_down(replica_node):
            # Can't republish from a dead host; drop the publication.
            self.forget(replica_node, object_guid, scrub=True)
            return
        walked_at, paths = record
        salted = self.router.salted_guids(object_guid)
        epoch = self.mesh.routing_epoch
        if walked_at == epoch:
            # Scrub-then-deposit along the same path changes no pointer
            # store (an emptied key keeps its place), so the deposit
            # alone is made; it still restores a pointer removed while
            # the publication stayed registered.
            self.mesh.redeposit(replica_node, salted, paths)
        else:
            self._scrub(replica_node, object_guid, paths)
            paths = [self.mesh.publish(replica_node, guid) for guid in salted]
            self._paths[key] = (epoch, paths)
        self.stats_republishes += 1
        tel = self.telemetry
        if tel.enabled:
            tel.record(
                "recovery",
                "republish",
                replica=replica_node,
                object=object_guid,
                salts=len(paths),
            )

    def refresh(self) -> None:
        """Periodic pointer refresh: re-publish every live publication so
        stale paths age out (TTL-style soft state)."""
        tel = self.telemetry
        if tel.enabled:
            tel.count("recovery_refresh_sweeps_total")
        for replica_node, object_guid in self.publications():
            self.republish(replica_node, object_guid)

    # -- internals -----------------------------------------------------------

    def _scrub(
        self, replica_node: NodeId, object_guid: GUID, paths: _SaltPaths
    ) -> None:
        for salted, trace in zip(self.router.salted_guids(object_guid), paths):
            for nid in trace.path:
                node = self.mesh.nodes.get(nid)
                if node is not None:
                    node.remove_pointer(salted, replica_node)
