"""The Plaxton-style global data-location mesh (Section 4.3.3, Figure 3).

Every server gets a random node-ID; neighbor tables are built per
(level, digit): the level-N entries of node X point at the closest nodes
whose IDs match the lowest N digits of X's ID and differ in combinations
of digit N ("closest" in underlying network latency).  The links form
random embedded trees; resolving a GUID one digit at a time from any
start converges on the GUID's unique *root* node.

Data location uses the mesh in two phases:

* **publish**: when a replica is placed, a publish message routes from
  its server toward the object's root, depositing a location pointer at
  every hop (O(log n) hops).
* **locate**: a query climbs toward the root and, at the first node
  holding a pointer, routes directly to the (closest) replica.  Plaxton
  et al. prove the distance traveled is proportional to the distance to
  the closest replica; most searches never reach the root.

We add OceanStore's redundancy on top (Section 4.3.3, "Achieving Fault
Tolerance"): multiple backup links per table entry and routing that jumps
past dead neighbors; salted multi-root publishing lives in
:mod:`repro.routing.salt`.  Maintenance under churn (Section 4.3.3,
"Achieving Maintenance-Free Operation") is :mod:`repro.recovery`'s: its
failure detector evicts a suspected node through
:meth:`PlaxtonMesh.drop_links` and re-offers a restored one through
:meth:`PlaxtonMesh.insert_server`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import DIGIT_BITS, GUID, GUID_BITS, GUID_DIGITS

DIGIT_BASE = 1 << DIGIT_BITS


class RoutingError(RuntimeError):
    """Routing failed (disconnected mesh or exhausted redundancy)."""


@dataclass(slots=True)
class RouteTrace:
    """Diagnostics for one routing operation."""

    path: list[NodeId] = field(default_factory=list)
    latency_ms: float = 0.0
    reached_root: bool = False

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)


@dataclass(frozen=True, slots=True)
class LocateResult:
    found: bool
    replica_node: NodeId | None
    trace: RouteTrace


class PlaxtonNode:
    """Per-server routing state: the neighbor table and pointer store."""

    #: Number of backup neighbors kept per (level, digit) entry
    #: (the "additional neighbor links" redundancy of Section 4.3.3).
    BACKUPS = 3

    def __init__(self, node_id: GUID, network_id: NodeId) -> None:
        self.node_id = node_id
        self.network_id = network_id
        #: table[level][digit] -> ordered list of candidate network ids,
        #: closest first (primary + backups).
        self.table: list[list[list[NodeId]]] = []
        #: location pointers deposited by publish paths (an emptied set
        #: keeps its key; see remove_pointer)
        self.pointers: dict[GUID, set[NodeId]] = {}

    def entry(self, level: int, digit: int) -> list[NodeId]:
        if level >= len(self.table):
            return []
        return self.table[level][digit]

    def links(self) -> Iterator[NodeId]:
        """The other servers the table names, in table order (one that
        fills entries at several levels comes up once per entry)."""
        for row in self.table:
            for entry in row:
                for nid in entry:
                    if nid != self.network_id:
                        yield nid

    def remove_pointer(self, object_guid: GUID, replica_node: NodeId) -> None:
        """Drop one pointer.  An emptied set stays under its key: a locate
        reads it as no pointer, and a scrub followed by a deposit along the
        same path leaves the store as the deposit alone would, key order
        included."""
        locations = self.pointers.get(object_guid)
        if locations is not None:
            locations.discard(replica_node)


class PlaxtonMesh:
    """The global mesh: all nodes' tables, plus publish/locate/route.

    Tables are built from global knowledge for the initial deployment
    (the paper's static Plaxton construction); :meth:`insert_server` and
    :meth:`drop_links` maintain the same invariants incrementally, for
    online insertion and for the recovery layer's evict and rejoin.
    Membership only grows: an evicted node stays a member, linked from no
    other node's table until it is re-inserted.  Every mutation of
    membership or of a neighbor table goes through a method of this
    class, because each must advance :attr:`routing_epoch`.
    """

    def __init__(self, network: Network, rng: random.Random, telemetry=None) -> None:
        self.network = network
        self.rng = rng
        self.telemetry = coalesce(telemetry)
        self.nodes: dict[NodeId, PlaxtonNode] = {}
        self._by_guid: dict[GUID, NodeId] = {}
        self.stats_publish_messages = 0
        self.stats_locate_messages = 0
        self._tables_epoch = 0

    @property
    def routing_epoch(self) -> tuple[int, int]:
        """Changes whenever a route may have.

        :meth:`route_to_root` is a function of the membership, the
        neighbor tables and the network's down-set and of nothing else, so
        a path walked at one epoch is the path a walk would find for as
        long as the epoch stands.  It may advance without any route
        changing; it never stands still when one did.
        """
        return (self._tables_epoch, self.network.liveness_epoch)

    # -- construction --------------------------------------------------------

    def add_server(self, network_id: NodeId, node_id: GUID | None = None) -> PlaxtonNode:
        """Register a server (does not build tables; see build_tables)."""
        if network_id in self.nodes:
            raise ValueError(f"server {network_id} already in mesh")
        if node_id is None:
            while True:
                node_id = GUID(self.rng.getrandbits(GUID_BITS))
                if node_id not in self._by_guid:
                    break
        elif node_id in self._by_guid:
            raise ValueError(f"node-ID collision: {node_id}")
        node = PlaxtonNode(node_id, network_id)
        self.nodes[network_id] = node
        self._by_guid[node_id] = network_id
        self._tables_epoch += 1
        return node

    def populate(self, network_ids: list[NodeId]) -> None:
        """Add many servers with random IDs and build all tables."""
        for nid in network_ids:
            self.add_server(nid)
        self.build_tables()

    @property
    def table_height(self) -> int:
        """Number of levels needed to distinguish all current node-IDs."""
        guids = list(self._by_guid)
        if len(guids) <= 1:
            return 1
        # Levels needed = longest shared suffix between any two distinct
        # IDs, plus one.  Computed by grouping by suffix until singletons.
        level = 0
        groups: dict[tuple[int, ...], int] = {(): len(guids)}
        by_suffix: dict[tuple[int, ...], list[GUID]] = {(): guids}
        while any(len(g) > 1 for g in by_suffix.values()) and level < GUID_DIGITS:
            next_by_suffix: dict[tuple[int, ...], list[GUID]] = {}
            for suffix, members in by_suffix.items():
                if len(members) <= 1:
                    continue
                for guid in members:
                    key = suffix + (guid.digit(level),)
                    next_by_suffix.setdefault(key, []).append(guid)
            by_suffix = next_by_suffix
            level += 1
        return max(level, 1)

    def build_tables(self) -> None:
        """(Re)build every node's neighbor table from scratch."""
        height = self.table_height + 1
        # Group nodes by digit-suffix for each level.
        suffix_groups: list[dict[tuple[int, ...], list[NodeId]]] = []
        for level in range(height):
            groups: dict[tuple[int, ...], list[NodeId]] = {}
            for guid, nid in self._by_guid.items():
                key = tuple(guid.digit(i) for i in range(level + 1))
                groups.setdefault(key, []).append(nid)
            suffix_groups.append(groups)
        for node in self.nodes.values():
            own_digits = node.node_id.digits()
            node.table = [
                [
                    self._ranked(
                        node, suffix_groups[level].get(own_digits[:level] + (digit,), ())
                    )
                    for digit in range(DIGIT_BASE)
                ]
                for level in range(height)
            ]
        self._tables_epoch += 1

    def _ranked(self, node: PlaxtonNode, candidates: Iterable[NodeId]) -> list[NodeId]:
        """The table entry ``node`` keeps out of ``candidates``: the
        closest first, ties broken by node-ID, primary plus backups."""
        return sorted(
            candidates,
            key=lambda nid: (
                self.network.latency_ms(node.network_id, nid),
                self.nodes[nid].node_id.value,
            ),
        )[: PlaxtonNode.BACKUPS]

    def _scan_row(self, node: PlaxtonNode, level: int) -> list[list[NodeId]]:
        """One level of ``node``'s table, from a scan of the membership."""
        prefix = node.node_id.digits()[:level]
        by_digit: list[list[NodeId]] = [[] for _ in range(DIGIT_BASE)]
        for other in self.nodes.values():
            digits = other.node_id.digits()
            if digits[:level] == prefix:
                by_digit[digits[level]].append(other.network_id)
        return [self._ranked(node, candidates) for candidates in by_digit]

    # -- incremental membership ------------------------------------------------

    def insert_server(
        self, network_id: NodeId, node_id: GUID | None = None
    ) -> PlaxtonNode:
        """Add a server to a live mesh and wire it into the tables.

        The new node's table is computed against current members; existing
        members then adopt it into the entries it matches, where it fills
        a hole or is closer than a current candidate.  This is the
        global-knowledge rendering of the paper's recursive insertion: it
        uses what that algorithm gathers hop by hop (who matches which
        suffix, who is closest).  A server already in the mesh (one
        :meth:`drop_links` evicted, now back) keeps the table it has and
        is re-offered to the others.
        """
        node = self.nodes.get(network_id) or self.add_server(network_id, node_id)
        height = self.table_height + 1
        if not node.table:
            node.table = [self._scan_row(node, level) for level in range(height)]
        new_digits = node.node_id.digits()
        for other in self.nodes.values():
            if other is node:
                continue
            other_digits = other.node_id.digits()
            for level in range(min(len(other.table), height)):
                if other_digits[:level] != new_digits[:level]:
                    break  # suffix no longer matches; higher levels cannot
                entry = other.table[level][new_digits[level]]
                if network_id not in entry:
                    entry[:] = self._ranked(other, entry + [network_id])
            while len(other.table) < height:
                other.table.append(self._scan_row(other, len(other.table)))
        self._tables_epoch += 1
        return node

    def drop_links(self, network_id: NodeId) -> int:
        """Remove a server from every other node's table entries, freeing
        the slots for backups; returns how many links went.  Its own table
        is left alone (a dead node is not routing anyway)."""
        removed = 0
        for node in self.nodes.values():
            if node.network_id == network_id:
                continue
            for row in node.table:
                for entry in row:
                    if network_id in entry:
                        entry.remove(network_id)
                        removed += 1
        self._tables_epoch += 1
        return removed

    # -- routing ----------------------------------------------------------------

    def _next_hop(
        self, current: PlaxtonNode, target: GUID, level: int
    ) -> tuple[NodeId | None, int]:
        """One routing decision: the next hop (or None if current is the
        root) and the level the route continues at.

        Scans digits cyclically starting from the target's digit at this
        level (deterministic surrogate routing, so every route for a GUID
        converges on the same root).  Dead neighbors are skipped in favor
        of backups -- the redundancy of Section 4.3.3.
        """
        height = len(current.table)
        lvl = level
        while lvl < height:
            desired = target.digit(lvl)
            for offset in range(DIGIT_BASE):
                digit = (desired + offset) % DIGIT_BASE
                for candidate in current.entry(lvl, digit):
                    if candidate == current.network_id:
                        # Loopback: this digit resolves to ourselves; the
                        # route continues at the next level.
                        break
                    if self.network.is_down(candidate):
                        continue
                    return candidate, lvl + 1
                else:
                    continue  # no live candidate for this digit; next digit
                break  # hit loopback; consume the level
            else:
                # No live entries anywhere at this level: consume it.
                pass
            lvl += 1
        return None, lvl

    def route_to_root(self, start: NodeId, target: GUID) -> RouteTrace:
        """Route from ``start`` toward the root node for ``target``.

        Returns the trace; the last node on the path is the root.  Raises
        :class:`RoutingError` if the start node is unknown or dead.
        """
        if start not in self.nodes:
            raise RoutingError(f"unknown start node {start}")
        if self.network.is_down(start):
            raise RoutingError(f"start node {start} is down")
        trace = RouteTrace(path=[start])
        current = self.nodes[start]
        level = 0
        for _ in range(GUID_DIGITS + len(self.nodes)):
            next_id, level = self._next_hop(current, target, level)
            if next_id is None:
                trace.reached_root = True
                return trace
            trace.latency_ms += self.network.latency_ms(current.network_id, next_id)
            trace.path.append(next_id)
            current = self.nodes[next_id]
        raise RoutingError(f"route for {target} did not converge")

    def root_of(self, target: GUID) -> NodeId:
        """The unique root node for a GUID (routing from an arbitrary node)."""
        start = self._any_live_node()
        return self.route_to_root(start, target).path[-1]

    def _any_live_node(self) -> NodeId:
        for nid in sorted(self.nodes):
            if not self.network.is_down(nid):
                return nid
        raise RoutingError("no live nodes in mesh")

    # -- publish / locate -----------------------------------------------------

    def publish(self, replica_node: NodeId, object_guid: GUID) -> RouteTrace:
        """Deposit pointers from the replica's server up to the root
        (:meth:`redeposit` re-publishes along a route already walked)."""
        tel = self.telemetry
        with tel.span("plaxton.publish", replica=replica_node):
            trace = self.route_to_root(replica_node, object_guid)
            self._deposit(replica_node, object_guid, trace.path)
        if tel.enabled:
            tel.count("plaxton_publishes_total")
        return trace

    def redeposit(
        self, replica_node: NodeId, object_guids: list[GUID], traces: list[RouteTrace]
    ) -> None:
        """:meth:`publish` each GUID along its trace, which must be the
        route :meth:`route_to_root` finds at the current
        :attr:`routing_epoch`; the deposits, counters and telemetry are
        those of a fresh publish."""
        tel = self.telemetry
        if not tel.enabled:
            for guid, trace in zip(object_guids, traces):
                self._deposit(replica_node, guid, trace.path)
            return
        for guid, trace in zip(object_guids, traces):
            with tel.span("plaxton.publish", replica=replica_node):
                self._deposit(replica_node, guid, trace.path)
            tel.count("plaxton_publishes_total")

    def _deposit(self, replica_node: NodeId, object_guid: GUID, path: list[NodeId]) -> None:
        """One pointer per node on ``path``, one publish message per hop."""
        nodes = self.nodes
        for nid in path:
            pointers = nodes[nid].pointers
            locations = pointers.get(object_guid)
            if locations is None:
                pointers[object_guid] = {replica_node}
            else:
                locations.add(replica_node)
        self.stats_publish_messages += len(path)

    def unpublish(self, replica_node: NodeId, object_guid: GUID) -> None:
        """Remove this replica's pointers along its current publish path."""
        trace = self.route_to_root(replica_node, object_guid)
        for nid in trace.path:
            self.nodes[nid].remove_pointer(object_guid, replica_node)

    def locate(self, start: NodeId, object_guid: GUID) -> LocateResult:
        """Climb toward the root; stop at the first pointer found.

        The result's trace covers the climb plus the final direct hop to
        the replica.  "Most object searches do not travel all the way to
        the root" (Figure 3 caption) -- ``trace.reached_root`` records
        whether this one did.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._locate(start, object_guid)
        with tel.span("plaxton.locate", start=start):
            result = self._locate(start, object_guid)
        tel.count(
            "plaxton_locates_total", result="hit" if result.found else "miss"
        )
        return result

    def _locate(self, start: NodeId, object_guid: GUID) -> LocateResult:
        if start not in self.nodes:
            raise RoutingError(f"unknown start node {start}")
        if self.network.is_down(start):
            raise RoutingError(f"start node {start} is down")
        trace = RouteTrace(path=[start])
        current = self.nodes[start]
        level = 0
        for _ in range(GUID_DIGITS + len(self.nodes)):
            self.stats_locate_messages += 1
            locations = {
                loc
                for loc in current.pointers.get(object_guid, ())
                if not self.network.is_down(loc)
            }
            if locations:
                best = min(
                    locations,
                    key=lambda loc: (
                        self.network.latency_ms(current.network_id, loc),
                        loc,
                    ),
                )
                if best != current.network_id:
                    trace.latency_ms += self.network.latency_ms(
                        current.network_id, best
                    )
                    trace.path.append(best)
                return LocateResult(True, best, trace)
            next_id, level = self._next_hop(current, target=object_guid, level=level)
            if next_id is None:
                trace.reached_root = True
                return LocateResult(False, None, trace)
            trace.latency_ms += self.network.latency_ms(current.network_id, next_id)
            trace.path.append(next_id)
            current = self.nodes[next_id]
        raise RoutingError(f"locate for {object_guid} did not converge")
