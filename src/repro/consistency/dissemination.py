"""Dissemination trees (Section 4.4.3, Figure 5c).

Secondary replicas "are organized into one or more application-level
multicast trees, called dissemination trees, that serve as conduits of
information between the primary tier and secondary tier ... the
dissemination trees push a stream of committed updates to the secondary
replicas, and they serve as communication paths along which secondary
replicas pull missing information from parents and primary replicas."

Here every edge carries the same small commit notice and a replica
pulls only the bodies it lacks (:mod:`repro.consistency.secondary`), so
the paper's update-to-invalidation transformation is the only shape,
not a per-edge option.

The tree is built greedily by latency: members attach to the closest
already-attached node with spare fanout, which keeps subtrees regional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce


class TreeError(RuntimeError):
    pass


@dataclass
class DisseminationTree:
    """Latency-aware multicast tree rooted at the owning ring's leader."""

    network: Network
    root: NodeId
    max_fanout: int = 4
    telemetry: object = None
    _children: dict[NodeId, list[NodeId]] = field(default_factory=dict)
    _parent: dict[NodeId, NodeId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_fanout < 1:
            raise TreeError("max_fanout must be >= 1")
        self.telemetry = coalesce(self.telemetry)
        self._children.setdefault(self.root, [])

    # -- membership ---------------------------------------------------------

    @property
    def members(self) -> list[NodeId]:
        return list(self._children)

    def add_member(self, node: NodeId) -> NodeId:
        """Attach ``node`` to the closest member with spare fanout;
        returns the chosen parent."""
        if node in self._children:
            raise TreeError(f"{node} already in tree")
        candidates = [
            member
            for member, kids in self._children.items()
            if len(kids) < self.max_fanout
        ]
        if not candidates:
            raise TreeError("tree full at current fanout")
        parent = min(
            candidates,
            key=lambda member: (self.network.latency_ms(node, member), member),
        )
        self._children[parent].append(node)
        self._children[node] = []
        self._parent[node] = parent
        return parent

    def remove_member(
        self,
        node: NodeId,
        candidate_filter: "Callable[[NodeId], bool] | None" = None,
    ) -> dict[NodeId, NodeId]:
        """Detach a member; orphaned subtrees re-attach greedily.

        ``candidate_filter`` optionally restricts which members may
        adopt orphans (recovery passes a liveness check so a crashed
        parent's children never reattach under another dead node); the
        root is always eligible so repair cannot strand an orphan.
        Returns the ``orphan -> new parent`` mapping.
        """
        if node == self.root:
            raise TreeError("cannot remove the root")
        if node not in self._children:
            raise TreeError(f"{node} not in tree")
        orphans = self._children.pop(node)
        parent = self._parent.pop(node)
        self._children[parent].remove(node)
        reparented: dict[NodeId, NodeId] = {}
        for orphan in orphans:
            subtree = self._subtree(orphan)
            candidates = [
                member
                for member, kids in self._children.items()
                if len(kids) < self.max_fanout
                and member not in subtree
                and (
                    candidate_filter is None
                    or member == self.root
                    or candidate_filter(member)
                )
            ]
            if not candidates:
                raise TreeError("tree full while re-attaching orphans")
            new_parent = min(
                candidates,
                key=lambda member: (self.network.latency_ms(orphan, member), member),
            )
            self._children[new_parent].append(orphan)
            self._parent[orphan] = new_parent
            reparented[orphan] = new_parent
        return reparented

    def repoint_root(self, new_root: NodeId) -> None:
        """Relabel the root: the tree now hangs off a new primary-tier node.

        Used when the owning ring changes view or membership.  The new
        root must not already be a tree member (its tier retires such a
        secondary first), so this is a pure relabel -- every subtree
        keeps its shape.
        """
        if new_root == self.root:
            return
        if new_root in self._children:
            raise TreeError(f"{new_root} is already a tree member")
        self._children[new_root] = self._children.pop(self.root)
        for child in self._children[new_root]:
            self._parent[child] = new_root
        self.root = new_root

    def _subtree(self, node: NodeId) -> set[NodeId]:
        result = {node}
        stack = [node]
        while stack:
            for child in self._children.get(stack.pop(), []):
                result.add(child)
                stack.append(child)
        return result

    def children(self, node: NodeId) -> list[NodeId]:
        return list(self._children.get(node, []))

    def parent(self, node: NodeId) -> NodeId | None:
        return self._parent.get(node)

    def depth(self, node: NodeId) -> int:
        depth = 0
        current = node
        while current != self.root:
            current = self._parent[current]
            depth += 1
        return depth

    # -- multicast ----------------------------------------------------------------

    def send_to_children(self, node: NodeId, payload: object, size_bytes: int) -> None:
        """Forward one hop down the tree from ``node``.

        Multicast is hop-by-hop: the root calls this once, and each
        member calls it again when it has applied what arrived (so
        latency accumulates down the tree, as in a real overlay).
        """
        tel = self.telemetry
        for child in self._children.get(node, []):
            if tel.enabled:
                tel.record("dissem", "push", parent=node, child=child, bytes=size_bytes)
            self.network.send(
                node, child, payload, size_bytes, phase="push", subsystem="dissemination"
            )
