"""Application-level multicast over the Plaxton substrate (Section 4.3.3).

"the Plaxton links form a natural substrate on which to perform network
functions such as admission control and multicast."

A multicast group is named by a GUID.  Members *join* by routing toward
the group's root node, registering a reverse edge at every hop -- the
same walk as pointer publication, so the union of join paths forms a
tree rooted at the group's Plaxton root.  A sender routes its message to
the root, and the root pushes it down the reverse edges; every member on
the tree receives exactly one copy, and interior nodes forward without
being members themselves.

Admission control lives at the root: it caps group membership and can
be handed a policy callback (e.g. only principals on an ACL), exercising
the "admission control" half of the paper's sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.routing.plaxton import PlaxtonMesh, RoutingError
from repro.sim.network import NodeId
from repro.util.ids import GUID


class MulticastError(RuntimeError):
    pass


class AdmissionDenied(MulticastError):
    """The group's root refused the join (full, or policy said no)."""


@dataclass
class _GroupState:
    root: NodeId
    members: set[NodeId] = field(default_factory=set)
    #: reverse tree: node -> children (next hops away from the root)
    children: dict[NodeId, set[NodeId]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class DeliveryReport:
    """Result of one multicast send."""

    delivered_to: tuple[NodeId, ...]
    messages_sent: int
    max_latency_ms: float


class MulticastService:
    """Group management and dissemination over a Plaxton mesh."""

    def __init__(
        self,
        mesh: PlaxtonMesh,
        max_members: int = 1024,
        admission_policy: Callable[[GUID, NodeId], bool] | None = None,
    ) -> None:
        if max_members < 1:
            raise MulticastError("max_members must be >= 1")
        self.mesh = mesh
        self.max_members = max_members
        self.admission_policy = admission_policy
        self._groups: dict[GUID, _GroupState] = {}

    # -- membership --------------------------------------------------------

    def _group(self, group_guid: GUID) -> _GroupState:
        state = self._groups.get(group_guid)
        if state is None:
            root = self.mesh.root_of(group_guid)
            state = _GroupState(root=root)
            self._groups[group_guid] = state
        return state

    def join(self, group_guid: GUID, member: NodeId) -> None:
        """Route toward the root, registering reverse edges per hop.

        The root enforces admission: a full group or a policy rejection
        raises :class:`AdmissionDenied` and registers nothing.
        """
        state = self._group(group_guid)
        if member in state.members:
            return
        if len(state.members) >= self.max_members:
            raise AdmissionDenied(f"group {group_guid} is full")
        if self.admission_policy is not None and not self.admission_policy(
            group_guid, member
        ):
            raise AdmissionDenied(f"policy refused {member} for {group_guid}")
        trace = self.mesh.route_to_root(member, group_guid)
        path = tuple(trace.path)
        # Reverse edges: each hop knows the hop *before* it on the path.
        for closer, farther in zip(path[1:], path[:-1]):
            state.children.setdefault(closer, set()).add(farther)
        state.members.add(member)
        state.root = path[-1]

    def members(self, group_guid: GUID) -> set[NodeId]:
        return set(self._group(group_guid).members)

    # -- dissemination -----------------------------------------------------------

    def send(
        self, group_guid: GUID, sender: NodeId, payload: object, size_bytes: int
    ) -> DeliveryReport:
        """Route to the root, then push down the reverse tree.

        Interior nodes forward exactly once per child edge; each live
        member receives one copy.  Latency is accumulated along tree
        paths (root-to-member), on top of the sender-to-root route.
        """
        state = self._group(group_guid)
        if not state.members:
            return DeliveryReport(delivered_to=(), messages_sent=0, max_latency_ms=0.0)
        try:
            up_trace = self.mesh.route_to_root(sender, group_guid)
        except RoutingError as exc:
            raise MulticastError(f"sender cannot reach root: {exc}") from exc
        messages = up_trace.hops
        delivered: list[NodeId] = []
        max_latency = 0.0
        network = self.mesh.network
        # BFS down the reverse tree from the root.
        frontier = [(state.root, up_trace.latency_ms)]
        seen = {state.root}
        if state.root in state.members:
            delivered.append(state.root)
            max_latency = max(max_latency, up_trace.latency_ms)
        while frontier:
            node, latency = frontier.pop(0)
            for child in sorted(state.children.get(node, ())):
                if child in seen or network.is_down(child):
                    continue
                seen.add(child)
                hop = latency + network.latency_ms(node, child)
                network.send(
                    node,
                    child,
                    payload,
                    size_bytes,
                    phase="multicast",
                    subsystem="routing",
                )
                messages += 1
                if child in state.members:
                    delivered.append(child)
                    max_latency = max(max_latency, hop)
                frontier.append((child, hop))
        return DeliveryReport(
            delivered_to=tuple(sorted(delivered)),
            messages_sent=messages,
            max_latency_ms=max_latency,
        )
