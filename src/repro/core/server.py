"""Per-node server state (Section 2: "pools" of servers).

An :class:`OceanStoreServer` is the container for everything one
simulated host stores and observes: floating-replica object state, an
archival fragment store, the access checker honest servers run, and the
node's introspection machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.access.policy import AccessChecker
from repro.archival.reconstruction import FragmentStore
from repro.crypto.keys import KeyPool, Principal
from repro.data.objects import PersistentObject
from repro.introspect.hierarchy import IntrospectionNode
from repro.sim.network import NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID


@dataclass
class OceanStoreServer:
    """One server in the global utility."""

    network_id: NodeId
    #: the deployment's shared identity pool; see :attr:`principal`
    identities: KeyPool = field(repr=False)
    objects: dict[GUID, PersistentObject] = field(default_factory=dict)
    fragments: FragmentStore = field(default_factory=FragmentStore)
    access: AccessChecker = field(default_factory=AccessChecker)
    introspection: IntrospectionNode = None  # set in __post_init__
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.introspection is None:
            self.introspection = IntrospectionNode(node_id=self.network_id)
        self.telemetry = coalesce(self.telemetry)

    @property
    def principal(self) -> Principal:
        """This server's identity, minted the first time anything asks."""
        return self.identities[self.network_id]

    @property
    def guid(self) -> GUID:
        """Server GUID: the secure hash of its public key (Section 4.1)."""
        return self.principal.guid

    def get_or_create_object(self, guid: GUID) -> PersistentObject:
        obj = self.objects.get(guid)
        if obj is None:
            obj = PersistentObject(guid=guid)
            self.objects[guid] = obj
            if self.telemetry.enabled:
                self.telemetry.count("server_objects_created_total")
        return obj
