"""Client construction against a simulated deployment.

"Only clients can be trusted with cleartext" (Section 1.2): a client is
a principal with a keyring, attached to the system at some network node
(their nearest pool).
"""

from __future__ import annotations

import random

from repro.api.oceanstore import OceanStoreHandle
from repro.core.system import OceanStoreSystem
from repro.crypto.keys import KeyRing, make_principal
from repro.recovery.retry import RetryPolicy
from repro.sim.network import NodeId
from repro.util.rng import SeedSequence


def make_client(
    system: OceanStoreSystem,
    name: str,
    home_node: NodeId | None = None,
    seed: int | None = None,
    retry: RetryPolicy | None = None,
) -> OceanStoreHandle:
    """Mint a client identity and attach it to the deployment.

    ``home_node`` defaults to a deterministic stub node derived from the
    client name, mimicking "clients connect to one or more pools".
    ``seed`` defaults to a sha256 of the deployment seed and the name, so
    the identity is the same in every process (``str`` hashes are not).
    ``retry`` installs a default :class:`RetryPolicy` on the handle, so
    every read runs down the degradation ladder instead of failing fast.
    """
    rng = (
        random.Random(seed)
        if seed is not None
        else SeedSequence(system.config.seed).derive(f"client:{name}")
    )
    principal = make_principal(name, rng, bits=256)
    keyring = KeyRing(principal, rng)
    if home_node is None:
        stubs = [
            n
            for n, d in system.graph.nodes(data=True)
            if d["kind"] == "stub"
        ]
        home_node = stubs[rng.randrange(len(stubs))]
    if home_node not in system.graph:
        raise ValueError(f"home node {home_node} not in topology")
    return OceanStoreHandle(
        system, principal, keyring, home_node=home_node, retry=retry
    )
