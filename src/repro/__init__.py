"""repro: a reproduction of OceanStore (Kubiatowicz et al., ASPLOS 2000).

A global-scale persistent storage architecture on untrusted
infrastructure: self-certifying naming, two-tier data location
(attenuated Bloom filters + a Plaxton mesh), a conflict-resolution update
model that operates over ciphertext, Byzantine-agreement serialization
with epidemic secondary replication, erasure-coded deep archival storage,
and introspective optimization -- all running inside a deterministic
discrete-event simulator.

Quick start::

    from repro import DeploymentConfig, OceanStoreSystem, make_client

    system = OceanStoreSystem(DeploymentConfig(seed=42))
    alice = make_client(system, "alice")
    notes = alice.create_object("notes")
    alice.write(notes, b"hello, ocean")
    assert alice.read(notes) == b"hello, ocean"

See :mod:`repro.api` for sessions/facades and :mod:`repro.core` for
deployment control (faults, archival, introspection).
"""

from repro.api import (
    ApiEvent,
    OceanStoreHandle,
    Session,
    SessionGuarantee,
)
from repro.api.facades import FileSystemFacade, TransactionalFacade
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.util import GUID

__version__ = "0.1.0"

__all__ = [
    "ApiEvent",
    "DeploymentConfig",
    "FileSystemFacade",
    "GUID",
    "OceanStoreHandle",
    "OceanStoreSystem",
    "Session",
    "SessionGuarantee",
    "TransactionalFacade",
    "make_client",
    "__version__",
]
