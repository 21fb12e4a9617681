"""The integrated OceanStore: servers, clients, and the full deployment.

:class:`OceanStoreSystem` wires routing, consistency, archival, access
control, and introspection over the simulated network and implements the
client API's backend protocol; :func:`make_client` attaches principals;
:mod:`~repro.core.workloads` generates the synthetic traffic the
benchmarks sweep.
"""

from repro.core.accounting import (
    ConsumerStatement,
    ProviderStatement,
    Tariff,
    UsageMeter,
    UtilityLedger,
)
from repro.core.client import make_client
from repro.core.config import ChaosConfig, DeploymentConfig
from repro.core.server import OceanStoreServer
from repro.core.system import OceanStoreSystem, deserialize_state, serialize_state
from repro.recovery import RecoveryConfig, RetryPolicy
from repro.core.workloads import (
    DiurnalAccess,
    EmailOp,
    EmailWorkload,
    correlated_trace,
    diurnal_trace,
)

__all__ = [
    "ChaosConfig",
    "ConsumerStatement",
    "DeploymentConfig",
    "ProviderStatement",
    "Tariff",
    "UsageMeter",
    "UtilityLedger",
    "DiurnalAccess",
    "EmailOp",
    "EmailWorkload",
    "OceanStoreServer",
    "OceanStoreSystem",
    "RecoveryConfig",
    "RetryPolicy",
    "correlated_trace",
    "deserialize_state",
    "diurnal_trace",
    "make_client",
    "serialize_state",
]
