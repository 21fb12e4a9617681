"""Consistency management in an untrusted infrastructure (Section 4.4).

The primary tier serializes updates with Byzantine agreement
(:mod:`~repro.consistency.pbft`); the secondary tier spreads tentative
updates epidemically and receives committed results down dissemination
trees (:mod:`~repro.consistency.secondary`,
:mod:`~repro.consistency.dissemination`).  Optimistic timestamps order
tentative state (:mod:`~repro.consistency.timestamps`), and
:mod:`~repro.consistency.costmodel` is the analytic bandwidth model of
Figure 6.
"""

from repro.consistency.costmodel import (
    PROTOCOL_PHASES,
    CostConstants,
    CostModelFit,
    crossover_update_size,
    fit_cost_model,
    latency_estimate_ms,
    minimum_cost_bytes,
    normalized_cost,
    replicas_for_faults,
    update_cost_bytes,
)
from repro.consistency.measure import (
    TrafficMeasurement,
    measure_sweep,
    measure_update_traffic,
)
from repro.consistency.byzantine import (
    ByzantineStrategy,
    CorruptDigestStrategy,
    DelayedStrategy,
    EquivocatingStrategy,
    SilentStrategy,
)
from repro.consistency.dissemination import DisseminationTree, TreeError
from repro.consistency.pbft import (
    SMALL_MESSAGE_BYTES,
    BatchingConfig,
    ClientRequest,
    CommitCertificate,
    FaultMode,
    InnerRing,
    PBFTReplica,
    strategy_for,
    update_digest,
)
from repro.consistency.secondary import (
    AntiEntropyRequest,
    CommitNotice,
    CommittedPush,
    SecondaryReplica,
    SecondaryTier,
    TentativeGossip,
)
from repro.consistency.timestamps import (
    OptimisticTimestamp,
    order_agreement,
    tentative_order,
)

__all__ = [
    "AntiEntropyRequest",
    "BatchingConfig",
    "ByzantineStrategy",
    "ClientRequest",
    "CommitCertificate",
    "CommitNotice",
    "CommittedPush",
    "CorruptDigestStrategy",
    "CostConstants",
    "CostModelFit",
    "DelayedStrategy",
    "DisseminationTree",
    "EquivocatingStrategy",
    "FaultMode",
    "InnerRing",
    "OptimisticTimestamp",
    "PBFTReplica",
    "PROTOCOL_PHASES",
    "SMALL_MESSAGE_BYTES",
    "SecondaryReplica",
    "SecondaryTier",
    "SilentStrategy",
    "TentativeGossip",
    "TrafficMeasurement",
    "TreeError",
    "crossover_update_size",
    "fit_cost_model",
    "strategy_for",
    "latency_estimate_ms",
    "measure_sweep",
    "measure_update_traffic",
    "minimum_cost_bytes",
    "normalized_cost",
    "order_agreement",
    "replicas_for_faults",
    "tentative_order",
    "update_cost_bytes",
    "update_digest",
]
