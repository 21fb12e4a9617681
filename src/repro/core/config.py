"""Deployment configuration for a simulated OceanStore."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.consistency.pbft import BatchingConfig
from repro.recovery.config import RecoveryConfig
from repro.sim.network import TopologyParams
from repro.telemetry import TelemetryConfig
from repro.telemetry.slo import validate_thresholds
from repro.util import ConfigError

#: Byzantine fault budget: every inner ring has 3m+1 replicas placed on
#: transit (well-connected) nodes (Section 4.4)
BYZANTINE_M = 1


@dataclass
class ChaosConfig:
    """Fault-injection knobs for chaos scenarios (default: off).

    When ``enabled``, the deployment carries a seeded
    :class:`~repro.sim.faults.NetworkFaultInjector` on its network so
    scenarios (and users) can install per-link fault schedules; the
    ``repro chaos`` CLI and :mod:`repro.chaos` runner read the rest.
    """

    enabled: bool = False
    #: how long scenario fault windows stay open (virtual ms)
    duration_ms: float = 60_000.0
    #: generic severity dial: message drop rates, crash fractions, ...
    intensity: float = 0.3
    #: PBFT batching threaded into the scenario deployment, so every
    #: chaos scenario can run with batched agreement rounds
    batching: BatchingConfig = BatchingConfig()
    #: ``False`` forces the recovery scenarios' repair layer off -- how
    #: the oracle is shown to catch the unrepaired failures
    recovery: bool = True
    #: SLO limits threaded into the scenario's TelemetryConfig; when
    #: non-empty the runner judges them as an ``operation-slo``
    #: invariant (default empty: record, never judge, digests unchanged)
    slo_thresholds: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_ms < math.inf:
            raise ConfigError(f"duration_ms must be finite and positive: {self.duration_ms}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ConfigError(f"intensity must be in [0, 1]: {self.intensity}")
        validate_thresholds(self.slo_thresholds)


@dataclass
class DeploymentConfig:
    """Everything needed to stand up a reproducible deployment.

    Defaults give a small-but-real system: a 4-replica Byzantine inner
    ring (m=1), a couple of secondary replicas per object, salted
    multi-root location, and rate-1/2 archival into 16 fragments -- the
    paper's worked example (Section 4.5).
    """

    seed: int = 0
    topology: TopologyParams = field(default_factory=TopologyParams)

    #: control-plane shards: the GUID space is range-partitioned across
    #: this many independent inner rings (each 3m+1 replicas).  1 keeps
    #: the single global ring, byte-identical to the pre-sharding
    #: implementation.
    ring_count: int = 1

    #: PBFT request batching and round pipelining; the default (one
    #: update per round, unbounded pipeline) is wire-identical to the
    #: unbatched implementation
    batching: BatchingConfig = BatchingConfig()

    #: secondary replicas created per object
    secondaries_per_object: int = 4
    dissemination_fanout: int = 4

    #: deep archival storage
    archival_k: int = 8
    archival_n: int = 16
    archive_every_commit: bool = True

    #: introspection
    replica_overload_requests: int = 20
    replica_window_ms: float = 10_000.0

    #: out-of-band observability (metrics + causal traces); off by default
    #: so unobserved deployments pay nothing
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    #: fault-injection scenario knobs; off by default, so ordinary
    #: deployments carry no per-message fault-check overhead
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    #: self-healing recovery knobs (failure detector, soft-state repair,
    #: pointer refresh); off by default -- a recovery-disabled deployment
    #: is byte-identical to one built before the subsystem existed
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        if self.ring_count < 1:
            raise ConfigError("ring_count must be >= 1")
        need = self.ring_size * self.ring_count
        if self.topology.transit_nodes < need:
            raise ConfigError(
                f"topology has {self.topology.transit_nodes} transit nodes; "
                f"{self.ring_count} inner ring(s) need {need}"
            )
        if self.secondaries_per_object < 0:
            raise ConfigError("secondaries_per_object must be >= 0")
        if self.dissemination_fanout < 1:
            raise ConfigError("dissemination_fanout must be >= 1")
        if not 1 <= self.archival_k < self.archival_n:
            raise ConfigError("need 1 <= archival_k < archival_n")
        if not 0.0 < self.replica_window_ms < math.inf:
            raise ConfigError("replica_window_ms must be finite and positive")
        if self.replica_overload_requests < 2:
            raise ConfigError("replica_overload_requests must be >= 2")

    @property
    def ring_size(self) -> int:
        return 3 * BYZANTINE_M + 1
