"""Knobs for the self-healing recovery layer (Sections 4.3.3, 4.4.4).

All recovery behaviour is gated on ``enabled`` (default off): a
deployment with recovery disabled schedules no heartbeats, derives no
RNG streams, and sends no messages, so its event trace is byte-identical
to a deployment built before this subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import ConfigError


@dataclass
class RecoveryConfig:
    """Failure-detection and soft-state-repair parameters."""

    enabled: bool = False

    #: how often the observer pings every monitored node (virtual ms)
    heartbeat_interval_ms: float = 2_000.0
    #: how long after a ping an ack may arrive before it counts as missed;
    #: must be shorter than the interval so rounds never overlap
    heartbeat_timeout_ms: float = 1_500.0
    #: consecutive missed rounds before a node is declared suspected
    suspicion_threshold: int = 2
    #: period of the pointer-refresh sweep that re-publishes every known
    #: replica's location pointers so stale paths age out (virtual ms)
    refresh_interval_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ConfigError("heartbeat_interval_ms must be positive")
        if not 0 < self.heartbeat_timeout_ms < self.heartbeat_interval_ms:
            raise ConfigError(
                "heartbeat_timeout_ms must be in (0, heartbeat_interval_ms)"
            )
        if self.suspicion_threshold < 1:
            raise ConfigError("suspicion_threshold must be >= 1")
        if self.refresh_interval_ms <= 0:
            raise ConfigError("refresh_interval_ms must be positive")
