"""The recovery manager: one failure detector feeding every repair loop.

Constructed by :class:`~repro.core.system.OceanStoreSystem` only when
``DeploymentConfig.recovery.enabled`` is set; the manager owns the
shared :class:`~repro.recovery.detector.FailureDetector` (routing and
dissemination react to the *same* suspicion events, per the tentpole
design), the :class:`~repro.recovery.repair.RoutingRepairer`, the
:class:`~repro.recovery.treeheal.TreeRepairer`, and the periodic
pointer-refresh timer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.recovery.config import RecoveryConfig
from repro.recovery.detector import FailureDetector
from repro.recovery.repair import RoutingRepairer
from repro.recovery.treeheal import TreeRepairer
from repro.routing.plaxton import PlaxtonMesh
from repro.routing.probabilistic import ProbabilisticLocator
from repro.routing.salt import SaltedRouter
from repro.sim.kernel import Kernel, Timer
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.consistency.secondary import SecondaryTier
    from repro.introspect.replica_mgmt import ReplicaManager


class RecoveryManager:
    """Wires detection to repair; the system's single recovery handle."""

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        mesh: PlaxtonMesh,
        router: SaltedRouter,
        probabilistic: ProbabilisticLocator,
        tiers: dict[GUID, "SecondaryTier"],
        observer: NodeId,
        rng: random.Random,
        config: RecoveryConfig,
        replica_manager: "ReplicaManager | None" = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.telemetry = coalesce(telemetry)
        self.detector = FailureDetector(
            kernel,
            network,
            observer=observer,
            monitored=sorted(network.nodes()),
            rng=rng,
            interval_ms=config.heartbeat_interval_ms,
            timeout_ms=config.heartbeat_timeout_ms,
            threshold=config.suspicion_threshold,
            telemetry=telemetry,
        )
        self.repairer = RoutingRepairer(
            mesh, router, network, telemetry=telemetry
        )
        self.tree_repairer = TreeRepairer(
            network,
            tiers,
            probabilistic,
            replica_manager=replica_manager,
            telemetry=telemetry,
        )
        # Routing heals before the trees do: reparented orphans route
        # their catch-up traffic through a mesh that no longer points at
        # the dead node.
        self._routing_sub = self.detector.subscribe(
            on_suspect=self.repairer.on_suspect,
            on_restore=self.repairer.on_restore,
        )
        self._tree_sub = self.detector.subscribe(
            on_suspect=self.tree_repairer.on_suspect
        )
        self._refresh_timer = Timer(
            kernel,
            config.refresh_interval_ms,
            self.repairer.refresh,
            jitter=lambda: rng.uniform(
                0.0, config.refresh_interval_ms * 0.05
            ),
            label="recovery.pointer-refresh",
        )

    def start(self) -> None:
        self.detector.start()
        self._refresh_timer.start()

    def stop(self) -> None:
        self.detector.stop()
        self._refresh_timer.stop()

    def close(self) -> None:
        """Full teardown: stop both timers, detach the repair loops from
        the detector and the detector from the network.

        ``stop()`` deliberately leaves the suspect/restore subscriptions
        attached so a stopped manager can be restarted; ``close()`` is
        for callers that are done with the system object -- sweep-mode
        workers build and discard many systems per process, and detached
        listeners keep the repairers (and their meshes) collectable.
        """
        self.stop()
        self.detector.close()
        self._routing_sub.cancel()
        self._tree_sub.cancel()

    # -- publication bookkeeping (delegated) --------------------------------

    def register_publication(self, replica_node: NodeId, guid: GUID) -> None:
        self.repairer.register(replica_node, guid)

    def forget_publication(
        self, replica_node: NodeId, guid: GUID, scrub: bool = False
    ) -> None:
        self.repairer.forget(replica_node, guid, scrub=scrub)
