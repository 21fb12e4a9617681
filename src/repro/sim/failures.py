"""Failure injection: crashes, churn, and Byzantine behaviour flags.

OceanStore assumes "servers may crash without warning" and that some
fraction behave arbitrarily (Section 1.2).  The experiments need three
kinds of adversity:

* **crash/revive** of individual servers (deep-archival reliability, root
  failure in the location mesh);
* **churn**: a Poisson-ish process of sessions joining and leaving
  (maintenance-free operation, Section 4.3.3);
* **Byzantine marking**: designating a subset of primary-tier replicas as
  faulty for the agreement experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.kernel import Kernel
from repro.sim.network import Network, NodeId


@dataclass
class ChurnParams:
    """Mean up/down durations for the churn process (virtual ms)."""

    mean_uptime_ms: float = 600_000.0
    mean_downtime_ms: float = 60_000.0


class FailureInjector:
    """Drives crash/revive schedules against a :class:`Network`."""

    def __init__(self, kernel: Kernel, network: Network, rng: random.Random) -> None:
        self.kernel = kernel
        self.network = network
        self.rng = rng
        self._on_crash: list[Callable[[NodeId], None]] = []
        self._on_revive: list[Callable[[NodeId], None]] = []
        self._churning: set[NodeId] = set()
        #: per-node churn generation; pending crash/revive closures carry
        #: the generation they were scheduled under and no-op once it
        #: moves on, so stop_churn()/start_churn() cycles cannot leave a
        #: node driven by two overlapping schedules.
        self._generation: dict[NodeId, int] = {}

    def on_crash(self, callback: Callable[[NodeId], None]) -> None:
        self._on_crash.append(callback)

    def on_revive(self, callback: Callable[[NodeId], None]) -> None:
        self._on_revive.append(callback)

    # -- one-shot failures ---------------------------------------------------

    def crash(self, node: NodeId) -> None:
        if not self.network.is_down(node):
            self.network.set_down(node, True)
            for cb in self._on_crash:
                cb(node)

    def revive(self, node: NodeId) -> None:
        if self.network.is_down(node):
            self.network.set_down(node, False)
            for cb in self._on_revive:
                cb(node)

    def crash_fraction(self, nodes: Sequence[NodeId], fraction: float) -> list[NodeId]:
        """Crash a uniform random ``fraction`` of ``nodes``; returns victims.

        Victims are sampled from the currently-up subset only, so the
        requested fraction of ``nodes`` actually goes down (crashing an
        already-down node would silently shrink the storm).
        """
        count = int(round(len(nodes) * fraction))
        alive = [n for n in nodes if not self.network.is_down(n)]
        victims = self.rng.sample(alive, min(count, len(alive)))
        for node in victims:
            self.crash(node)
        return victims

    # -- churn ----------------------------------------------------------------

    def start_churn(self, nodes: Sequence[NodeId], params: ChurnParams) -> None:
        """Start an exponential up/down cycle on each node in ``nodes``."""
        for node in nodes:
            if node in self._churning:
                continue
            self._churning.add(node)
            generation = self._generation.get(node, 0) + 1
            self._generation[node] = generation
            self._schedule_crash(node, params, generation)

    def stop_churn(self) -> None:
        """Stop churning; pending scheduled transitions are invalidated.

        Bumping each node's generation (rather than only clearing the
        churn set) kills closures already sitting in the kernel queue:
        without this, a node re-added by a later ``start_churn`` would be
        driven by both the stale schedule and the new one.
        """
        self._churning.clear()
        for node in self._generation:
            self._generation[node] += 1

    def _live(self, node: NodeId, generation: int) -> bool:
        return node in self._churning and self._generation.get(node) == generation

    def _schedule_crash(self, node: NodeId, params: ChurnParams, generation: int) -> None:
        delay = self.rng.expovariate(1.0 / params.mean_uptime_ms)

        def do_crash() -> None:
            if not self._live(node, generation):
                return
            self.crash(node)
            self._schedule_revive(node, params, generation)

        self.kernel.call_after(delay, do_crash)

    def _schedule_revive(self, node: NodeId, params: ChurnParams, generation: int) -> None:
        delay = self.rng.expovariate(1.0 / params.mean_downtime_ms)

        def do_revive() -> None:
            if not self._live(node, generation):
                return
            self.revive(node)
            self._schedule_crash(node, params, generation)

        self.kernel.call_after(delay, do_revive)
