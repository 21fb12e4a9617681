"""Discrete-event simulation substrate.

The paper's evaluation ran on a planned wide-area deployment; this package
provides the deterministic simulator that replaces it: an event kernel
(:mod:`repro.sim.kernel`), a transit-stub network with latency and byte
accounting (:mod:`repro.sim.network`), crash/churn injection
(:mod:`repro.sim.failures`), per-link message fault schedules
(:mod:`repro.sim.faults`), and measurement helpers
(:mod:`repro.sim.stats`).
"""

from repro.sim.failures import ChurnParams, FailureInjector
from repro.sim.faults import FaultDecision, LinkFaultRule, NetworkFaultInjector
from repro.sim.kernel import EventHandle, Kernel, SimulationError, Timer
from repro.sim.network import (
    Corrupted,
    Message,
    Network,
    NodeId,
    TopologyParams,
    Traffic,
    build_transit_stub_topology,
)
from repro.sim.stats import Distribution, EmptyDistributionError

__all__ = [
    "ChurnParams",
    "Corrupted",
    "Distribution",
    "EmptyDistributionError",
    "EventHandle",
    "FailureInjector",
    "FaultDecision",
    "Kernel",
    "LinkFaultRule",
    "Message",
    "Network",
    "NetworkFaultInjector",
    "NodeId",
    "SimulationError",
    "Timer",
    "TopologyParams",
    "Traffic",
    "build_transit_stub_topology",
]
