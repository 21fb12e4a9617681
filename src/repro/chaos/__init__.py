"""Seeded chaos engineering for the reproduction.

OceanStore's core claims are fault-tolerance claims: Byzantine replicas
cannot break agreement (Section 4.4.3), the location mesh self-repairs
after churn (Section 4.3.3), and archival data survives "any m of n"
fragment loss (Section 4.5).  This package turns each claim into a
deterministic, replayable experiment:

* :mod:`repro.chaos.scenarios` -- the scenarios, as
  :class:`FaultSchedule` literals, and their one runner;
  ``run_scenario(name, seed)`` is a pure function of its arguments and
  emits a trace digest for bit-identical replay checking;
* :mod:`repro.chaos.invariants` -- the oracle: agreement safety, quorum
  feasibility, liveness, version monotonicity, routing reconvergence,
  and archival reconstructability.

The ``repro chaos`` CLI subcommand drives both.
"""

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    check_ring_agreement,
    check_ring_liveness,
    check_ring_quorum,
    check_version_log,
)
from repro.chaos.scenarios import (
    SCENARIOS,
    ChaosContext,
    ChaosReport,
    FaultSchedule,
    run_all,
    run_scenario,
    scenario_descriptions,
)

__all__ = [
    "ChaosContext",
    "ChaosReport",
    "FaultSchedule",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "SCENARIOS",
    "check_ring_agreement",
    "check_ring_liveness",
    "check_ring_quorum",
    "check_version_log",
    "run_all",
    "run_scenario",
    "scenario_descriptions",
]
