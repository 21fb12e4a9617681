"""Chaos-scenario matrix: every fault type against every subsystem.

Each test drives a registered scenario through ``run_scenario`` and
asserts the invariant oracle's verdict.  The pass criterion is exact:
the set of violated invariants must equal the scenario's expectation
(empty for the tolerance scenarios; quorum-feasibility + liveness for
the deliberately undersized ring), so these tests exercise the oracle
as much as the protocols.

Every report carries the seed and a trace digest; the replay tests
assert that the same (scenario, seed) pair reproduces bit-identically,
which is what makes a CI chaos failure debuggable from its printed seed.
"""

import json

import pytest

from repro.chaos import SCENARIOS, run_scenario, scenario_descriptions
from repro.consistency import BatchingConfig
from repro.core import ChaosConfig

SEEDS = (0, 3)

BYZANTINE_SCENARIOS = (
    "pbft-silent",
    "pbft-equivocate",
    "pbft-delay",
    "pbft-corrupt",
)

RECOVERY_SCENARIOS = (
    "orphaned-subtree",
    "dead-root-read",
)

RINGS_SCENARIOS = (
    "cross-shard-partition",
    "mid-handoff-crash",
)

ALL_SCENARIOS = BYZANTINE_SCENARIOS + RECOVERY_SCENARIOS + RINGS_SCENARIOS + (
    "pbft-quorum-violation",
    "routing-churn",
    "dissemination-loss",
    "archival-crash-repair",
)


def chaos_config(batched: bool) -> ChaosConfig | None:
    """None = run_scenario's default (unbatched); batched packs rounds."""
    if not batched:
        return None
    return ChaosConfig(
        batching=BatchingConfig(size=4, delay_ms=200.0, pipeline_depth=2)
    )


BATCHING = pytest.mark.parametrize("batched", (False, True), ids=("b1", "b4"))


def test_registry_is_complete():
    assert set(SCENARIOS) == set(ALL_SCENARIOS)
    descriptions = scenario_descriptions()
    assert set(descriptions) == set(ALL_SCENARIOS)
    assert all(descriptions.values())


# ---------------------------------------------------------------------------
# Byzantine strategies against a correctly-sized ring (n = 3m + 1)
# ---------------------------------------------------------------------------


@BATCHING
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BYZANTINE_SCENARIOS)
def test_byzantine_strategy_tolerated_at_full_size(name, seed, batched):
    report = run_scenario(name, seed=seed, chaos=chaos_config(batched))
    assert report.passed, report.render(include_trace=True)
    assert report.invariants.violated_names() == set()
    # Safety and liveness were actually checked, not skipped.
    checked = set(report.invariants.checked)
    assert {"agreement-safety", "quorum-feasibility", "liveness"} <= checked


@BATCHING
@pytest.mark.parametrize("seed", SEEDS)
def test_quorum_violation_detected_below_3m_plus_1(seed, batched):
    """n = 3m cannot mask m faults: the oracle must say so, loudly."""
    report = run_scenario(
        "pbft-quorum-violation", seed=seed, chaos=chaos_config(batched)
    )
    assert report.passed, report.render(include_trace=True)
    violated = report.invariants.violated_names()
    assert violated == {"quorum-feasibility", "liveness"}
    # Even in the undersized ring, the honest replicas never diverge.
    assert "agreement-safety" in report.invariants.checked
    assert "agreement-safety" not in violated


# ---------------------------------------------------------------------------
# Network and storage fault classes
# ---------------------------------------------------------------------------


@BATCHING
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name", ("routing-churn", "dissemination-loss", "archival-crash-repair")
)
def test_infrastructure_faults_tolerated(name, seed, batched):
    report = run_scenario(name, seed=seed, chaos=chaos_config(batched))
    assert report.passed, report.render(include_trace=True)
    assert report.invariants.violated_names() == set()


def test_dissemination_loss_at_seed_1_executes_on_every_replica():
    """Inside the lossy window replica 0 holds a pre-prepare whose
    request never reached it.  It waits on the slot's number, so its
    progress timer asks for catch-up and it executes the slot with the
    rest of the ring; no client retry is needed."""
    report = run_scenario("dissemination-loss", seed=1)
    assert report.passed, report.render(include_trace=True)
    assert report.invariants.violated_names() == set()


def test_archival_scenario_checks_reconstruction_not_routing():
    """Survivor-only reconstruction: nodes stay down, so the routing
    check is deliberately out of scope for this scenario."""
    report = run_scenario("archival-crash-repair", seed=0)
    checked = set(report.invariants.checked)
    assert "archival-reconstruction" in checked
    assert "routing-reconvergence" not in checked


# ---------------------------------------------------------------------------
# Self-healing recovery: scenarios that pass only because repair runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", RECOVERY_SCENARIOS)
def test_recovery_scenarios_pass_with_recovery_on(name, seed):
    report = run_scenario(name, seed=seed)
    assert report.passed, report.render(include_trace=True)
    assert report.invariants.violated_names() == set()


@pytest.mark.parametrize(
    "name,expected",
    (
        ("orphaned-subtree", {"dissemination-convergence"}),
        ("dead-root-read", {"routing-reconvergence"}),
    ),
)
def test_recovery_scenarios_fail_with_recovery_off(name, expected):
    """The adversarial acceptance: the same fault schedule with repair
    forced off must trip the oracle -- proof the scenarios pass *because*
    recovery runs, not because the faults were toothless."""
    report = run_scenario(name, seed=0, chaos=ChaosConfig(recovery=False))
    assert not report.passed, report.render(include_trace=True)
    assert expected <= report.invariants.violated_names()


@pytest.mark.parametrize("name", RECOVERY_SCENARIOS)
def test_recovery_scenarios_replay_bit_identically(name):
    first = run_scenario(name, seed=17)
    second = run_scenario(name, seed=17)
    assert first.trace_digest == second.trace_digest
    assert first.events == second.events


def test_recovery_run_records_repair_events_in_flight():
    report = run_scenario("orphaned-subtree", seed=0, capture_flight=True)
    assert report.passed, report.render(include_trace=True)
    assert "suspect" in report.flight_dump
    assert "reparent" in report.flight_dump


# ---------------------------------------------------------------------------
# Sharded control plane: cross-shard faults and mid-handoff crashes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", RINGS_SCENARIOS)
def test_rings_scenarios_pass_with_recovery_on(name):
    report = run_scenario(name, seed=0)
    assert report.passed, report.render(include_trace=True)
    assert report.invariants.violated_names() == set()
    # The sharded deployments actually exercise the ownership oracle.
    assert "ring-epoch-ownership" in report.invariants.checked


def test_mid_handoff_crash_fails_with_recovery_off():
    """The adversarial acceptance for the handoff: the same crash
    schedule with no handoff manager must orphan the shard."""
    report = run_scenario(
        "mid-handoff-crash", seed=0, chaos=ChaosConfig(recovery=False)
    )
    assert not report.passed, report.render(include_trace=True)
    violated = report.invariants.violated_names()
    assert {"liveness", "ring-epoch-ownership"} <= violated


@pytest.mark.parametrize("name", RINGS_SCENARIOS)
def test_rings_scenarios_replay_bit_identically(name):
    first = run_scenario(name, seed=17)
    second = run_scenario(name, seed=17)
    assert first.trace_digest == second.trace_digest
    assert first.events == second.events


# ---------------------------------------------------------------------------
# Replayability: the printed seed is the whole experiment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("pbft-equivocate", "dissemination-loss"))
def test_same_seed_replays_bit_identically(name):
    first = run_scenario(name, seed=17)
    second = run_scenario(name, seed=17)
    assert first.trace_digest == second.trace_digest
    assert first.events == second.events
    assert first.invariants.checked == second.invariants.checked
    assert first.seed == second.seed == 17


def test_different_seeds_diverge():
    a = run_scenario("routing-churn", seed=0)
    b = run_scenario("routing-churn", seed=1)
    assert a.trace_digest != b.trace_digest


def test_intensity_and_duration_feed_the_trace():
    mild = ChaosConfig(enabled=True, duration_ms=20_000.0, intensity=0.1)
    harsh = ChaosConfig(enabled=True, duration_ms=20_000.0, intensity=0.5)
    a = run_scenario("dissemination-loss", seed=4, chaos=mild)
    b = run_scenario("dissemination-loss", seed=4, chaos=harsh)
    assert a.trace_digest != b.trace_digest


# ---------------------------------------------------------------------------
# Batch boundaries in the flight recorder
# ---------------------------------------------------------------------------


def test_batched_run_records_batch_boundaries():
    """A failed batched-run dump must show which updates shared a round:
    the leader emits a ``batch_seal`` flight event per sealed batch."""
    report = run_scenario(
        "pbft-silent",
        seed=0,
        chaos=chaos_config(True),
        capture_flight=True,
    )
    assert report.passed, report.render(include_trace=True)
    assert "batch_seal" in report.flight_dump
    seal_lines = [
        line for line in report.flight_dump.splitlines() if "batch_seal" in line
    ]
    # Boundary events carry the round's membership for postmortems.
    assert all("members=" in line for line in seal_lines)


def test_unbatched_run_has_no_batch_boundaries():
    report = run_scenario("pbft-silent", seed=0, capture_flight=True)
    assert report.passed
    assert "batch_seal" not in report.flight_dump


def test_batched_same_seed_replays_bit_identically():
    first = run_scenario("pbft-delay", seed=17, chaos=chaos_config(True))
    second = run_scenario("pbft-delay", seed=17, chaos=chaos_config(True))
    assert first.trace_digest == second.trace_digest
    assert first.events == second.events


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def test_report_round_trips_through_json():
    report = run_scenario("pbft-quorum-violation", seed=0)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["scenario"] == "pbft-quorum-violation"
    assert payload["seed"] == 0
    assert payload["passed"] is True
    assert sorted(payload["expect_violations"]) == [
        "liveness",
        "quorum-feasibility",
    ]
    assert "profile" not in payload


def test_render_names_scenario_and_seed():
    report = run_scenario("pbft-silent", seed=0)
    text = report.render()
    assert "pbft-silent" in text
    assert "seed=0" in text
