"""Deterministic chaos scenarios: seeded fault storms with an oracle.

Each scenario stands up a deployment, injects a specific class of
adversity -- Byzantine replicas, churn plus partitions, lossy links,
crashes during archival repair -- lets the simulation run, heals what
the scenario promises to heal, and then hands the system to the
invariant checker (:mod:`repro.chaos.invariants`).

Everything a scenario does derives from the master seed through named
:class:`~repro.util.rng.SeedSequence` streams, and the simulated clock
is the only clock, so ``run_scenario(name, seed)`` is a pure function:
the same seed reproduces the same event trace, the same fault pattern,
and the same verdict.  The trace digest in the resulting
:class:`ChaosReport` makes replay checkable bit-for-bit.

A scenario *passes* when the observed invariant violations are exactly
the ones it expects: usually none, but ``pbft-quorum-violation``
deliberately under-provisions the ring and passes only when the checker
catches it (the oracle is tested too).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    check_ring_agreement,
    check_ring_liveness,
    check_ring_quorum,
)
from repro.consistency.pbft import FaultMode, InnerRing
from repro.core.config import ChaosConfig, DeploymentConfig
from repro.core.system import OceanStoreSystem
from repro.crypto.keys import make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.data.update import Update
from repro.naming import object_guid
from repro.recovery import RecoveryConfig, RetryPolicy
from repro.sim.failures import ChurnParams
from repro.sim.faults import LinkFaultRule
from repro.sim.kernel import Kernel
from repro.sim.network import Network, TopologyParams
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.export import export_telemetry
from repro.util.ids import GUID
from repro.util.rng import SeedSequence


@dataclass
class ChaosReport:
    """Everything one scenario run produced, replayably."""

    scenario: str
    seed: int
    passed: bool
    invariants: InvariantReport
    expect_violations: tuple[str, ...]
    events: tuple[str, ...]
    #: sha256 over the scenario identity, event trace, and invariant
    #: outcome -- two runs match iff this matches
    trace_digest: str
    span_dump: str = ""
    #: flight-recorder timeline, auto-captured when the run fails (or on
    #: request) -- byte-identical across runs with the same master seed
    flight_dump: str = ""
    summary: str = ""
    #: per-operation SLO latency summary, present when recorded
    slo: dict | None = None
    #: Perfetto/Chrome trace-event JSON, auto-attached on invariant
    #: failure (or on request) -- byte-identical across same-seed runs
    perfetto: str = ""

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "summary": self.summary,
            "trace_digest": self.trace_digest,
            "flight_dump": self.flight_dump,
            "expect_violations": list(self.expect_violations),
            "invariants": {
                "checked": list(self.invariants.checked),
                "violations": [
                    {"invariant": v.invariant, "detail": v.detail}
                    for v in self.invariants.violations
                ],
            },
            "events": list(self.events),
            "perfetto_attached": bool(self.perfetto),
        }
        if self.slo is not None:
            out["slo"] = self.slo
        return out

    def render(self, include_trace: bool = False) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}  {self.scenario}  seed={self.seed}  "
            f"digest={self.trace_digest[:16]}"
        ]
        if self.summary:
            lines.append(f"  {self.summary}")
        if self.expect_violations:
            lines.append(
                "  expected violations: "
                + ", ".join(sorted(self.expect_violations))
            )
        lines.append(self.invariants.render())
        if include_trace or not self.passed:
            lines.append("  trace:")
            lines.extend(f"    {event}" for event in self.events)
        if not self.passed and self.span_dump:
            lines.append("  spans:")
            lines.extend(f"    {line}" for line in self.span_dump.splitlines())
        if not self.passed and self.flight_dump:
            lines.append("  flight recorder:")
            lines.extend(
                f"    {line}" for line in self.flight_dump.splitlines()
            )
        if not self.passed:
            lines.append(
                f"  replay: python -m repro chaos "
                f"--scenario {self.scenario} --seed {self.seed}"
            )
        return "\n".join(lines)


class ChaosContext:
    """Per-run state shared between a scenario and the runner."""

    def __init__(self, name: str, seed: int, chaos: ChaosConfig) -> None:
        self.name = name
        self.seed = seed
        self.chaos = chaos
        self.seeds = SeedSequence(seed)
        self.rng = self.seeds.derive(f"chaos:{name}")
        self.events: list[str] = []
        self.system: OceanStoreSystem | None = None
        self.ring: InnerRing | None = None
        self.kernel: Kernel | None = None
        self.telemetry = None
        self.expected_update_ids: list[bytes] = []
        self.expect_liveness = True
        #: invariant names this scenario *wants* violated (the oracle test)
        self.expect_violations: set[str] = set()
        #: invariant names deliberately not applicable to this scenario
        self.skip_invariants: set[str] = set()
        #: scenario-level checks merged into the final report
        self.extra_checked: list[str] = []
        self.extra_violations: list[InvariantViolation] = []

    # -- trace ----------------------------------------------------------

    def event(self, text: str) -> None:
        now = self.kernel.now if self.kernel is not None else 0.0
        self.events.append(f"{now:>10.1f}ms  {text}")

    # -- wiring ---------------------------------------------------------

    def attach_system(self, system: OceanStoreSystem) -> None:
        self.system = system
        self.ring = system.ring
        self.kernel = system.kernel
        self.telemetry = system.telemetry
        system.injector.on_crash(lambda node: self.event(f"node {node} crashed"))
        system.injector.on_revive(lambda node: self.event(f"node {node} revived"))

    def attach_ring(self, kernel: Kernel, ring: InnerRing, telemetry) -> None:
        self.ring = ring
        self.kernel = kernel
        self.telemetry = telemetry


# -- scenario building blocks ------------------------------------------------


def _standard_system(ctx: ChaosContext, **overrides) -> OceanStoreSystem:
    """A small-but-complete deployment with chaos + telemetry enabled."""
    params = dict(
        seed=ctx.seed,
        topology=TopologyParams(
            transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
        ),
        secondaries_per_object=3,
        archival_k=4,
        archival_n=8,
        # Recovery heartbeats add steady background traffic; a roomy
        # flight ring keeps the rare repair events (suspect, reparent,
        # republish) from being evicted before the postmortem dump.
        telemetry=TelemetryConfig(
            enabled=True,
            flight_capacity=65_536,
            slo_thresholds=ctx.chaos.slo_thresholds,
        ),
        chaos=ctx.chaos,
        batching=ctx.chaos.batching,
    )
    params.update(overrides)
    system = OceanStoreSystem(DeploymentConfig(**params))
    ctx.attach_system(system)
    ctx.event(
        f"deployment up: {len(system.servers)} servers, "
        f"ring {system.ring_nodes}"
    )
    return system


def _make_author(ctx: ChaosContext):
    return make_principal("chaos-author", ctx.seeds.derive("author"), bits=256)


def _new_object(ctx: ChaosContext, author, name: str) -> GUID:
    assert ctx.system is not None
    guid = object_guid(author.public_key, name)
    ctx.system.create_object(guid)
    ctx.event(f"object {name} created as {guid}")
    return guid


def _build_update(author, guid: GUID, payload: bytes, ts: float) -> Update:
    return make_update(
        author, guid, [UpdateBranch(TruePredicate(), (AppendBlock(payload),))], ts
    )


def _client_node(ctx: ChaosContext) -> int:
    """A deterministic stub node to submit from."""
    assert ctx.system is not None
    stubs = sorted(
        n
        for n, d in ctx.system.graph.nodes(data=True)
        if d["kind"] == "stub"
    )
    return ctx.rng.choice(stubs)


def _ring_executed(ring: InnerRing, update_id: bytes) -> bool:
    return any(
        update_id in r.executed_updates
        for r in ring.replicas
        if r.fault_mode is FaultMode.HONEST
    )


def _submit_until_executed(
    ctx: ChaosContext,
    client: int,
    update: Update,
    attempts: int = 5,
    settle_ms: float = 20_000.0,
) -> bool:
    """Submit with client-side retry (the paper's clients retry through
    faults; PBFT dedupes re-sent requests)."""
    assert ctx.system is not None
    short_id = update.update_id[:4].hex()
    for attempt in range(attempts):
        ctx.system.submit_update(client, update)
        ctx.event(
            f"update {short_id} submitted from node {client}"
            + (f" (retry {attempt})" if attempt else "")
        )
        ctx.system.settle(settle_ms)
        # The ring responsible for this update's GUID; at ring_count=1
        # this is exactly ``system.ring``.
        ring = ctx.system.rings.ring_for(update.object_guid)
        if _ring_executed(ring, update.update_id):
            ctx.event(f"update {short_id} executed by the honest ring")
            return True
    ctx.event(f"update {short_id} NOT executed after {attempts} attempts")
    return False


# -- registry ----------------------------------------------------------------

SCENARIOS: dict[str, Callable[[ChaosContext], None]] = {}


def scenario(name: str):
    def register(fn: Callable[[ChaosContext], None]):
        SCENARIOS[name] = fn
        return fn

    return register


def scenario_descriptions() -> dict[str, str]:
    return {
        name: (fn.__doc__ or "").strip().splitlines()[0]
        for name, fn in sorted(SCENARIOS.items())
    }


# -- PBFT under Byzantine replicas -------------------------------------------


def _pbft_byzantine(ctx: ChaosContext, mode: FaultMode) -> None:
    system = _standard_system(ctx)
    m = (
        ctx.chaos.byzantine
        if ctx.chaos.byzantine is not None
        else system.config.byzantine_m
    )
    n = system.ring.n
    for i in range(min(m, n)):
        index = n - 1 - i  # highest indices: view-0 leader stays honest
        system.ring.set_fault(index, mode)
        ctx.event(f"ring replica {index} marked {mode.value}")
    author = _make_author(ctx)
    guid = _new_object(ctx, author, "pbft-object")
    system.settle()
    client = _client_node(ctx)
    for i in range(3):
        update = _build_update(
            author, guid, f"payload-{i}".encode(), ts=float(i + 1)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)
    ctx.event(
        f"ring committed order holds {len(system.ring.committed_order)} updates"
    )


@scenario("pbft-silent")
def _pbft_silent(ctx: ChaosContext) -> None:
    """m silent (crashed) replicas at n=3m+1: agreement must survive."""
    _pbft_byzantine(ctx, FaultMode.SILENT)


@scenario("pbft-equivocate")
def _pbft_equivocate(ctx: ChaosContext) -> None:
    """m equivocating replicas split their votes; quorums must not."""
    _pbft_byzantine(ctx, FaultMode.EQUIVOCATE)


@scenario("pbft-delay")
def _pbft_delay(ctx: ChaosContext) -> None:
    """m dawdling replicas send correct messages late."""
    _pbft_byzantine(ctx, FaultMode.DELAY)


@scenario("pbft-corrupt")
def _pbft_corrupt(ctx: ChaosContext) -> None:
    """m replicas garble every digest; honest verification rejects them."""
    _pbft_byzantine(ctx, FaultMode.CORRUPT)


@scenario("pbft-quorum-violation")
def _pbft_quorum_violation(ctx: ChaosContext) -> None:
    """An undersized ring (n=3m) with m silent replicas: the checker
    must detect the violated fault budget and the resulting stall."""
    m = ctx.chaos.byzantine if ctx.chaos.byzantine is not None else 1
    n = 3 * m  # one replica short of the 3m+1 requirement
    kernel = Kernel()
    telemetry = Telemetry.from_config(
        TelemetryConfig(enabled=True), clock=lambda: kernel.now
    )
    kernel.trace_wrapper = telemetry.wrap
    graph = nx.complete_graph(n + 1)  # replicas plus one client node
    nx.set_edge_attributes(graph, 50.0, "latency_ms")
    network = Network(kernel, graph, telemetry=telemetry)
    identity_rng = ctx.seeds.derive("ring-identities")
    principals = [
        make_principal(f"replica-{i}", identity_rng, bits=256) for i in range(n)
    ]
    ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        telemetry=telemetry,
        allow_unsafe_size=True,
        batching=ctx.chaos.batching,
    )
    ctx.attach_ring(kernel, ring, telemetry)
    ctx.event(f"undersized ring up: n={n} for m={m} (needs {3 * m + 1})")
    for i in range(m):
        ring.set_fault(n - 1 - i, FaultMode.SILENT)
        ctx.event(f"ring replica {n - 1 - i} marked silent")
    author = _make_author(ctx)
    guid = object_guid(author.public_key, "starved-object")
    update = _build_update(author, guid, b"doomed payload", ts=1.0)
    ctx.expected_update_ids.append(update.update_id)
    ring.submit(n, update)
    ctx.event(f"update {update.update_id[:4].hex()} submitted from node {n}")
    kernel.run(until=kernel.now + 30_000.0)
    executed = sum(
        1 for r in ring.replicas if update.update_id in r.executed_updates
    )
    ctx.event(f"executed on {executed} of {n} replicas")
    ctx.expect_violations = {"quorum-feasibility", "liveness"}


# -- location mesh under churn and partition ---------------------------------


@scenario("routing-churn")
def _routing_churn(ctx: ChaosContext) -> None:
    """Churn plus an asymmetric partition; location must reconverge
    once the storm passes (Section 4.3.3 soft-state repair)."""
    system = _standard_system(ctx)
    author = _make_author(ctx)
    client = _client_node(ctx)
    guids = []
    for i in range(3):
        guid = _new_object(ctx, author, f"churned-{i}")
        guids.append(guid)
        update = _build_update(author, guid, f"body-{i}".encode(), ts=1.0)
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)

    stubs = sorted(
        n for n in system.network.nodes() if n not in system.ring_nodes
    )
    duration = ctx.chaos.duration_ms
    system.injector.start_churn(
        stubs,
        ChurnParams(
            mean_uptime_ms=duration / 3.0, mean_downtime_ms=duration / 6.0
        ),
    )
    ctx.event(f"churn started on {len(stubs)} non-ring nodes")
    half = len(stubs) // 2
    system.network.add_asymmetric_partition(set(stubs[:half]), set(stubs[half:]))
    ctx.event(
        f"asymmetric partition: {half} nodes cannot reach the other "
        f"{len(stubs) - half}"
    )
    for _ in range(3):
        system.settle(duration / 3.0)
        start = ctx.rng.choice(
            [n for n in stubs if not system.network.is_down(n)] or [client]
        )
        result = system.location.locate(start, ctx.rng.choice(guids))
        ctx.event(
            f"mid-storm lookup from node {start}: "
            + (f"hit at node {result.replica_node}" if result.found else "miss")
        )

    system.injector.stop_churn()
    system.network.heal_partitions()
    for node in stubs:
        system.injector.revive(node)
    ctx.event("healed: churn stopped, partitions removed, nodes revived")
    system.settle()
    system.probabilistic.converge()
    ctx.event("probabilistic tier reconverged")


# -- dissemination under message loss ----------------------------------------


@scenario("dissemination-loss")
def _dissemination_loss(ctx: ChaosContext) -> None:
    """Lossy links while updates commit and spread; the secondary tier
    must still converge once losses stop."""
    system = _standard_system(ctx)
    assert system.net_faults is not None
    author = _make_author(ctx)
    guid = _new_object(ctx, author, "lossy-object")
    system.settle()
    client = _client_node(ctx)

    window_end = system.kernel.now + ctx.chaos.duration_ms
    drop = min(ctx.chaos.intensity, 0.5)
    system.net_faults.add_rule(
        LinkFaultRule(
            start_ms=system.kernel.now,
            end_ms=window_end,
            drop=drop,
            duplicate=0.1,
            reorder=0.2,
            corrupt=0.05,
        )
    )
    ctx.event(
        f"lossy window open: drop={drop:.2f}, dup=0.10, reorder=0.20, "
        f"corrupt=0.05 until t={window_end:.0f}ms"
    )
    for i in range(3):
        update = _build_update(
            author, guid, f"lossy-{i}".encode(), ts=float(i + 1)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update, attempts=8)
    injector = system.net_faults
    ctx.event(
        f"fault stats: dropped={injector.stats_dropped} "
        f"duplicated={injector.stats_duplicated} "
        f"reordered={injector.stats_reordered} "
        f"corrupted={injector.stats_corrupted}"
    )
    if system.kernel.now < window_end:
        system.settle(window_end - system.kernel.now)
    ctx.event("lossy window closed")
    # Anti-entropy pairs replicas at random, so the number of rounds a
    # straggler needs is itself random; run until quiescent (bounded)
    # rather than a fixed count -- the claim is eventual convergence.
    rounds_used = 0
    for rounds_used in range(1, 13):
        system.run_epidemic_rounds(rounds=1)
        if all(
            tier.consistent_fraction() == 1.0
            for tier in system.tiers.values()
        ):
            break
    ctx.event(f"anti-entropy quiesced after {rounds_used} post-storm rounds")

    ctx.extra_checked.append("dissemination-convergence")
    for tier_guid in system.tiers:
        tier = system.tiers[tier_guid]
        fraction = tier.consistent_fraction()
        ctx.event(
            f"secondary tier for {tier_guid}: consistent fraction "
            f"{fraction:.2f}"
        )
        if fraction < 1.0:
            ctx.extra_violations.append(
                InvariantViolation(
                    "dissemination-convergence",
                    f"tier for {tier_guid} stuck at {fraction:.2f} "
                    "consistent after losses healed",
                )
            )


# -- self-healing recovery under crashes -------------------------------------


def _recovery_config(ctx: ChaosContext) -> RecoveryConfig:
    """Recovery knobs for the recovery scenarios: enabled unless the
    chaos config forces it off (that forcing is how tests show the
    oracle catching the *unrepaired* failures)."""
    enabled = True if ctx.chaos.recovery is None else ctx.chaos.recovery
    return RecoveryConfig(
        enabled=enabled,
        heartbeat_interval_ms=1_000.0,
        heartbeat_timeout_ms=600.0,
        suspicion_threshold=2,
        refresh_interval_ms=10_000.0,
    )


@scenario("orphaned-subtree")
def _orphaned_subtree(ctx: ChaosContext) -> None:
    """Crash a dissemination-tree parent mid-stream; recovery must
    reparent the orphaned subtree and catch it up via anti-entropy."""
    system = _standard_system(
        ctx,
        secondaries_per_object=6,
        dissemination_fanout=2,
        recovery=_recovery_config(ctx),
    )
    author = _make_author(ctx)
    guid = _new_object(ctx, author, "orphaned-object")
    system.settle()
    client = _client_node(ctx)
    first = _build_update(author, guid, b"before-the-crash", ts=1.0)
    ctx.expected_update_ids.append(first.update_id)
    _submit_until_executed(ctx, client, first)

    tier = system.tiers[guid]
    parents = [m for m in sorted(tier.replicas) if tier.tree.children(m)]
    victim = (
        max(parents, key=lambda m: (len(tier.tree.children(m)), -m))
        if parents
        else sorted(tier.replicas)[0]
    )
    orphans = tier.tree.children(victim)
    ctx.event(f"crashing tree parent {victim} (children {orphans})")
    system.injector.crash(victim)
    # Two more commits while the parent is dead: pushes into the
    # orphaned subtree are dropped on the floor.
    for i in (1, 2):
        update = _build_update(
            author, guid, f"past-the-corpse-{i}".encode(), ts=float(i + 1)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)
    # Time for the detector to suspect and the tree to heal; no epidemic
    # rounds -- convergence must come from the repair path alone.
    system.settle(ctx.chaos.duration_ms)
    ctx.event(
        f"recovery window closed; tier holds {len(tier.replicas)} replicas"
    )

    ctx.extra_checked.append("dissemination-convergence")
    expected_seq = len(ctx.expected_update_ids) - 1
    for node in sorted(tier.replicas):
        if system.network.is_down(node):
            ctx.extra_violations.append(
                InvariantViolation(
                    "dissemination-convergence",
                    f"dead node {node} still registered in the secondary tier",
                )
            )
            continue
        through = tier.replicas[node].committed_through
        ctx.event(f"replica {node} committed through seq {through}")
        if through < expected_seq:
            ctx.extra_violations.append(
                InvariantViolation(
                    "dissemination-convergence",
                    f"replica {node} stuck at seq {through} < {expected_seq} "
                    "after the dead parent should have been repaired",
                )
            )


@scenario("dead-root-read")
def _dead_root_read(ctx: ChaosContext) -> None:
    """Kill the salted roots and wipe the pointer paths mid-read; the
    degradation ladder must keep the read serviceable and republish must
    restore locate-ability."""
    from repro.api.backend import UnknownObject

    system = _standard_system(ctx, recovery=_recovery_config(ctx))
    author = _make_author(ctx)
    guid = _new_object(ctx, author, "rooted-object")
    system.settle()
    client = _client_node(ctx)
    update = _build_update(author, guid, b"beneath-the-roots", ts=1.0)
    ctx.expected_update_ids.append(update.update_id)
    _submit_until_executed(ctx, client, update)

    # Soft-state catastrophe (a TTL-expiry storm): every Plaxton pointer
    # for every salted GUID vanishes, the probabilistic tier's neighbor
    # filters go blank, and each salt's root crashes unless it is a ring
    # member (the quorum must stay live).  Only republish can bring the
    # object back into the location infrastructure.
    salted = system.router.salted_guids(guid)
    for nid in sorted(system.mesh.nodes):
        node = system.mesh.nodes[nid]
        for salt in salted:
            node.pointers.pop(salt, None)
    for nid in sorted(system.network.nodes()):
        system.probabilistic._nodes[nid].neighbor_filters.clear()
    roots = sorted(set(system.router.roots_of(guid)))
    victims = [r for r in roots if r not in system.ring_nodes]
    for root in victims:
        system.injector.crash(root)
    ctx.event(
        f"pointer paths wiped for {len(salted)} salts; roots {roots}, "
        f"{len(victims)} crashed"
    )

    # A client read lands in the middle of the damage.  The ladder's
    # backoff settles are where the detector, eviction, republish, and
    # refresh loops get to run.
    policy = RetryPolicy(
        deadline_ms=30_000.0,
        max_attempts=5,
        backoff_base_ms=2_000.0,
        seed=ctx.seed,
    )
    try:
        state = system.read_degraded(
            guid,
            allow_tentative=True,
            min_version=0,
            client_node=client,
            retry=policy,
        )
        ctx.event(f"degraded read served version {state.version}")
    except UnknownObject:
        ctx.event("degraded read exhausted its deadline budget")
    system.settle(ctx.chaos.duration_ms)
    result = system.location.locate(client, guid)
    ctx.event(
        "post-storm locate: "
        + (f"hit at node {result.replica_node}" if result.found else "miss")
    )


@scenario("archival-crash-repair")
def _archival_crash_repair(ctx: ChaosContext) -> None:
    """Crash storms interleaved with repair sweeps; every archived
    version must stay reconstructible from surviving fragments."""
    system = _standard_system(ctx)
    author = _make_author(ctx)
    client = _client_node(ctx)
    for i in range(2):
        guid = _new_object(ctx, author, f"archived-{i}")
        update = _build_update(author, guid, f"fragile-{i}".encode(), ts=1.0)
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)
    non_ring = sorted(
        n for n in system.network.nodes() if n not in system.ring_nodes
    )
    # Two half-strength storms with a repair sweep after each: the sweep
    # re-encodes any object below the safety threshold back to full
    # strength on surviving servers, so the second storm hits a repaired
    # population -- the race the paper's "slow sweep" is meant to win.
    last_reports = []
    for round_no in (1, 2):
        victims = system.injector.crash_fraction(
            non_ring, ctx.chaos.intensity / 2
        )
        ctx.event(
            f"crash storm {round_no}: {len(victims)} nodes down {victims}"
        )
        last_reports = system.sweeper.sweep()
        repaired = [r for r in last_reports if r.repaired]
        lost = [r for r in last_reports if r.lost]
        ctx.event(
            f"repair sweep {round_no}: {len(last_reports)} objects scanned, "
            f"{len(repaired)} repaired, {len(lost)} lost"
        )
        system.settle(10_000.0)
    # The sweeper's own verdict must match ground truth: an object it
    # wrote off as lost really had fewer than k live fragments.
    ctx.extra_checked.append("repair-accounting")
    for report in last_reports:
        archival, code = system.archive_index.objects[
            report.archival_guid_bytes
        ]
        if report.lost and report.live_fragments >= code.k:
            ctx.extra_violations.append(
                InvariantViolation(
                    "repair-accounting",
                    f"sweeper wrote off {archival.archival_guid} with "
                    f"{report.live_fragments} >= k={code.k} live fragments",
                )
            )
    # Nodes stay down on purpose: reconstruction must work from the
    # survivors alone.  Routing is exercised by routing-churn instead.
    ctx.skip_invariants.add("routing-reconvergence")
    ctx.event("leaving crashed nodes down for the survivor-only check")


# -- sharded control plane ---------------------------------------------------


def _objects_per_shard(ctx: ChaosContext, author, base: str) -> list[GUID]:
    """One object per shard, found by deterministic name search."""
    system = ctx.system
    assert system is not None
    found: dict[int, GUID] = {}
    i = 0
    while len(found) < system.rings.ring_count:
        guid = object_guid(author.public_key, f"{base}-{i}")
        shard_id = system.rings.shard_of(guid).shard_id
        if shard_id not in found:
            found[shard_id] = guid
            system.create_object(guid)
            ctx.event(
                f"object {base}-{i} created in shard {shard_id} as {guid}"
            )
        i += 1
    return [found[s] for s in sorted(found)]


@scenario("cross-shard-partition")
def _cross_shard_partition(ctx: ChaosContext) -> None:
    """Partition the two shards' rings from each other mid-write: each
    ring must keep committing its own GUID range independently."""
    system = _standard_system(
        ctx,
        ring_count=2,
        topology=TopologyParams(
            transit_nodes=8, stubs_per_transit=1, nodes_per_stub=3
        ),
    )
    author = _make_author(ctx)
    guids = _objects_per_shard(ctx, author, "cross-shard")
    system.settle()
    client = _client_node(ctx)
    for i, guid in enumerate(guids):
        update = _build_update(
            author, guid, f"before-partition-{i}".encode(), ts=float(i + 1)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)

    shard_a, shard_b = system.rings.shards
    system.network.add_partition(set(shard_a.members), set(shard_b.members))
    ctx.event(
        f"partitioned ring {shard_a.members} from ring {shard_b.members}"
    )
    # Both shards must make progress while unable to talk to each other:
    # agreement is per-ring, so the partition between rings is invisible
    # to clients of either range.
    for i, guid in enumerate(guids):
        update = _build_update(
            author, guid, f"during-partition-{i}".encode(), ts=float(i + 10)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)
    system.network.heal_partitions()
    ctx.event("partition healed")
    system.settle()
    system.probabilistic.converge()
    for row in system.rings.commit_stats():
        ctx.event(
            f"shard {row['shard']} epoch {row['epoch']}: "
            f"{row['committed']} committed"
        )


@scenario("mid-handoff-crash")
def _mid_handoff_crash(ctx: ChaosContext) -> None:
    """Crash a ring member, then the handoff coordinator mid-transfer:
    the watchdog must re-elect at a higher epoch and finish the handoff
    (with recovery disabled there is no handoff and the oracle fails)."""
    system = _standard_system(
        ctx,
        ring_count=2,
        topology=TopologyParams(
            transit_nodes=12, stubs_per_transit=1, nodes_per_stub=2
        ),
        recovery=_recovery_config(ctx),
    )
    if system.handoff is not None:
        # A wide drain window so the coordinator crash below lands while
        # the first handoff attempt is still in flight, and a short
        # watchdog so the retry happens within the scenario budget.
        system.handoff.drain_ms = 4_000.0
        system.handoff.timeout_ms = 8_000.0
    author = _make_author(ctx)
    guids = _objects_per_shard(ctx, author, "handoff")
    system.settle()
    client = _client_node(ctx)
    for i, guid in enumerate(guids):
        update = _build_update(
            author, guid, f"pre-crash-{i}".encode(), ts=float(i + 1)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update)

    shard = system.rings.shards[1]
    first_victim = shard.members[-1]
    coordinator = shard.members[0]
    system.injector.crash(first_victim)
    if system.handoff is not None:
        for _ in range(40):
            system.settle(500.0)
            if system.handoff.is_active(1):
                break
        ctx.event(
            "handoff active for shard 1; crashing its coordinator "
            f"(node {coordinator}) mid-transfer"
        )
    else:
        system.settle(6_000.0)
        ctx.event(
            f"no handoff manager (recovery off); crashing node {coordinator}"
        )
    system.injector.crash(coordinator)
    system.settle(60_000.0)

    # Progress after the dust settles: both shards must still commit.
    for i, guid in enumerate(guids):
        update = _build_update(
            author, guid, f"post-recovery-{i}".encode(), ts=float(i + 20)
        )
        ctx.expected_update_ids.append(update.update_id)
        _submit_until_executed(ctx, client, update, attempts=2, settle_ms=10_000.0)
    for row in system.rings.commit_stats():
        ctx.event(
            f"shard {row['shard']} epoch {row['epoch']} members "
            f"{row['members']}: {row['committed']} committed, retired "
            f"epochs {row['retired_epochs']}"
        )
    if system.handoff is not None:
        ctx.event(
            f"handoffs completed: {system.handoff.stats_handoffs}, "
            f"retries: {system.handoff.stats_retries}, fenced commits: "
            f"{system.rings.stats_fenced_commits}"
        )


# -- the runner --------------------------------------------------------------


def _trace_digest(
    name: str, seed: int, events: list[str], report: InvariantReport
) -> str:
    hasher = hashlib.sha256()
    hasher.update(f"{name}:{seed}".encode())
    for event in events:
        hasher.update(event.encode())
        hasher.update(b"\n")
    for checked in report.checked:
        hasher.update(checked.encode())
    for violation in report.violations:
        hasher.update(f"{violation.invariant}={violation.detail}".encode())
    return hasher.hexdigest()


def run_scenario(
    name: str,
    seed: int = 0,
    chaos: ChaosConfig | None = None,
    capture_flight: bool = False,
) -> ChaosReport:
    """Run one scenario deterministically and judge it.

    Returns a :class:`ChaosReport`; ``report.passed`` means observed
    invariant violations matched the scenario's expectations exactly.
    The flight-recorder timeline is captured into ``report.flight_dump``
    automatically on failure, or always with ``capture_flight=True``.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown chaos scenario {name!r} (known: {known})")
    chaos = dataclasses.replace(chaos or ChaosConfig(), enabled=True)
    ctx = ChaosContext(name, seed, chaos)
    SCENARIOS[name](ctx)

    if ctx.system is not None:
        checker = InvariantChecker(ctx.system)
        report = checker.check_all(
            rng=ctx.seeds.derive("invariant-sample"),
            expected_update_ids=tuple(ctx.expected_update_ids),
            expect_liveness=ctx.expect_liveness,
            skip=ctx.skip_invariants,
        )
    elif ctx.ring is not None:
        violations = (
            check_ring_agreement(ctx.ring)
            + check_ring_quorum(ctx.ring)
            + check_ring_liveness(ctx.ring, ctx.expected_update_ids)
        )
        report = InvariantReport(
            checked=("agreement-safety", "quorum-feasibility", "liveness"),
            violations=tuple(violations),
        )
    else:  # pragma: no cover - a scenario must attach something
        raise RuntimeError(f"scenario {name} attached no system or ring")

    # SLO oracle: only when thresholds were configured -- the default
    # (record, never judge) leaves checked/violations, and therefore the
    # trace digest, untouched.
    if ctx.system is not None:
        slo = ctx.system.telemetry.slo
        if slo is not None and slo.thresholds:
            ctx.extra_checked.append("operation-slo")
            for slo_violation in slo.check():
                ctx.extra_violations.append(
                    InvariantViolation("operation-slo", slo_violation.describe())
                )

    if ctx.extra_checked or ctx.extra_violations:
        report = InvariantReport(
            checked=report.checked + tuple(ctx.extra_checked),
            violations=report.violations + tuple(ctx.extra_violations),
        )

    observed = report.violated_names()
    passed = observed == ctx.expect_violations
    digest = _trace_digest(name, seed, ctx.events, report)
    span_dump = ""
    if not passed and ctx.telemetry is not None and ctx.telemetry.enabled:
        span_dump = ctx.telemetry.render_spans(max_depth=6)
    flight_dump = ""
    perfetto = ""
    if (
        (not passed or capture_flight)
        and ctx.telemetry is not None
        and ctx.telemetry.enabled
    ):
        flight_dump = ctx.telemetry.flight.render()
        # The Perfetto export rides along with the postmortem: load it
        # into ui.perfetto.dev to see the same timeline visually.
        perfetto = export_telemetry(ctx.telemetry)
    slo_summary: dict | None = None
    if ctx.telemetry is not None and ctx.telemetry.enabled:
        slo = ctx.telemetry.slo
        if slo.ops():
            slo_summary = slo.summary()
    if passed and not ctx.expect_violations:
        summary = "all invariants held"
    elif passed:
        summary = "expected violations detected: " + ", ".join(sorted(observed))
    else:
        missing = sorted(ctx.expect_violations - observed)
        unexpected = sorted(observed - ctx.expect_violations)
        parts = []
        if unexpected:
            parts.append("unexpected violations: " + ", ".join(unexpected))
        if missing:
            parts.append("expected but absent: " + ", ".join(missing))
        summary = "; ".join(parts)
    return ChaosReport(
        scenario=name,
        seed=seed,
        passed=passed,
        invariants=report,
        expect_violations=tuple(sorted(ctx.expect_violations)),
        events=tuple(ctx.events),
        trace_digest=digest,
        span_dump=span_dump,
        flight_dump=flight_dump,
        summary=summary,
        slo=slo_summary,
        perfetto=perfetto,
    )


def run_all(seed: int = 0, chaos: ChaosConfig | None = None) -> list[ChaosReport]:
    """Every registered scenario under one master seed."""
    return [run_scenario(name, seed, chaos) for name in sorted(SCENARIOS)]


__all__ = [
    "ChaosContext",
    "ChaosReport",
    "SCENARIOS",
    "run_all",
    "run_scenario",
    "scenario_descriptions",
]
