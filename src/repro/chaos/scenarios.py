"""Deterministic chaos scenarios: seeded fault storms with an oracle.

Each scenario is a :class:`FaultSchedule` literal: a deployment plus a
list of steps that inject a specific class of adversity -- Byzantine
replicas, churn plus partitions, lossy links, crashes during archival
repair -- let the simulation run, and heal what the scenario promises to
heal.  One runner deploys, runs the steps in order, and hands the system
to the invariant checker (:mod:`repro.chaos.invariants`).  A step is
``(op, *args)``, run as ``op(ctx, *args)``: a new scenario is a new
literal, and only a new kind of fault needs a new op.

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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class FaultSchedule:
    """One chaos scenario as data: deploy, run ``steps`` in order, judge."""

    #: its first line is what ``repro chaos --list`` prints
    doc: str
    #: ``(op, *args)`` tuples, each run as ``op(ctx, *args)``
    steps: tuple[tuple, ...]
    #: overrides on the standard chaos deployment; ``None`` deploys
    #: nothing, and the first step stands up what the scenario needs
    deploy: dict | None = field(default_factory=dict)
    #: turn the recovery layer on, unless ``ChaosConfig.recovery`` is off
    recovery: bool = False
    #: invariant names this scenario *wants* violated (the oracle test)
    expect_violations: frozenset[str] = frozenset()
    #: invariant names deliberately not applicable to this scenario
    skip: frozenset[str] = frozenset()


class ChaosContext:
    """Per-run state the steps of one schedule share."""

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
        self.author = None
        #: the node every write is submitted from
        self.client: int | None = None
        #: objects in creation order; ``write`` names them by index
        self.guids: list[GUID] = []
        self.expected_update_ids: list[bytes] = []
        #: reports of the latest archival repair sweep
        self.sweep_reports: list = []
        #: scenario-level checks merged into the final report
        self.extra_checked: list[str] = []
        self.extra_violations: list[InvariantViolation] = []

    def event(self, text: str) -> None:
        now = self.kernel.now if self.kernel is not None else 0.0
        self.events.append(f"{now:>10.1f}ms  {text}")


def _deploy(
    name: str, seed: int, chaos: ChaosConfig, schedule: FaultSchedule
) -> ChaosContext:
    """Stand up ``schedule``'s deployment and pick its author and client.

    Both come from named seed streams that no step's timing can perturb,
    so picking them up front reproduces every draw.
    """
    ctx = ChaosContext(name, seed, chaos)
    ctx.author = make_principal("chaos-author", ctx.seeds.derive("author"), bits=256)
    if schedule.deploy is None:
        return ctx
    params = dict(
        seed=seed,
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
            slo_thresholds=chaos.slo_thresholds,
        ),
        chaos=chaos,
        batching=chaos.batching,
    )
    if schedule.recovery:
        params["recovery"] = RecoveryConfig(
            enabled=chaos.recovery,
            heartbeat_interval_ms=1_000.0,
            heartbeat_timeout_ms=600.0,
            suspicion_threshold=2,
            refresh_interval_ms=10_000.0,
        )
    params.update(schedule.deploy)
    system = OceanStoreSystem(DeploymentConfig(**params))
    ctx.system = system
    ctx.ring = system.ring
    ctx.kernel = system.kernel
    ctx.telemetry = system.telemetry
    system.injector.on_crash(lambda node: ctx.event(f"node {node} crashed"))
    system.injector.on_revive(lambda node: ctx.event(f"node {node} revived"))
    ctx.event(
        f"deployment up: {len(system.servers)} servers, "
        f"ring {system.ring_nodes}"
    )
    stubs = sorted(n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub")
    ctx.client = ctx.rng.choice(stubs)
    return ctx


# -- shared ops --------------------------------------------------------------


def note(ctx: ChaosContext, text: str) -> None:
    ctx.event(text)


def create(ctx: ChaosContext, name: str) -> None:
    guid = object_guid(ctx.author.public_key, name)
    ctx.system.create_object(guid)
    ctx.guids.append(guid)
    ctx.event(f"object {name} created as {guid}")


def create_per_shard(ctx: ChaosContext, base: str) -> None:
    """One object per shard, found by deterministic name search."""
    rings = ctx.system.rings
    found: dict[int, GUID] = {}
    i = 0
    while len(found) < rings.ring_count:
        guid = object_guid(ctx.author.public_key, f"{base}-{i}")
        shard_id = rings.shard_of(guid).shard_id
        if shard_id not in found:
            found[shard_id] = guid
            ctx.system.create_object(guid)
            ctx.event(
                f"object {base}-{i} created in shard {shard_id} as {guid}"
            )
        i += 1
    ctx.guids.extend(found[s] for s in sorted(found))


def settle(ctx: ChaosContext, *window_ms: float) -> None:
    """Run the simulation ``window_ms`` (default: the settle window)."""
    ctx.system.settle(*window_ms)


def settle_storm(ctx: ChaosContext) -> None:
    """Run the simulation for the fault window, ``ChaosConfig.duration_ms``."""
    ctx.system.settle(ctx.chaos.duration_ms)


def converge(ctx: ChaosContext) -> None:
    ctx.system.probabilistic.converge()


def _expect(ctx: ChaosContext, guid: GUID, payload: bytes, ts: float) -> Update:
    """An append of ``payload`` by the author, recorded as expected."""
    update = make_update(
        ctx.author,
        guid,
        [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
        ts,
    )
    ctx.expected_update_ids.append(update.update_id)
    return update


def write(
    ctx: ChaosContext,
    obj: int,
    payload: bytes,
    ts: float,
    attempts: int = 5,
    settle_ms: float = 20_000.0,
) -> None:
    """Append ``payload`` to object ``ctx.guids[obj]`` and submit it from
    the client with retry (the paper's clients retry through faults;
    PBFT dedupes re-sent requests) until the honest owning ring
    executes it."""
    system = ctx.system
    update = _expect(ctx, ctx.guids[obj], payload, ts)
    short_id = update.update_id[:4].hex()
    for attempt in range(attempts):
        system.submit_update(ctx.client, update)
        ctx.event(
            f"update {short_id} submitted from node {ctx.client}"
            + (f" (retry {attempt})" if attempt else "")
        )
        system.settle(settle_ms)
        # The ring responsible for this update's GUID; at ring_count=1
        # this is exactly ``system.ring``.
        ring = system.rings.ring_for(update.object_guid)
        if any(
            update.update_id in r.executed_updates
            for r in ring.replicas
            if r.fault_mode is FaultMode.HONEST
        ):
            ctx.event(f"update {short_id} executed by the honest ring")
            return
    ctx.event(f"update {short_id} NOT executed after {attempts} attempts")


def _non_ring_nodes(system: OceanStoreSystem) -> list[int]:
    return sorted(n for n in system.network.nodes() if n not in system.ring_nodes)


def _lookup(result) -> str:
    return f"hit at node {result.replica_node}" if result.found else "miss"


# -- PBFT under Byzantine replicas -------------------------------------------


def mark_byzantine(ctx: ChaosContext, mode: FaultMode) -> None:
    """Mark the ring's m replicas ``mode``, highest indices first so the
    view-0 leader stays honest."""
    ring = ctx.ring
    for i in range(ring.m):
        index = ring.n - 1 - i
        ring.set_fault(index, mode)
        ctx.event(f"ring replica {index} marked {mode.value}")


def log_committed_order(ctx: ChaosContext) -> None:
    ctx.event(
        f"ring committed order holds {len(ctx.ring.committed_order)} updates"
    )


def undersized_ring(ctx: ChaosContext) -> None:
    """A bare ring of n=3m replicas, one short of 3m+1, plus one client
    node on a complete graph (m = 1)."""
    m = 1
    n = 3 * m
    kernel = Kernel()
    telemetry = Telemetry.from_config(
        TelemetryConfig(enabled=True), clock=lambda: kernel.now
    )
    kernel.trace_wrapper = telemetry.wrap
    graph = nx.complete_graph(n + 1)
    nx.set_edge_attributes(graph, 50.0, "latency_ms")
    network = Network(kernel, graph, telemetry=telemetry)
    identity_rng = ctx.seeds.derive("ring-identities")
    principals = [
        make_principal(f"replica-{i}", identity_rng, bits=256) for i in range(n)
    ]
    ctx.ring = InnerRing(
        kernel,
        network,
        list(range(n)),
        principals,
        m=m,
        telemetry=telemetry,
        allow_unsafe_size=True,
        batching=ctx.chaos.batching,
    )
    ctx.kernel = kernel
    ctx.telemetry = telemetry
    ctx.client = n
    ctx.event(f"undersized ring up: n={n} for m={m} (needs {3 * m + 1})")


def submit_to_ring(ctx: ChaosContext, name: str, payload: bytes) -> None:
    """Submit one append straight to the bare ring and wait 30 s."""
    update = _expect(ctx, object_guid(ctx.author.public_key, name), payload, 1.0)
    ctx.ring.submit(ctx.client, update)
    ctx.event(f"update {update.update_id[:4].hex()} submitted from node {ctx.client}")
    ctx.kernel.run(until=ctx.kernel.now + 30_000.0)
    executed = sum(
        1 for r in ctx.ring.replicas if update.update_id in r.executed_updates
    )
    ctx.event(f"executed on {executed} of {ctx.ring.n} replicas")


# -- location mesh under churn and partition ---------------------------------


def churn_and_partition(ctx: ChaosContext) -> None:
    """Churn every non-ring node; cut the first half off from the rest."""
    system = ctx.system
    nodes = _non_ring_nodes(system)
    duration = ctx.chaos.duration_ms
    system.injector.start_churn(
        nodes,
        ChurnParams(
            mean_uptime_ms=duration / 3.0, mean_downtime_ms=duration / 6.0
        ),
    )
    ctx.event(f"churn started on {len(nodes)} non-ring nodes")
    half = len(nodes) // 2
    system.network.add_asymmetric_partition(set(nodes[:half]), set(nodes[half:]))
    ctx.event(
        f"asymmetric partition: {half} nodes cannot reach the other "
        f"{len(nodes) - half}"
    )


def lookup_mid_storm(ctx: ChaosContext) -> None:
    """A third of the storm passes; then locate a random object from a
    random live non-ring node."""
    system = ctx.system
    system.settle(ctx.chaos.duration_ms / 3.0)
    live = [n for n in _non_ring_nodes(system) if not system.network.is_down(n)]
    start = ctx.rng.choice(live or [ctx.client])
    result = system.location.locate(start, ctx.rng.choice(ctx.guids))
    ctx.event(f"mid-storm lookup from node {start}: " + _lookup(result))


def heal_churn(ctx: ChaosContext) -> None:
    system = ctx.system
    system.injector.stop_churn()
    system.network.heal_partitions()
    for node in _non_ring_nodes(system):
        system.injector.revive(node)
    ctx.event("healed: churn stopped, partitions removed, nodes revived")


# -- dissemination under message loss ----------------------------------------


def lossy_window(ctx: ChaosContext) -> None:
    """Drop, duplicate, reorder and corrupt on every link for the fault
    window (drop rate: ``ChaosConfig.intensity``, at most 0.5)."""
    now = ctx.kernel.now
    drop = min(ctx.chaos.intensity, 0.5)
    rule = ctx.system.net_faults.add_rule(
        LinkFaultRule(
            start_ms=now,
            end_ms=now + ctx.chaos.duration_ms,
            drop=drop,
            duplicate=0.1,
            reorder=0.2,
            corrupt=0.05,
        )
    )
    ctx.event(
        f"lossy window open: drop={drop:.2f}, dup=0.10, reorder=0.20, "
        f"corrupt=0.05 until t={rule.end_ms:.0f}ms"
    )


def close_lossy_window(ctx: ChaosContext) -> None:
    """Log what the injector did, then wait out the rest of the window."""
    injector = ctx.system.net_faults
    ctx.event(
        f"fault stats: dropped={injector.stats_dropped} "
        f"duplicated={injector.stats_duplicated} "
        f"reordered={injector.stats_reordered} "
        f"corrupted={injector.stats_corrupted}"
    )
    window_end = injector.rules[-1].end_ms
    if ctx.kernel.now < window_end:
        ctx.system.settle(window_end - ctx.kernel.now)
    ctx.event("lossy window closed")


def quiesce_epidemic(ctx: ChaosContext) -> None:
    # Anti-entropy pairs replicas at random, so the number of rounds a
    # straggler needs is itself random; run until quiescent (bounded)
    # rather than a fixed count -- the claim is eventual convergence.
    system = ctx.system
    rounds_used = 0
    for rounds_used in range(1, 13):
        system.run_epidemic_rounds(rounds=1)
        if all(
            tier.consistent_fraction() == 1.0
            for tier in system.tiers.values()
        ):
            break
    ctx.event(f"anti-entropy quiesced after {rounds_used} post-storm rounds")


def check_tiers_consistent(ctx: ChaosContext) -> None:
    ctx.extra_checked.append("dissemination-convergence")
    for tier_guid, tier in ctx.system.tiers.items():
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


def crash_tree_parent(ctx: ChaosContext) -> None:
    """Crash the dissemination-tree node of object 0 with most children."""
    tier = ctx.system.tiers[ctx.guids[0]]
    parents = [m for m in sorted(tier.replicas) if tier.tree.children(m)]
    victim = (
        max(parents, key=lambda m: (len(tier.tree.children(m)), -m))
        if parents
        else sorted(tier.replicas)[0]
    )
    orphans = tier.tree.children(victim)
    ctx.event(f"crashing tree parent {victim} (children {orphans})")
    ctx.system.injector.crash(victim)


def check_subtree_caught_up(ctx: ChaosContext) -> None:
    """Every live replica of object 0 committed every expected update,
    and no dead one is still registered in its tier."""
    system = ctx.system
    tier = system.tiers[ctx.guids[0]]
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


def wipe_roots(ctx: ChaosContext) -> None:
    """Soft-state catastrophe (a TTL-expiry storm) for object 0: every
    Plaxton pointer for every salted GUID vanishes, the probabilistic
    tier's neighbor filters go blank, and each salt's root crashes unless
    it is a ring member (the quorum must stay live).  Only republish can
    bring the object back into the location infrastructure."""
    system = ctx.system
    guid = ctx.guids[0]
    salted = system.router.salted_guids(guid)
    for nid in sorted(system.mesh.nodes):
        node = system.mesh.nodes[nid]
        for salt in salted:
            node.pointers.pop(salt, None)
    for nid in sorted(system.network.nodes()):
        system.probabilistic.clear_neighbor_filters(nid)
    roots = sorted(set(system.router.roots_of(guid)))
    victims = [r for r in roots if r not in system.ring_nodes]
    for root in victims:
        system.injector.crash(root)
    ctx.event(
        f"pointer paths wiped for {len(salted)} salts; roots {roots}, "
        f"{len(victims)} crashed"
    )


def degraded_read(ctx: ChaosContext) -> None:
    """A client read of object 0 down the degradation ladder; its backoff
    settles are where the detector, eviction, republish, and refresh
    loops get to run."""
    from repro.api.backend import UnknownObject

    policy = RetryPolicy(
        deadline_ms=30_000.0,
        max_attempts=5,
        backoff_base_ms=2_000.0,
        seed=ctx.seed,
    )
    try:
        state = ctx.system.read_degraded(
            ctx.guids[0],
            allow_tentative=True,
            min_version=0,
            client_node=ctx.client,
            retry=policy,
        )
        ctx.event(f"degraded read served version {state.version}")
    except UnknownObject:
        ctx.event("degraded read exhausted its deadline budget")


def locate_from_client(ctx: ChaosContext) -> None:
    result = ctx.system.location.locate(ctx.client, ctx.guids[0])
    ctx.event("post-storm locate: " + _lookup(result))


def crash_storm_and_sweep(ctx: ChaosContext, round_no: int) -> None:
    """Crash ``intensity / 2`` of the non-ring nodes, run a repair sweep,
    then settle 10 s.  The sweep re-encodes any object below the safety
    threshold back to full strength on surviving servers, so the next
    storm hits a repaired population -- the race the paper's "slow
    sweep" is meant to win."""
    system = ctx.system
    victims = system.injector.crash_fraction(
        _non_ring_nodes(system), ctx.chaos.intensity / 2
    )
    ctx.event(f"crash storm {round_no}: {len(victims)} nodes down {victims}")
    ctx.sweep_reports = reports = system.sweeper.sweep()
    repaired = [r for r in reports if r.repaired]
    lost = [r for r in reports if r.lost]
    ctx.event(
        f"repair sweep {round_no}: {len(reports)} objects scanned, "
        f"{len(repaired)} repaired, {len(lost)} lost"
    )
    system.settle(10_000.0)


def check_repair_accounting(ctx: ChaosContext) -> None:
    """The latest sweep's verdict matches ground truth: an object it
    wrote off as lost really had fewer than k live fragments."""
    ctx.extra_checked.append("repair-accounting")
    for report in ctx.sweep_reports:
        archival, code = ctx.system.archive_index.objects[
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


# -- sharded control plane ---------------------------------------------------


def partition_rings(ctx: ChaosContext) -> None:
    shard_a, shard_b = ctx.system.rings.shards
    ctx.system.network.add_partition(set(shard_a.members), set(shard_b.members))
    ctx.event(
        f"partitioned ring {shard_a.members} from ring {shard_b.members}"
    )


def heal_partitions(ctx: ChaosContext) -> None:
    ctx.system.network.heal_partitions()
    ctx.event("partition healed")


def log_commit_stats(ctx: ChaosContext) -> None:
    for row in ctx.system.rings.commit_stats():
        ctx.event(
            f"shard {row['shard']} epoch {row['epoch']}: "
            f"{row['committed']} committed"
        )


def tune_handoff(ctx: ChaosContext, drain_ms: float, timeout_ms: float) -> None:
    """Set the handoff manager's drain window and watchdog, if it runs."""
    if ctx.system.handoff is not None:
        ctx.system.handoff.drain_ms = drain_ms
        ctx.system.handoff.timeout_ms = timeout_ms


def crash_member_then_coordinator(ctx: ChaosContext) -> None:
    """Crash shard 1's last member; once its handoff is under way (or
    6 s on, without a handoff manager), crash the coordinator too; then
    settle 60 s."""
    system = ctx.system
    shard = system.rings.shards[1]
    coordinator = shard.members[0]
    system.injector.crash(shard.members[-1])
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


def log_handoffs(ctx: ChaosContext) -> None:
    system = ctx.system
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


# -- the registry ------------------------------------------------------------

#: the object and writes every Byzantine-replica scenario drives
_PBFT_WRITES = (
    (create, "pbft-object"), (settle,),
    (write, 0, b"payload-0", 1.0),
    (write, 0, b"payload-1", 2.0),
    (write, 0, b"payload-2", 3.0),
    (log_committed_order,),
)

SCENARIOS: dict[str, FaultSchedule] = {
    "pbft-silent": FaultSchedule(
        doc="m silent (crashed) replicas at n=3m+1: agreement must survive.",
        steps=((mark_byzantine, FaultMode.SILENT), *_PBFT_WRITES),
    ),
    "pbft-equivocate": FaultSchedule(
        doc="m equivocating replicas split their votes; quorums must not.",
        steps=((mark_byzantine, FaultMode.EQUIVOCATE), *_PBFT_WRITES),
    ),
    "pbft-delay": FaultSchedule(
        doc="m dawdling replicas send correct messages late.",
        steps=((mark_byzantine, FaultMode.DELAY), *_PBFT_WRITES),
    ),
    "pbft-corrupt": FaultSchedule(
        doc="m replicas garble every digest; honest verification rejects them.",
        steps=((mark_byzantine, FaultMode.CORRUPT), *_PBFT_WRITES),
    ),
    "pbft-quorum-violation": FaultSchedule(
        doc="""An undersized ring (n=3m) with m silent replicas: the checker
            must detect the violated fault budget and the resulting stall.""",
        deploy=None,
        steps=(
            (undersized_ring,), (mark_byzantine, FaultMode.SILENT),
            (submit_to_ring, "starved-object", b"doomed payload"),
        ),
        expect_violations=frozenset({"quorum-feasibility", "liveness"}),
    ),
    "routing-churn": FaultSchedule(
        doc="""Churn plus an asymmetric partition; location must reconverge
            once the storm passes (Section 4.3.3 soft-state repair).""",
        steps=(
            (create, "churned-0"), (write, 0, b"body-0", 1.0),
            (create, "churned-1"), (write, 1, b"body-1", 1.0),
            (create, "churned-2"), (write, 2, b"body-2", 1.0),
            (churn_and_partition,), *[(lookup_mid_storm,)] * 3,
            (heal_churn,), (settle,), (converge,),
            (note, "probabilistic tier reconverged"),
        ),
    ),
    "dissemination-loss": FaultSchedule(
        doc="""Lossy links while updates commit and spread; the secondary tier
            must still converge once losses stop.""",
        steps=(
            (create, "lossy-object"), (settle,), (lossy_window,),
            (write, 0, b"lossy-0", 1.0, 8),
            (write, 0, b"lossy-1", 2.0, 8),
            (write, 0, b"lossy-2", 3.0, 8),
            (close_lossy_window,), (quiesce_epidemic,), (check_tiers_consistent,),
        ),
    ),
    "orphaned-subtree": FaultSchedule(
        doc="""Crash a dissemination-tree parent mid-stream; recovery must
            reparent the orphaned subtree and catch it up via anti-entropy.""",
        deploy=dict(secondaries_per_object=6, dissemination_fanout=2),
        recovery=True,
        steps=(
            (create, "orphaned-object"), (settle,),
            (write, 0, b"before-the-crash", 1.0),
            (crash_tree_parent,),
            # Two more commits while the parent is dead: pushes into the
            # orphaned subtree are dropped on the floor.
            (write, 0, b"past-the-corpse-1", 2.0),
            (write, 0, b"past-the-corpse-2", 3.0),
            # Time for the detector to suspect and the tree to heal; no
            # epidemic rounds -- convergence must come from repair alone.
            (settle_storm,), (check_subtree_caught_up,),
        ),
    ),
    "dead-root-read": FaultSchedule(
        doc="""Kill the salted roots and wipe the pointer paths mid-read; the
            degradation ladder must keep the read serviceable and republish
            must restore locate-ability.""",
        recovery=True,
        steps=(
            (create, "rooted-object"), (settle,),
            (write, 0, b"beneath-the-roots", 1.0),
            (wipe_roots,), (degraded_read,), (settle_storm,), (locate_from_client,),
        ),
    ),
    "archival-crash-repair": FaultSchedule(
        doc="""Crash storms interleaved with repair sweeps; every archived
            version must stay reconstructible from surviving fragments.""",
        steps=(
            (create, "archived-0"), (write, 0, b"fragile-0", 1.0),
            (create, "archived-1"), (write, 1, b"fragile-1", 1.0),
            (crash_storm_and_sweep, 1), (crash_storm_and_sweep, 2),
            (check_repair_accounting,),
            (note, "leaving crashed nodes down for the survivor-only check"),
        ),
        # Nodes stay down on purpose: reconstruction must work from the
        # survivors alone.  Routing is exercised by routing-churn instead.
        skip=frozenset({"routing-reconvergence"}),
    ),
    "cross-shard-partition": FaultSchedule(
        doc="""Partition the two shards' rings from each other mid-write: each
            ring must keep committing its own GUID range independently.""",
        deploy=dict(
            ring_count=2,
            topology=TopologyParams(transit_nodes=8, stubs_per_transit=1, nodes_per_stub=3),
        ),
        steps=(
            (create_per_shard, "cross-shard"), (settle,),
            (write, 0, b"before-partition-0", 1.0),
            (write, 1, b"before-partition-1", 2.0),
            # Agreement is per-ring, so the partition between rings is
            # invisible to clients of either range.
            (partition_rings,),
            (write, 0, b"during-partition-0", 10.0),
            (write, 1, b"during-partition-1", 11.0),
            (heal_partitions,), (settle,), (converge,), (log_commit_stats,),
        ),
    ),
    "mid-handoff-crash": FaultSchedule(
        doc="""Crash a ring member, then the handoff coordinator mid-transfer:
            the watchdog must re-elect at a higher epoch and finish the handoff
            (with recovery disabled there is no handoff and the oracle fails).""",
        deploy=dict(
            ring_count=2,
            topology=TopologyParams(transit_nodes=12, stubs_per_transit=1, nodes_per_stub=2),
        ),
        recovery=True,
        steps=(
            # A wide drain window so the coordinator crash lands while the
            # first handoff attempt is still in flight, and a short
            # watchdog so the retry happens within the scenario budget.
            (tune_handoff, 4_000.0, 8_000.0),
            (create_per_shard, "handoff"), (settle,),
            (write, 0, b"pre-crash-0", 1.0),
            (write, 1, b"pre-crash-1", 2.0),
            (crash_member_then_coordinator,),
            # Progress after the dust settles: both shards must commit.
            (write, 0, b"post-recovery-0", 20.0, 2, 10_000.0),
            (write, 1, b"post-recovery-1", 21.0, 2, 10_000.0),
            (log_handoffs,),
        ),
    ),
}


def scenario_descriptions() -> dict[str, str]:
    return {
        name: schedule.doc.splitlines()[0]
        for name, schedule in sorted(SCENARIOS.items())
    }


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
    schedule = SCENARIOS[name]
    chaos = dataclasses.replace(chaos or ChaosConfig(), enabled=True)
    ctx = _deploy(name, seed, chaos, schedule)
    for op, *args in schedule.steps:
        op(ctx, *args)

    if ctx.system is None:
        report = InvariantReport(
            checked=("agreement-safety", "quorum-feasibility", "liveness"),
            violations=tuple(
                check_ring_agreement(ctx.ring)
                + check_ring_quorum(ctx.ring)
                + check_ring_liveness(ctx.ring, ctx.expected_update_ids)
            ),
        )
    else:
        report = InvariantChecker(ctx.system).check_all(
            rng=ctx.seeds.derive("invariant-sample"),
            expected_update_ids=tuple(ctx.expected_update_ids),
            skip=schedule.skip,
        )
        # SLO oracle: only when thresholds were configured -- the default
        # (record, never judge) leaves checked/violations, and therefore
        # the trace digest, untouched.
        slo = ctx.telemetry.slo
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

    expected = schedule.expect_violations
    observed = report.violated_names()
    passed = observed == expected
    if passed and not expected:
        summary = "all invariants held"
    elif passed:
        summary = "expected violations detected: " + ", ".join(sorted(observed))
    else:
        summary = "; ".join(
            label + ", ".join(names)
            for label, names in (
                ("unexpected violations: ", sorted(observed - expected)),
                ("expected but absent: ", sorted(expected - observed)),
            )
            if names
        )
    telemetry = ctx.telemetry
    enabled = telemetry.enabled
    postmortem = enabled and (not passed or capture_flight)
    return ChaosReport(
        scenario=name,
        seed=seed,
        passed=passed,
        invariants=report,
        expect_violations=tuple(sorted(expected)),
        events=tuple(ctx.events),
        trace_digest=_trace_digest(name, seed, ctx.events, report),
        summary=summary,
        span_dump=telemetry.render_spans(max_depth=6) if enabled and not passed else "",
        flight_dump=telemetry.flight.render() if postmortem else "",
        # The Perfetto export rides along with the postmortem: load it
        # into ui.perfetto.dev to see the same timeline visually.
        perfetto=export_telemetry(telemetry) if postmortem else "",
        slo=telemetry.slo.summary() if enabled and telemetry.slo.ops() else None,
    )


__all__ = [
    "ChaosContext",
    "ChaosReport",
    "FaultSchedule",
    "SCENARIOS",
    "run_scenario",
    "scenario_descriptions",
]
