"""The integrated OceanStore deployment (Figure 1 / Figure 5).

:class:`OceanStoreSystem` wires every substrate together over one
simulated wide-area network:

* servers on a transit-stub topology, each with object storage, fragment
  storage, and introspection (:mod:`repro.core.server`);
* two-tier data location -- attenuated Bloom filters backed by a salted
  Plaxton mesh (:mod:`repro.routing`);
* a Byzantine-agreement inner ring on well-connected transit nodes, with
  epidemic secondary tiers and dissemination trees per object
  (:mod:`repro.consistency`);
* erasure-coded archival generation "as a direct side-effect of the
  commitment process" (Section 4.4.4) with repair sweeps
  (:mod:`repro.archival`);
* introspective replica management reacting to observed load
  (:mod:`repro.introspect`).

The class implements the :class:`repro.api.backend.Backend` protocol, so
:class:`repro.api.OceanStoreHandle` and both facades run unchanged
against the full distributed machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx

from repro.access.policy import AccessChecker
from repro.api.callbacks import ApiEvent, CallbackRegistry, Notification
from repro.api.backend import UnknownObject
from repro.archival.fragments import encode_archival
from repro.archival.placement import AdministrativeDomain, FragmentPlacer, PlacementError
from repro.archival.reconstruction import FragmentFetcher
from repro.archival.reed_solomon import ReedSolomonCode
from repro.archival.repair import ArchiveIndex, RepairSweeper
from repro.consistency.pbft import CommitCertificate, FaultMode, InnerRing
from repro.consistency.secondary import SecondaryTier, TierMailboxes
from repro.core.config import BYZANTINE_M, DeploymentConfig
from repro.core.server import OceanStoreServer
from repro.crypto.keys import KeyPool
from repro.data.objects import ArchivalReference
from repro.data.update import DataObjectState, Update, UpdateOutcome
from repro.introspect.confidence import ConfidenceEstimator
from repro.introspect.events import Event
from repro.introspect.replica_mgmt import DecisionKind, ReplicaManager
from repro.rings.directory import RingDescriptor, RingDirectory
from repro.rings.provider import RingProvider, RingShard
from repro.rings.sharding import shard_ranges
from repro.routing.plaxton import PlaxtonMesh
from repro.routing.probabilistic import ProbabilisticLocator
from repro.routing.salt import SaltedRouter
from repro.routing.service import LocationService
from repro.sim.failures import FailureInjector
from repro.sim.faults import NetworkFaultInjector
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NodeId, build_transit_stub_topology
from repro.telemetry import Telemetry
from repro.util import serialization
from repro.util.ids import GUID
from repro.util.rng import SeedSequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.manager import RecoveryManager
    from repro.recovery.retry import RetryPolicy
    from repro.rings.handoff import HandoffManager


def serialize_state(state: DataObjectState) -> bytes:
    """Canonical bytes of an object state, for archival encoding.

    Archival forms freeze ciphertext; no keys are involved.
    """
    return serialization.encode(
        {
            "version": state.version,
            "slots": list(state.data.slots),
            "next_block_id": state.data.next_block_id,
            "blocks": {
                str(block_id): _block_to_value(block)
                for block_id, block in state.data.blocks.items()
            },
            "search_cells": list(state.search_cells),
            "retired": sorted(state.data.retired),
        }
    )


def deserialize_state(data: bytes) -> DataObjectState:
    """Inverse of :func:`serialize_state` (used by archive restore)."""
    from repro.data.blocks import CipherObject, DataBlock, IndexBlock

    decoded = serialization.decode(data)
    blocks = {}
    for key, value in decoded["blocks"].items():
        kind, payload = value
        if kind == "data":
            blocks[int(key)] = DataBlock(ciphertext=payload)
        else:
            blocks[int(key)] = IndexBlock(children=tuple(payload))
    data = CipherObject(
        blocks=blocks,
        slots=list(decoded["slots"]),
        next_block_id=decoded["next_block_id"],
        retired=set(decoded["retired"]),
    )
    return DataObjectState(data, decoded["version"], list(decoded["search_cells"]))


def _block_to_value(block) -> tuple:
    from repro.data.blocks import DataBlock

    if isinstance(block, DataBlock):
        return ("data", block.ciphertext)
    return ("index", list(block.children))


class OceanStoreSystem:
    """A full simulated deployment; implements the API backend protocol."""

    def __init__(self, config: DeploymentConfig | None = None) -> None:
        self.config = config or DeploymentConfig()
        seeds = SeedSequence(self.config.seed)
        self.kernel = Kernel()
        #: metrics + causal tracing; the shared DISABLED singleton when
        #: the config leaves telemetry off, so hot paths stay no-op.
        self.telemetry = Telemetry.from_config(
            self.config.telemetry, clock=lambda: self.kernel.now
        )
        if self.telemetry.enabled:
            # Callbacks scheduled while a span is active inherit it, so
            # one client update yields a single causal trace.
            self.kernel.trace_wrapper = self.telemetry.wrap
            if self.config.telemetry.flight_kernel:
                flight = self.telemetry.flight
                self.kernel.event_hook = (
                    lambda kind, time_ms, label: flight.record(
                        "kernel", kind, at=time_ms, callback=label
                    )
                )
        self.graph = build_transit_stub_topology(
            self.config.topology, seeds.derive("topology")
        )
        self.network = Network(self.kernel, self.graph, telemetry=self.telemetry)
        self.injector = FailureInjector(self.kernel, self.network, seeds.derive("failures"))
        #: per-link message fault schedules; attached only when chaos is
        #: enabled so ordinary deployments skip the per-send rule check
        self.net_faults: NetworkFaultInjector | None = None
        if self.config.chaos.enabled:
            self.net_faults = NetworkFaultInjector(rng=seeds.derive("link-faults"))
            self.network.fault_injector = self.net_faults
        self._rng = seeds.derive("system")

        # -- servers -------------------------------------------------------
        nodes = sorted(self.network.nodes())
        # 256-bit RSA: small, because this is a simulation.  Only ring
        # members sign, so a key is minted when first used (DESIGN §23).
        self.identities = KeyPool(nodes, seeds.derive("identities"), bits=256)
        self.servers: dict[NodeId, OceanStoreServer] = {
            node: OceanStoreServer(
                network_id=node, identities=self.identities, telemetry=self.telemetry
            )
            for node in nodes
        }

        # -- data location ---------------------------------------------------
        self.mesh = PlaxtonMesh(
            self.network, seeds.derive("mesh"), telemetry=self.telemetry
        )
        self.mesh.populate(nodes)
        self.probabilistic = ProbabilisticLocator(
            self.network,
            width=4096,
            telemetry=self.telemetry,
        )
        self.router = SaltedRouter(self.mesh)
        self.location = LocationService(
            self.probabilistic, self.router, telemetry=self.telemetry
        )

        # -- consistency ---------------------------------------------------------
        transit_nodes = sorted(
            n for n, d in self.graph.nodes(data=True) if d["kind"] == "transit"
        )
        ring_size = self.config.ring_size
        ring_count = self.config.ring_count
        self.tiers: dict[GUID, SecondaryTier] = {}
        self.tier_mailboxes = TierMailboxes(self.network)
        self._outcomes: dict[bytes, UpdateOutcome] = {}
        #: per-(shard, epoch) commit-certificate reordering buffers; the
        #: epoch in the key is the fence that keeps a retired ring's
        #: certificates from ever reaching delivery
        self._cert_buffer: dict[tuple[int, int], dict[int, CommitCertificate]] = {}
        self._next_cert_seq: dict[tuple[int, int], int] = {}
        self._object_seq: dict[GUID, int] = {}

        # The GUID space is range-partitioned over ``ring_count``
        # independent inner rings, each on its own slice of the transit
        # core; the directory publishes who owns what.  A single-ring
        # deployment builds exactly the pre-sharding structure: one ring
        # on the first ring_size transit nodes, a mesh-less directory,
        # and a provider that resolves without lookups.
        ranges = shard_ranges(ring_count)
        self.ring_directory = RingDirectory(
            self.network,
            mesh=self.mesh if ring_count > 1 else None,
            telemetry=self.telemetry,
        )
        shards: list[RingShard] = []
        for shard_id in range(ring_count):
            members = transit_nodes[
                shard_id * ring_size : (shard_id + 1) * ring_size
            ]
            ring = self.build_ring(shard_id, 0, members)
            shards.append(
                RingShard(
                    shard_id=shard_id,
                    range=ranges[shard_id],
                    epoch=0,
                    ring=ring,
                    members=list(members),
                )
            )
            self.ring_directory.install(
                RingDescriptor(
                    shard_id=shard_id,
                    range=ranges[shard_id],
                    epoch=0,
                    members=tuple(members),
                )
            )
        self.rings = RingProvider(shards, self.ring_directory)

        # -- access control -----------------------------------------------------
        self.access = AccessChecker()

        # -- archival ---------------------------------------------------------------
        self.archival_code = ReedSolomonCode(
            k=self.config.archival_k, n=self.config.archival_n
        )
        self.archive_index = ArchiveIndex()
        self.sweeper = RepairSweeper(
            self.network,
            {node: server.fragments for node, server in self.servers.items()},
            self.archive_index,
            telemetry=self.telemetry,
        )
        self.fetcher = FragmentFetcher(
            self.kernel,
            self.network,
            {node: server.fragments for node, server in self.servers.items()},
            seeds.derive("fetch"),
        )
        self.placer = FragmentPlacer(
            self._administrative_domains(), telemetry=self.telemetry
        )
        #: archival GUID bookkeeping per (object, version)
        self._archival_refs: dict[tuple[GUID, int], ArchivalReference] = {}

        # -- introspection ---------------------------------------------------------
        self.replica_manager = ReplicaManager(
            window_ms=self.config.replica_window_ms,
            overload_requests=self.config.replica_overload_requests,
            pick_nearby=self._closest_non_replica,
        )
        #: "continuous confidence estimation on its own optimizations"
        #: (Section 4.7.2): replica creations are gated and scored.
        self.confidence = ConfidenceEstimator()
        self._callbacks = CallbackRegistry()

        # -- self-healing recovery (detection + soft-state repair) ----------
        #: None unless ``config.recovery.enabled``: a disabled deployment
        #: derives no recovery RNG stream, schedules no heartbeats, and
        #: sends no repair traffic, so its trace stays byte-identical.
        self.recovery: RecoveryManager | None = None
        if self.config.recovery.enabled:
            from repro.recovery.manager import RecoveryManager as _RecoveryManager

            self.recovery = _RecoveryManager(
                self.kernel,
                self.network,
                self.mesh,
                self.router,
                self.probabilistic,
                self.tiers,
                observer=self.ring_nodes[0],
                rng=seeds.derive("recovery"),
                config=self.config.recovery,
                replica_manager=self.replica_manager,
                telemetry=self.telemetry,
            )
            self.recovery.start()

        # -- ring-membership handoff ----------------------------------------
        #: deterministic election + state transfer when a ring member is
        #: suspected dead; only sharded deployments with the failure
        #: detector running can observe member death and react
        self.handoff: "HandoffManager | None" = None
        if ring_count > 1 and self.recovery is not None:
            from repro.rings.handoff import HandoffManager as _HandoffManager

            self.handoff = _HandoffManager(self)
            self.handoff.wire(self.recovery.detector)

        # -- utility-model accounting (Section 1.1) -------------------------
        from repro.core.accounting import UtilityLedger

        self.ledger = UtilityLedger()
        #: object GUID -> owning principal's GUID, for resource accounting
        #: ("facilitates access checks and resource accounting", §4.1)
        self.object_owners: dict[GUID, GUID] = {}

    # Shard-0 aliases for the long tail of callers that predate sharding.
    # They read the provider, so a shard-0 membership handoff needs no
    # second copy kept in step.

    @property
    def ring(self) -> InnerRing:
        return self.rings.shards[0].ring

    @property
    def ring_nodes(self) -> list[NodeId]:
        return self.rings.shards[0].members

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------

    def create_object(self, object_guid: GUID) -> None:
        if object_guid in self.tiers:
            return
        started = self.kernel.now
        shard = self.rings.resolve(object_guid)
        for node in shard.members:
            self.servers[node].get_or_create_object(object_guid)
            self.location.add_replica(node, object_guid)
            if self.recovery is not None:
                self.recovery.register_publication(node, object_guid)
        tier = SecondaryTier(
            self.network,
            object_guid,
            root_contact=shard.contact,
            rng=self._rng,
            max_fanout=self.config.dissemination_fanout,
            telemetry=self.telemetry,
            mailboxes=self.tier_mailboxes,
        )
        self.tiers[object_guid] = tier
        ring_hosts = self.rings.all_ring_nodes()
        candidates = [
            n for n in sorted(self.network.nodes()) if n not in ring_hosts
        ]
        chosen = self._rng.sample(
            candidates, min(self.config.secondaries_per_object, len(candidates))
        )
        for node in chosen:
            tier.add_replica(node)
            self.location.add_replica(node, object_guid)
            self.replica_manager.register_replica(object_guid, node)
            if self.recovery is not None:
                self.recovery.register_publication(node, object_guid)
        self._object_seq[object_guid] = 0
        self.probabilistic.converge()
        tel = self.telemetry
        if tel.enabled:
            tel.observe("create", self.kernel.now - started, ring=shard.shard_id)

    def read_state(
        self,
        object_guid: GUID,
        allow_tentative: bool,
        min_version: int,
        client_node: NodeId | None = None,
    ) -> DataObjectState:
        if object_guid not in self.tiers:
            raise UnknownObject(f"no such object: {object_guid}")
        client = client_node if client_node is not None else self.ring_nodes[0]
        tel = self.telemetry
        started = self.kernel.now
        if tel.enabled:
            tel.count("reads_total", tentative="yes" if allow_tentative else "no")
        with tel.span("read", client=client):
            result = self.location.locate(client, object_guid)
        state = None
        if result.found and result.replica_node is not None:
            state = self._state_at(object_guid, result.replica_node, allow_tentative)
            if state is not None:
                self._record_read(object_guid, result.replica_node, client, state)
        if state is None or state.version < min_version:
            # Fall back to the authoritative primary tier, trying the
            # owning ring's replicas in order (some may be crashed or
            # faulty).
            for primary in self.rings.members_for(object_guid):
                fallback = self._state_at(object_guid, primary, allow_tentative=False)
                if fallback is None:
                    continue
                self._record_read(object_guid, primary, client, fallback)
                if state is None or fallback.version > state.version:
                    state = fallback
                if state.version >= min_version:
                    break
        ok = state is not None and state.version >= min_version
        if tel.enabled:
            tel.observe(
                "read",
                self.kernel.now - started,
                ring=self.rings.shard_of(object_guid).shard_id,
                result="ok" if ok else "error",
            )
        if not ok:
            if state is None:
                raise UnknownObject(f"no replica holds object {object_guid}")
            raise UnknownObject(
                f"object {object_guid} not yet at version {min_version}"
            )
        return state

    def read_degraded(
        self,
        object_guid: GUID,
        allow_tentative: bool,
        min_version: int,
        client_node: NodeId | None = None,
        retry: RetryPolicy | None = None,
    ) -> DataObjectState:
        """A deadline-budgeted read down the degradation ladder.

        Rungs, in order of increasing desperation:

        1. **local** -- one ordinary two-tier locate from the client
           (nearby cached replica, then the salted global mesh);
        2. **salted-retry** -- bounded backoff-and-retry through the
           salted roots, letting the simulation (and any recovery
           repair loops) run during each backoff;
        3. **tentative** -- direct read of a live secondary replica's
           tentative state, when the session allows tentative data;
        4. **archival** -- last resort: reconstruct the newest archived
           version satisfying the session floor from m-of-n fragments.

        Unlike :meth:`read_state`, this path never short-circuits to the
        primary tier by fiat: the ring is reachable only through the
        location infrastructure, which is exactly what a wide-area
        client experiences when pointer state is damaged.
        """
        from repro.recovery.retry import RetryPolicy as _RetryPolicy

        if object_guid not in self.tiers:
            raise UnknownObject(f"no such object: {object_guid}")
        retry = retry if retry is not None else _RetryPolicy()
        client = client_node if client_node is not None else self.ring_nodes[0]
        deadline = self.kernel.now + retry.deadline_ms
        tel = self.telemetry
        started = self.kernel.now
        shard_id = self.rings.shard_of(object_guid).shard_id

        def rung(name: str, result: str, **detail) -> None:
            if not tel.enabled:
                return
            tel.record(
                "recovery",
                "ladder_rung",
                rung=name,
                result=result,
                object=object_guid,
                **detail,
            )
            elapsed = self.kernel.now - started
            # Per-rung ladder timing: how deep desperation went, and how
            # long each rung cost, in simulated time.  Its sample counts
            # are the rung tallies.
            tel.observe(
                "read_degraded.rung",
                elapsed,
                ring=shard_id,
                rung=name,
                result=result,
            )
            if result == "hit":
                tel.observe("read_degraded", elapsed, ring=shard_id, rung=name)

        def usable(node: NodeId) -> DataObjectState | None:
            state = self._state_at(object_guid, node, allow_tentative)
            if state is None or state.version < min_version:
                return None
            self._record_read(object_guid, node, client, state)
            return state

        # Rung 1: the ordinary two-tier lookup (local/cached replica).
        with tel.span("read.degraded", client=client):
            result = self.location.locate(client, object_guid)
        state = usable(result.replica_node) if result.found else None
        if state is not None:
            rung("local", "hit", node=result.replica_node)
            return state
        rung("local", "miss")

        # Rung 2: salted locate retries under the backoff schedule; the
        # settle between attempts is where detector + repair loops run.
        for attempt, delay in enumerate(retry.backoff_delays()):
            if self.kernel.now + delay > deadline:
                break
            self.settle(delay)
            salted = self.router.locate(client, object_guid)
            if salted.found:
                state = usable(salted.replica_node)
                if state is not None:
                    rung(
                        "salted-retry",
                        "hit",
                        attempt=attempt,
                        salts_tried=salted.salts_tried,
                    )
                    return state
                rung("salted-retry", "stale", attempt=attempt)
            else:
                rung(
                    "salted-retry",
                    "miss",
                    attempt=attempt,
                    failed_salts=",".join(
                        f"{f.salt}:{f.reason}" for f in salted.failed_salts
                    ),
                )

        # Rung 3: tentative read from any live secondary replica.
        if allow_tentative:
            tier = self.tiers[object_guid]
            for node in sorted(tier.replicas):
                if self.network.is_down(node):
                    continue
                state = tier.replicas[node].tentative_state()
                if state.version >= min_version:
                    rung("tentative", "hit", node=node)
                    self._record_read(object_guid, node, client, state)
                    return state
            rung("tentative", "miss")

        # Rung 4: archival reconstruction of the newest adequate version.
        versions = sorted(
            version
            for (guid, version) in self._archival_refs
            if guid == object_guid and version >= min_version
        )
        for version in reversed(versions):
            try:
                state = self.restore_from_archive(
                    object_guid, version, client_node=client
                )
            except UnknownObject:
                continue
            rung("archival", "hit", version=version)
            return state
        rung("archival", "miss")
        if tel.enabled:
            tel.observe(
                "read_degraded",
                self.kernel.now - started,
                ring=shard_id,
                rung="exhausted",
            )
        raise UnknownObject(
            f"degraded read of {object_guid} exhausted its ladder within "
            f"{retry.deadline_ms:.0f}ms"
        )

    def submit_update(self, client_node: NodeId, update: Update) -> None:
        """The Figure 5 path: direct to the primary tier, plus tentative
        spread through random secondary replicas."""
        if update.object_guid not in self.tiers:
            raise UnknownObject(f"no such object: {update.object_guid}")
        tel = self.telemetry
        if tel.enabled:
            tel.count("updates_submitted_total")
        shard = self.rings.resolve(update.object_guid, client=client_node)
        if tel.enabled:
            # The user-facing update clock: starts at first submission
            # (retries keep the original start), stops at commit delivery
            # -- keyed by update id, so it survives shard resolution and
            # mid-flight membership handoffs.
            tel.slo.begin("update", update.update_id, ring=shard.shard_id)
        with tel.span("update.submit", client=client_node):
            if shard.transitioning and self.handoff is not None:
                # Membership handoff in flight: the update parks in the
                # manager and is re-driven into the new epoch's ring.
                self.handoff.queue_update(shard.shard_id, client_node, update)
            else:
                shard.ring.submit(client_node, update)
            self.tiers[update.object_guid].submit_tentative(client_node, update)

    def read_version(self, object_guid: GUID, version: int) -> DataObjectState:
        """A permanent read-only version: from the primary's version log
        if retained, else reconstructed from archival fragments."""
        from repro.data.version_log import VersionNotFound

        contact = self.rings.primary_for(object_guid)
        primary = self.servers[contact].objects.get(object_guid)
        if primary is not None:
            try:
                return primary.log.version(version).state
            except VersionNotFound:
                pass
        return self.restore_from_archive(object_guid, version)

    def callbacks(self) -> CallbackRegistry:
        return self._callbacks

    def settle(self, window_ms: float = 30_000.0) -> None:
        """Run the simulation until in-flight protocol work completes."""
        self.kernel.run(until=self.kernel.now + window_ms)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health_snapshot(self) -> dict:
        """One JSON blob of control-plane health: per-shard ring state,
        failure-detector suspicion, and handoff progress.

        The ``repro health`` CLI prints this; it is the observation input
        a future autoscaling loop (ROADMAP item 5) would act on.
        """
        suspected: list[NodeId] = []
        suspicion: dict[str, int] = {}
        if self.recovery is not None:
            detector = self.recovery.detector
            suspected = sorted(detector.suspected)
            suspicion = {
                str(node): rounds
                for node, rounds in sorted(detector.suspicion.items())
                if rounds > 0
            }
        shards = []
        for shard in self.rings.shards:
            dead = sorted(
                n
                for n in shard.members
                if self.network.is_down(n) or n in suspected
            )
            shards.append(
                {
                    "shard": shard.shard_id,
                    "epoch": shard.epoch,
                    "range": shard.range.describe(),
                    "members": list(shard.members),
                    "committed": len(shard.ring.committed_order),
                    "transitioning": shard.transitioning,
                    "degraded": bool(dead),
                    "degraded_members": dead,
                    "retired_epochs": [e for e, _ in shard.retired],
                }
            )
        handoffs: dict[str, object] = {
            "enabled": self.handoff is not None,
            "completed": 0,
            "retries": 0,
            "abandoned": 0,
            "active": [],
        }
        if self.handoff is not None:
            handoffs.update(
                completed=self.handoff.stats_handoffs,
                retries=self.handoff.stats_retries,
                abandoned=self.handoff.stats_abandoned,
                active=self.handoff.active_handoffs(),
            )
        return {
            "time_ms": self.kernel.now,
            "ring_count": self.rings.ring_count,
            "sharded": self.rings.sharded,
            "shards": shards,
            "fenced_commits": self.rings.stats_fenced_commits,
            "down_nodes": sorted(
                n for n in self.network.nodes() if self.network.is_down(n)
            ),
            "suspected": suspected,
            "suspicion_rounds": suspicion,
            "handoffs": handoffs,
        }

    # ------------------------------------------------------------------
    # Internal update-path plumbing
    # ------------------------------------------------------------------

    def _authorize(self, update: Update) -> bool:
        """Honest servers verify writes against the ACL (Section 4.2).

        Objects without an installed policy accept any correctly signed
        write (the simulation default).
        """
        if not self.access.has_policy(update.object_guid):
            return True
        return self.access.check_write(
            update.object_guid, update.client_key, update.verify_signature()
        ).allowed

    def _on_execute(self, replica, seq: int, update: Update) -> None:
        server = self.servers[replica.network_id]
        obj = server.get_or_create_object(update.object_guid)
        outcome = obj.apply_update(update)
        # Honest replicas compute identical outcomes; record the first.
        self._outcomes.setdefault(update.update_id, outcome)
        # The shard's contact archives each version as it executes it:
        # a commit certifies at the first replica to execute it, which
        # need not be the contact whose copy ``archive_object`` encodes.
        if (
            outcome.committed
            and self.config.archive_every_commit
            and replica.network_id == self.rings.primary_for(update.object_guid)
            and replica.ring is self.rings.ring_for(update.object_guid)
        ):
            self.archive_object(update.object_guid)

    def build_ring(
        self, shard_id: int, epoch: int, members: list[NodeId]
    ) -> InnerRing:
        """Build a shard's ring on ``members`` and attach it to the
        system's commit plumbing.

        Used at construction (epoch 0 for every shard) and by the
        handoff manager when it installs a replacement ring; the
        certificate callback closes over ``(shard_id, epoch)`` so
        delivery is epoch-fenced per shard.
        """
        ring = InnerRing(
            self.kernel,
            self.network,
            members,
            [self.servers[n].principal for n in members],
            m=BYZANTINE_M,
            telemetry=self.telemetry,
            batching=self.config.batching,
        )
        ring.authorizer = self._authorize
        ring.on_execute(self._on_execute)
        key = (shard_id, epoch)
        self._cert_buffer[key] = {}
        self._next_cert_seq[key] = 0
        ring.on_certificate(
            lambda certificate: self._on_certificate(shard_id, epoch, certificate)
        )
        return ring

    def _on_certificate(
        self, shard_id: int, epoch: int, certificate: CommitCertificate
    ) -> None:
        """Serialized commits processed in per-shard sequence order.

        The epoch fence runs first: a certificate produced by a ring
        that has since been retired by a membership handoff is dropped
        (and counted), never delivered.
        """
        if not self.rings.fence_check(shard_id, epoch):
            if self.telemetry.enabled:
                self.telemetry.record(
                    "rings", "fenced_certificate", shard=shard_id, epoch=epoch
                )
            return
        key = (shard_id, epoch)
        buffer = self._cert_buffer[key]
        buffer[certificate.seq] = certificate
        while self._next_cert_seq[key] in buffer:
            cert = buffer.pop(self._next_cert_seq[key])
            self._next_cert_seq[key] += 1
            self._deliver_commit(cert)

    def _deliver_commit(self, certificate: CommitCertificate) -> None:
        # A batched certificate carries an ordered membership; each member
        # flows through the per-update dissemination push, callbacks, and
        # archival exactly as if it had its own agreement round.
        for update in certificate.updates:
            self._deliver_committed_update(update)

    def _deliver_committed_update(self, update: Update) -> None:
        guid = update.object_guid
        outcome = self._outcomes.get(update.update_id)
        tier = self.tiers.get(guid)
        if tier is not None:
            object_seq = self._object_seq[guid]
            self._object_seq[guid] = object_seq + 1
            tier.push_committed(object_seq, update)
        committed = outcome is not None and outcome.committed
        tel = self.telemetry
        if tel.enabled:
            tel.slo.end(
                update.update_id, committed="yes" if committed else "no"
            )
        self._callbacks.notify(
            Notification(
                event=ApiEvent.UPDATE_COMMITTED if committed else ApiEvent.UPDATE_ABORTED,
                object_guid=guid,
                update_id=update.update_id,
                version=outcome.new_version if outcome else None,
            )
        )
        if committed:
            assert outcome is not None
            self._callbacks.notify(
                Notification(
                    event=ApiEvent.NEW_VERSION,
                    object_guid=guid,
                    version=outcome.new_version,
                )
            )

    def _state_at(
        self, object_guid: GUID, node: NodeId, allow_tentative: bool
    ) -> DataObjectState | None:
        if self.network.is_down(node):
            return None
        ring_replica = self.rings.replica_on(node)
        if ring_replica is not None:
            if ring_replica.fault_mode is FaultMode.SILENT:
                return None  # a crashed server answers nothing
            obj = self.servers[node].objects.get(object_guid)
            return obj.active if obj is not None else None
        tier = self.tiers.get(object_guid)
        if tier is not None and node in tier.replicas:
            replica = tier.replicas[node]
            if allow_tentative:
                return replica.tentative_state()
            return replica.committed_state
        return None

    def assign_owner(self, object_guid: GUID, owner_guid: GUID) -> None:
        """Record who pays for this object's resource consumption."""
        self.object_owners[object_guid] = owner_guid

    def _record_read(
        self,
        object_guid: GUID,
        replica_node: NodeId,
        client: NodeId,
        served: DataObjectState,
    ) -> None:
        """Account one read of ``served`` from ``replica_node``: the
        owner is billed for the bytes of the state actually served."""
        self.replica_manager.record_request(
            object_guid, replica_node, client, now_ms=self.kernel.now
        )
        owner = self.object_owners.get(object_guid)
        if owner is not None:
            self.ledger.meter.record_transfer(owner, replica_node, served.size_bytes)
        server = self.servers.get(replica_node)
        if server is not None:
            server.introspection.observe(
                Event(
                    kind="access",
                    node=replica_node,
                    time_ms=self.kernel.now,
                    subject=object_guid,
                )
            )

    def _closest_non_replica(self, client: NodeId) -> NodeId:
        """Placement hook for new replicas: nearest node to the load."""
        return min(
            (n for n in self.network.nodes() if not self.network.is_down(n)),
            key=lambda n: (self.network.latency_ms(client, n), n),
        )

    # ------------------------------------------------------------------
    # Archival
    # ------------------------------------------------------------------

    def _administrative_domains(self) -> list[AdministrativeDomain]:
        """Failure-correlation groups for fragment dispersal (Section 4.5).

        Each stub cluster is one domain (a site that fails together); the
        transit core -- "high-bandwidth, high-connectivity" -- forms a
        more reliable domain of its own.
        """
        transit = sorted(
            n for n, d in self.graph.nodes(data=True) if d["kind"] == "transit"
        )
        domains = [
            AdministrativeDomain("transit-core", transit, reliability=0.98)
        ]
        # Stub nodes were generated contiguously per cluster; group by the
        # cluster they attach to via graph structure (connected stub
        # components once transit nodes are removed).
        stub_graph = self.graph.subgraph(
            n for n, d in self.graph.nodes(data=True) if d["kind"] == "stub"
        )
        for i, component in enumerate(sorted(nx.connected_components(stub_graph), key=min)):
            domains.append(
                AdministrativeDomain(
                    f"stub-{i}", sorted(component), reliability=0.9
                )
            )
        return domains

    def archive_object(self, object_guid: GUID) -> ArchivalReference | None:
        """Erasure-code the current committed version and disseminate
        across administrative domains.

        "the inner tier of servers ... generate encoded, archival
        fragments and distribute them widely" (Section 4.4.4); dispersal
        avoids concentrating fragments in one failure domain
        (Section 4.5).
        """
        primary = self.servers[self.rings.primary_for(object_guid)].objects.get(
            object_guid
        )
        if primary is None:
            return None
        version = primary.version
        key = (object_guid, version)
        if key in self._archival_refs:
            return self._archival_refs[key]
        data = serialize_state(primary.active)
        tel = self.telemetry
        if tel.enabled:
            tel.record(
                "archival",
                "encode",
                object=object_guid,
                version=version,
                bytes=len(data),
            )
        with tel.span("archival.archive", version=version):
            archival = encode_archival(data, self.archival_code, telemetry=tel)
            owner = self.object_owners.get(object_guid)
            try:
                plan = self.placer.plan(len(archival.fragments))
                for fragment in archival.fragments:
                    target = plan.assignments[fragment.index]
                    self.servers[target].fragments.put(fragment)
                    if owner is not None:
                        self.ledger.meter.record_storage(
                            owner, target, float(len(fragment.payload))
                        )
            except PlacementError:
                # Degenerate deployments (fewer servers than fragments):
                # fall back to round-robin over live nodes.
                nodes = [
                    n for n in sorted(self.network.nodes())
                    if not self.network.is_down(n)
                ]
                for i, fragment in enumerate(archival.fragments):
                    self.servers[nodes[i % len(nodes)]].fragments.put(fragment)
        self.archive_index.register(archival, self.archival_code)
        reference = ArchivalReference(
            version=version,
            archival_guid=archival.archival_guid,
            fragment_count=archival.n,
        )
        self._archival_refs[key] = reference
        primary.record_archival(reference)
        return reference

    def restore_from_archive(
        self, object_guid: GUID, version: int, client_node: NodeId | None = None
    ) -> DataObjectState:
        """Rebuild a version purely from archival fragments."""
        reference = self._archival_refs.get((object_guid, version))
        if reference is None:
            raise UnknownObject(
                f"version {version} of {object_guid} was never archived"
            )
        client = client_node if client_node is not None else self.ring_nodes[0]
        if self.telemetry.enabled:
            self.telemetry.record(
                "archival", "restore", object=object_guid, version=version
            )
        guid_bytes = reference.archival_guid.to_bytes()
        archival, _ = self.archive_index.objects[guid_bytes]
        with self.telemetry.span("archival.restore", version=version):
            result = self.fetcher.fetch(
                client,
                guid_bytes,
                self.archival_code,
                archival.fragments[0].merkle_root,
                extra=2,
            )
        if not result.success or result.data is None:
            raise UnknownObject(
                f"could not reconstruct {object_guid} v{version} from fragments"
            )
        return deserialize_state(result.data)

    # ------------------------------------------------------------------
    # Introspection-driven optimization
    # ------------------------------------------------------------------

    def run_replica_management(self) -> list:
        """Evaluate load and act on create/eliminate decisions.

        Creations run (and their catch-up anti-entropy settles) before
        eliminations, so a fresh replica never loses its sync partner to
        a simultaneous disuse decision.
        """
        decisions = self.replica_manager.evaluate(self.kernel.now)
        creates = [d for d in decisions if d.kind is DecisionKind.CREATE]
        eliminates = [d for d in decisions if d.kind is DecisionKind.ELIMINATE]
        for decision in creates:
            tier = self.tiers.get(decision.object_guid)
            if tier is None:
                continue
            target = decision.target_node
            if (
                target is None
                or target in tier.replicas
                or target in self.rings.all_ring_nodes()
            ):
                continue
            if not self.confidence.should_act("replica-create"):
                continue  # past creations were harmful; hold off
            # Score the placement: how far did the hot spot have to reach
            # before, vs after the new replica exists.
            metric_before = self.network.latency_ms(target, decision.replica_node)
            action = self.confidence.begin_action("replica-create", metric_before)
            replica = tier.add_replica(target)
            self.location.add_replica(target, decision.object_guid)
            self.replica_manager.register_replica(decision.object_guid, target)
            if self.recovery is not None:
                self.recovery.register_publication(target, decision.object_guid)
            partners = [n for n in tier.replicas if n != target]
            if partners:
                replica.start_anti_entropy(partners[0])
            self.confidence.complete_action(
                action, self.network.latency_ms(target, target)
            )
        # Let freshly created replicas finish their catch-up exchanges
        # before their partners can be eliminated or reads arrive.
        self.settle(10_000.0)
        for decision in eliminates:
            tier = self.tiers.get(decision.object_guid)
            if tier is None or decision.replica_node not in tier.replicas:
                continue
            if len(tier.replicas) <= 1:
                continue
            tier.remove_replica(decision.replica_node)
            self.location.remove_replica(decision.replica_node, decision.object_guid)
            self.replica_manager.forget_replica(
                decision.object_guid, decision.replica_node
            )
            if self.recovery is not None:
                # unpublish already scrubbed the live route's pointers
                self.recovery.forget_publication(
                    decision.replica_node, decision.object_guid, scrub=False
                )
        self.probabilistic.converge()
        return decisions

    def run_epidemic_rounds(self, rounds: int = 2) -> None:
        for _ in range(rounds):
            for tier in self.tiers.values():
                tier.epidemic_round()
            self.settle(5_000.0)
