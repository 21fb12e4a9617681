"""The four fixed-work workloads, their inputs and their output oracles.

Each workload builds one deployment through the public façade
(``repro.core``, ``repro.sim``, ``repro.api``, ``repro.telemetry``), drives
a fixed number of operations against it, and then checks what the system
stored against its own record of what was acknowledged.

What is fixed and what the seed varies: the deployment (topology, ring
placement, configuration) is part of a workload's definition; the seed
draws the inputs -- payload bytes, the Zipf ranking and draws, which stub
nodes the clients attach to, the clients' keys, and the fault instant.
Operation counts follow from ``--seconds`` alone, so for a given seed and
``--seconds`` every simulated-clock number repeats exactly.

Writes are issued open loop in *simulated* time (one due every ``gap``
sim-ms whatever the system does) with at most one update in flight per
object, and are timed from the instant they were due.  A submit that
aborts is submitted again, from a read floored at the last acknowledged
version, until it commits: an overwrite only counts as failed if it never
commits before the drain ends.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field

import networkx as nx

from repro.api import (
    ApiEvent,
    ObjectHandle,
    OceanStoreHandle,
    Session,
    SessionGuarantee,
    UnknownObject,
)
from repro.core import (
    ChaosConfig,
    DeploymentConfig,
    OceanStoreSystem,
    RecoveryConfig,
    make_client,
)
from repro.sim import TopologyParams
from repro.telemetry import TelemetryConfig

#: the deployment seed is part of each workload's definition, not an input
DEPLOYMENT_SEED = 2000
SMALL = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
LARGE = TopologyParams(transit_nodes=8, stubs_per_transit=3, nodes_per_stub=6)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


@dataclass
class Obj:
    """One object, its owner, and what the benchmark knows was committed."""

    owner: OceanStoreHandle
    handle: ObjectHandle
    session: Session
    version: int = 0
    payload: bytes = b""


@dataclass
class Write:
    obj: Obj
    payload: bytes
    due_ms: float
    blocking: bool = False
    #: version the submit in flight commits as, if it commits
    expect: int = 0
    attempts: int = 0


@dataclass
class WriteStats:
    #: (instant the overwrite fell due, instant its commit callback arrived)
    commits: list[tuple[float, float]] = field(default_factory=list)
    write_call_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    aborted_submits: int = 0
    #: notifications that matched no submit the benchmark has in flight
    stray_notifications: int = 0


class WriteStream:
    """Issues overwrites and matches commit/abort callbacks to them.

    Callbacks are matched by object and expected version, never by the
    order they arrive in.
    """

    def __init__(self, system: OceanStoreSystem, recorder=None) -> None:
        self.system = system
        self.kernel = system.kernel
        self.recorder = recorder
        self.stats = WriteStats()
        self.inflight: dict[object, Write] = {}
        self.queues: dict[object, deque[Write]] = {}
        self.next_op_id = 1
        registry = system.callbacks()
        registry.register(ApiEvent.UPDATE_COMMITTED, self._on_commit)
        registry.register(ApiEvent.UPDATE_ABORTED, self._on_abort)

    def reset_stats(self) -> None:
        self.stats = WriteStats()

    # -- callbacks --------------------------------------------------------

    def _on_commit(self, note) -> None:
        op = self.inflight.get(note.object_guid)
        if op is None or note.version != op.expect:
            self.stats.stray_notifications += 1
            return
        del self.inflight[note.object_guid]
        self.stats.commits.append((op.due_ms, self.kernel.now))
        op.obj.version = note.version
        op.obj.payload = op.payload
        op.obj.session.record_write(note.object_guid, note.version)

    def _on_abort(self, note) -> None:
        op = self.inflight.pop(note.object_guid, None)
        if op is None:
            self.stats.stray_notifications += 1
            return
        self.stats.aborted_submits += 1
        op.attempts += 1
        if not op.blocking:
            self.queues[note.object_guid].appendleft(op)

    # -- issuing ----------------------------------------------------------

    def tag(self) -> None:
        """Give the client operation about to be issued its own span id."""
        if self.recorder is not None:
            self.recorder.begin_op(self.next_op_id)
        self.next_op_id += 1

    def schedule(self, obj: Obj, payload: bytes) -> None:
        """An overwrite falls due now; it is submitted once its object is idle."""
        self.stats.attempted += 1
        self.queues.setdefault(obj.handle.guid, deque()).append(
            Write(obj, payload, due_ms=self.kernel.now)
        )

    def pump(self) -> None:
        """Submit the oldest due overwrite of every idle object."""
        for guid, queue in self.queues.items():
            if queue and guid not in self.inflight:
                self._submit(queue.popleft())
        if self.recorder is not None:
            self.recorder.begin_op(0)

    def _submit(self, op: Write) -> None:
        self.tag()
        obj = op.obj
        # As client.write does, the first attempt builds on whatever the
        # nearest replica serves; a retry insists on the version this
        # client last saw acknowledged.
        session = obj.session if op.attempts else None
        builder = obj.owner.update_builder(obj.handle, session).guard_version()
        for slot in range(len(builder.expected.data.slots)):
            builder.delete(slot)
        builder.append(op.payload)
        op.expect = builder.expected.version + 1
        self.inflight[obj.handle.guid] = op
        obj.owner.submit(obj.handle, builder, wait=False)

    def write_blocking(self, obj: Obj, payload: bytes) -> bool:
        """One ``client.write`` call, which returns after the settle window."""
        self.tag()
        self.stats.attempted += 1
        started = self.kernel.now
        self.inflight[obj.handle.guid] = Write(
            obj, payload, due_ms=started, blocking=True, expect=obj.version + 1
        )
        result = obj.owner.write(obj.handle, payload)
        self.stats.write_call_ms.append(self.kernel.now - started)
        self.inflight.pop(obj.handle.guid, None)
        if self.recorder is not None:
            self.recorder.begin_op(0)
        return result.committed

    def busy(self) -> bool:
        return bool(self.inflight) or any(self.queues.values())

    def drain(self, gap_ms: float, max_ticks: int = 240) -> None:
        """Keep the schedule's cadence until nothing is due or in flight."""
        for _ in range(max_ticks):
            if not self.busy():
                break
            self.pump()
            self.system.settle(gap_ms)

    def unfinished(self) -> int:
        return len(self.inflight) + sum(len(q) for q in self.queues.values())


def traffic(system: OceanStoreSystem) -> dict[str, tuple[int, int]]:
    """(messages, bytes) per subsystem from the network's phase ledger."""
    totals: dict[str, tuple[int, int]] = {}
    for subsystem, phases in system.network.phase_report().items():
        totals[subsystem] = (
            sum(p["messages"] for p in phases.values()),
            sum(p["bytes"] for p in phases.values()),
        )
    return totals


class Workload:
    """Set-up, timed phase, oracle and result collection shared by all four."""

    name = ""
    topology = SMALL
    #: Clients attach at every stub site (a connected cluster of stub
    #: nodes); the seed picks which nodes of the site.  Commit latency is a
    #: function of the client's home, and homes drawn from the whole
    #: topology moved its median by 10-18 % from seed to seed.
    clients_per_site = 2
    payload_bytes = 512
    OBJECTS = 32
    #: sim-ms after the last commit for dissemination pushes to land
    TAIL_MS = 5_000.0

    def __init__(
        self, seed: int, seconds: float, telemetry: bool = True, recorder=None
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.telemetry = telemetry
        self.recorder = recorder
        self.failures: list[str] = []
        self.failed_ops = 0
        #: workload-specific results: simulated-clock values, exact counts
        #: (0 where a workload has nothing to report)
        self.extra_sim: dict[str, float] = {"failover_sim_ms": 0.0}
        self.extra_counts: dict[str, int] = {
            "api.stale_readbacks": 0,
            "archival.restore_failed": 0,
        }
        self.read_sim_ms: list[float] = []
        self.reads_attempted = 0

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"oceanbench:{self.name}:{self.seed}:{purpose}")

    def scaled(self, per_second: float, minimum: int) -> int:
        return max(minimum, round(per_second * self.seconds))

    # -- set-up -----------------------------------------------------------

    def config(self) -> DeploymentConfig:
        raise NotImplementedError

    def object_count(self) -> int:
        return self.OBJECTS

    def setup(self) -> None:
        self.system = OceanStoreSystem(self.config())
        self.stream = WriteStream(self.system, self.recorder)
        rng = self.rng("clients")
        graph = self.system.graph
        stubs = graph.subgraph(n for n, d in graph.nodes(data=True) if d["kind"] == "stub")
        homes = [
            home
            for site in sorted(nx.connected_components(stubs), key=min)
            for home in rng.sample(sorted(site), self.clients_per_site)
        ]
        self.clients = [
            make_client(
                self.system, f"client-{i}", home_node=home, seed=rng.getrandbits(32)
            )
            for i, home in enumerate(homes)
        ]
        sessions = [
            c.open_session(SessionGuarantee.READ_YOUR_WRITES) for c in self.clients
        ]
        self.objects = []
        for i in range(self.object_count()):
            k = i % len(self.clients)
            owner = self.clients[k]
            self.objects.append(
                Obj(owner, owner.create_object(f"object-{i}"), sessions[k])
            )
        self.payloads = self.rng("payloads")
        self.grant_readers()
        # Every object gets its first version here, so each timed write is
        # an overwrite.
        for obj in self.objects:
            self.stream.schedule(obj, self.payload())
            self.stream.pump()
            self.system.settle(100.0)
        self.stream.drain(100.0)
        self.system.settle(self.TAIL_MS)
        if self.stream.unfinished() or self.stream.stats.aborted_submits:
            raise RuntimeError(f"{self.name}: initial writes did not all commit")
        self.stream.reset_stats()

    def grant_readers(self) -> None:
        """Hook: distribute read keys before the initial writes."""

    def payload(self) -> bytes:
        return self.payloads.randbytes(self.payload_bytes)

    # -- timed phase ------------------------------------------------------

    def run(self) -> None:
        kernel, network = self.system.kernel, self.system.network
        events0, sim0 = kernel.events_executed, kernel.now
        messages0, bytes0 = network.stats_total_messages, network.stats_total_bytes
        dropped0, traffic0 = network.stats_dropped, traffic(self.system)
        locates0, bloom0 = self.locates()
        self.timed()
        locates, bloom = self.locates()
        self.locate_calls, self.bloom_hits = locates - locates0, bloom - bloom0
        self.events = kernel.events_executed - events0
        self.sim_ms = kernel.now - sim0
        self.messages = network.stats_total_messages - messages0
        self.bytes = network.stats_total_bytes - bytes0
        self.dropped = network.stats_dropped - dropped0
        after = traffic(self.system)
        self.traffic = {
            sub: (
                after[sub][0] - traffic0.get(sub, (0, 0))[0],
                after[sub][1] - traffic0.get(sub, (0, 0))[1],
            )
            for sub in after
        }

    def locates(self) -> tuple[int, int]:
        """(locate calls, answered by the Bloom tier) since the deployment began."""
        location = self.system.location
        hits = location.stats_probabilistic_hits
        return hits + location.stats_global_hits + location.stats_misses, hits

    def timed(self) -> None:
        raise NotImplementedError

    # -- oracle -----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def oracle(self, sabotage: bool = False) -> None:
        """Check stored state against the record of acknowledged writes.

        An acknowledged write that cannot be read back is an oracle
        failure.  A write that never committed is a failed operation but
        not an oracle failure; it is counted by :meth:`results`.
        """
        if sabotage:
            first = self.objects[0]
            first.payload = bytes([first.payload[0] ^ 0xFF]) + first.payload[1:]
        stats = self.stream.stats
        if stats.stray_notifications:
            self.fail(f"{stats.stray_notifications} commit/abort callbacks matched no submit")
        ring = self.system.ring
        network = self.system.network
        live = [r for r in ring.replicas if not network.is_down(r.network_id)]
        executed: dict[int, bytes] = {}
        for replica in live:
            for seq, digest in replica.executed_by_seq.items():
                if executed.setdefault(seq, digest) != digest:
                    self.fail(f"replicas disagree on the update executed at seq {seq}")
        stale = 0
        for obj in self.objects:
            guid = obj.handle.guid
            for replica in live:
                held = self.system.servers[replica.network_id].objects[guid].version
                if held != obj.version:
                    self.fail(
                        f"{guid}: replica {replica.index} at v{held}, "
                        f"acknowledged v{obj.version}"
                    )
            if obj.owner.read(obj.handle, obj.session) != obj.payload:
                self.fail(f"{guid}: read-back differs from the acknowledged payload")
            if obj.owner.read(obj.handle) != obj.payload:
                stale += 1
        self.extra_counts["api.stale_readbacks"] = stale
        self.check_more()

    def check_more(self) -> None:
        """Hook: workload-specific checks."""

    # -- results ----------------------------------------------------------

    def results(self) -> dict:
        stats = self.stream.stats
        system = self.system
        latencies_ms = [done - due for due, done in stats.commits]
        commits = len(latencies_ms)
        unfinished = self.stream.unfinished()
        attempted = stats.attempted + self.reads_attempted
        failed = self.failed_ops + unfinished
        pbft = self.traffic.get("pbft", (0, 0))
        push = self.traffic.get("dissemination", (0, 0))
        heartbeat = self.traffic.get("recovery", (0, 0))
        primary = next(
            system.servers[r.network_id]
            for r in system.ring.replicas
            if not system.network.is_down(r.network_id)
        )
        states = [primary.objects[o.handle.guid].active for o in self.objects]
        stored = sum(
            len(fragment.payload)
            for server in system.servers.values()
            for fragments in server.fragments.fragments.values()
            for fragment in fragments
        )
        user_bytes = sum(o.version for o in self.objects) * self.payload_bytes
        detector = system.recovery.detector if system.recovery is not None else None
        flight = system.telemetry.flight
        slots = 1 + max(r.last_executed_seq for r in system.ring.replicas)
        sim = {
            "commit_latency_sim_ms_p50": percentile(latencies_ms, 0.50),
            "commit_latency_sim_ms_p95": percentile(latencies_ms, 0.95),
            "update_wire_bytes_per_commit": (pbft[1] + push[1]) / max(1, commits),
            "api.write_call_sim_ms_p50": percentile(stats.write_call_ms, 0.50),
            "api.read_call_sim_ms_p50": percentile(self.read_sim_ms, 0.50),
            "api.failed_ops_share": failed / attempted,
            "consistency.pbft.messages_per_commit": pbft[0] / max(1, commits),
            "consistency.pbft.bytes_per_commit": pbft[1] / max(1, commits),
            "consistency.pbft.commits_per_round": len(system.ring.committed_order) / max(1, slots),
            "consistency.secondary.messages_per_commit": push[0] / max(1, commits),
            "consistency.secondary.bytes_per_commit": push[1] / max(1, commits),
            "recovery.share_of_events": heartbeat[0] / max(1, self.events),
            "archival.stored_bytes_per_user_byte": stored / user_bytes,
            "sim_ms": self.sim_ms,
        }
        counts = {
            "attempted": attempted,
            "failed": failed,
            "commits": commits,
            "reads": self.reads_attempted,
            "api.aborted_submits": stats.aborted_submits,
            "api.read_wire_messages": self.traffic.get("routing", (0, 0))[0],
            "sim.kernel.events": self.events,
            "sim.network.messages": self.messages,
            "sim.network.bytes": self.bytes,
            "sim.network.dropped": self.dropped,
            "consistency.pbft.max_view": max(r.view for r in system.ring.replicas),
            "routing.locate_calls": self.locate_calls,
            "routing.bloom_hits": self.bloom_hits,
            "recovery.heartbeat_messages": heartbeat[0],
            "recovery.suspects": (
                sum(1 for _, kind, _ in detector.timeline if kind == "suspect")
                if detector is not None
                else 0
            ),
            "telemetry.flight_events": flight.total_recorded if flight is not None else 0,
            "data.state_bytes_max": max(s.size_bytes for s in states),
            "data.blocks_per_object_max": max(len(s.data.blocks) for s in states),
        }
        sim.update(self.extra_sim)
        counts.update(self.extra_counts)
        samples = {
            "commit_latency": commits,
            "beyond_p95": commits - math.ceil(0.95 * commits),
            "write_calls": len(stats.write_call_ms),
            "reads": len(self.read_sim_ms),
        }
        return {
            "sim": sim,
            "counts": counts,
            "samples": samples,
            "work": self.work(),
            "oracle_failures": self.failures,
        }

    def work(self) -> dict:
        """The frozen operation counts this run used."""
        raise NotImplementedError


class CommitStream(Workload):
    """The Fig. 5 update path under pipelined load, archiving every commit."""

    name = "commit_stream"
    topology = SMALL
    payload_bytes = 4096
    VERSIONS = 16
    GAP_MS = 100.0
    OBJECTS_PER_SECOND = 14.0

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=DEPLOYMENT_SEED, topology=self.topology, archive_every_commit=True
        )

    def object_count(self) -> int:
        return self.scaled(self.OBJECTS_PER_SECOND, 2)

    def timed(self) -> None:
        stream, settle = self.stream, self.system.settle
        for _ in range(self.VERSIONS):
            for obj in self.objects:
                stream.schedule(obj, self.payload())
                stream.pump()
                settle(self.GAP_MS)
        stream.drain(self.GAP_MS)
        settle(self.TAIL_MS)

    def check_more(self) -> None:
        """Every object's newest archived version restores byte-equal."""
        failed = 0
        for obj in self.objects:
            try:
                state = self.system.restore_from_archive(obj.handle.guid, obj.version)
                restored = obj.handle.codec.read_document(state.data)
            except UnknownObject:
                restored = None
            if restored != obj.payload:
                failed += 1
                self.fail(f"{obj.handle.guid}: v{obj.version} did not restore from archive")
        self.extra_counts["archival.restore_failed"] = failed

    def work(self) -> dict:
        return {
            "objects": len(self.objects),
            "overwrites": len(self.objects) * self.VERSIONS,
            "gap_sim_ms": self.GAP_MS,
        }


class ReadZipf(Workload):
    """The read path, with blocking owner writes running beside the reads."""

    name = "read_zipf"
    topology = LARGE
    payload_bytes = 1024
    OBJECTS = 256
    WRITE_EVERY = 50
    OPS_PER_SECOND = 5600.0

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=DEPLOYMENT_SEED, topology=self.topology, archive_every_commit=False
        )

    def grant_readers(self) -> None:
        #: handles[k][j]: client k's handle (own read key copy) on object j
        self.handles = []
        for obj in self.objects:
            for reader in self.clients:
                if reader is not obj.owner:
                    obj.owner.grant_read(obj.handle.guid, reader.keyring)
        for reader in self.clients:
            self.handles.append(
                [reader.open_object(obj.handle.guid) for obj in self.objects]
            )

    def timed(self) -> None:
        ops = self.scaled(self.OPS_PER_SECOND, 100)
        draws = self.rng("draws")
        order = list(range(self.OBJECTS))
        draws.shuffle(order)
        cumulative = list(
            itertools.accumulate(1.0 / rank for rank in range(1, self.OBJECTS + 1))
        )
        total = cumulative[-1]
        kernel, tag = self.system.kernel, self.stream.tag
        objects, clients, handles = self.objects, self.clients, self.handles
        sim_ms = self.read_sim_ms
        written = 0
        for i in range(ops):
            if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                # Writes visit the objects in turn, so every owner writes
                # and no object's state outgrows the others'.
                obj = objects[order[written % self.OBJECTS]]
                written += 1
                if not self.stream.write_blocking(obj, self.payload()):
                    self.fail(f"{obj.handle.guid}: blocking write did not commit")
                continue
            j = order[bisect.bisect_left(cumulative, draws.random() * total)]
            obj = objects[j]
            k = draws.randrange(len(clients))
            tag()
            started = kernel.now
            try:
                data = clients[k].read(handles[k][j])
            except UnknownObject:
                data = None
            sim_ms.append(kernel.now - started)
            if data != obj.payload:
                self.fail(f"{obj.handle.guid}: read by client {k} differs from the oracle")
        self.reads_attempted = len(sim_ms)

    def work(self) -> dict:
        return {
            "objects": self.OBJECTS,
            "reads": self.reads_attempted,
            "blocking_writes": self.stream.stats.attempted,
        }


class HeartbeatSoak(Workload):
    """The simulator itself: hours of failure-detector heartbeats, few commits."""

    name = "heartbeat_soak"
    topology = LARGE
    payload_bytes = 512
    GAP_MS = 15_000.0
    TAIL_MS = 30_000.0
    OVERWRITES_PER_SECOND = 60.0

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=DEPLOYMENT_SEED,
            topology=self.topology,
            recovery=RecoveryConfig(enabled=True),
        )

    def timed(self) -> None:
        for i in range(self.scaled(self.OVERWRITES_PER_SECOND, 4)):
            self.stream.schedule(self.objects[i % self.OBJECTS], self.payload())
            self.stream.pump()
            self.system.settle(self.GAP_MS)
        self.stream.drain(self.GAP_MS)

    def work(self) -> dict:
        return {
            "objects": self.OBJECTS,
            "overwrites": self.stream.stats.attempted,
            "gap_sim_ms": self.GAP_MS,
            "sim_minutes": self.sim_ms / 60_000.0,
        }


class ChaosFailover(Workload):
    """A leader crash a third of the way in, observed by the whole telemetry stack."""

    name = "chaos_failover"
    topology = SMALL
    payload_bytes = 512
    GAP_MS = 500.0
    OVERWRITES_PER_SECOND = 180.0

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=DEPLOYMENT_SEED,
            topology=self.topology,
            recovery=RecoveryConfig(enabled=True),
            chaos=ChaosConfig(enabled=True),
            telemetry=TelemetryConfig(enabled=self.telemetry, flight_capacity=65_536),
        )

    def timed(self) -> None:
        system, stream = self.system, self.stream
        overwrites = self.scaled(self.OVERWRITES_PER_SECOND, 30)
        crash_tick = overwrites // 3
        crash_offset_ms = self.rng("fault").uniform(0.0, self.GAP_MS)
        for i in range(overwrites):
            stream.schedule(self.objects[i % self.OBJECTS], self.payload())
            stream.pump()
            if i == crash_tick:
                system.settle(crash_offset_ms)
                ring = system.ring
                view = max(r.view for r in ring.replicas)
                leader = ring.replicas[ring.leader_index(view)].network_id
                system.injector.crash(leader)
                self.crashed_at_ms = system.kernel.now
                system.settle(self.GAP_MS - crash_offset_ms)
            else:
                system.settle(self.GAP_MS)
        stream.drain(self.GAP_MS)
        system.settle(self.TAIL_MS)
        # Time without service: commits of overwrites already in flight at
        # the crash complete among the survivors and do not count.
        after = [done for due, done in stream.stats.commits if due > self.crashed_at_ms]
        if after:
            self.extra_sim["failover_sim_ms"] = min(after) - self.crashed_at_ms
        else:
            self.fail("no overwrite due after the leader crash committed")

    def work(self) -> dict:
        return {
            "objects": self.OBJECTS,
            "overwrites": self.stream.stats.attempted,
            "gap_sim_ms": self.GAP_MS,
            "crash_after_overwrites": self.stream.stats.attempted // 3,
        }


WORKLOADS = {
    w.name: w for w in (CommitStream, ReadZipf, HeartbeatSoak, ChaosFailover)
}
