"""Self-healing recovery: detection, soft-state repair, and the ladder.

Unit tests for the pieces (failure detector, routing repairer, tree
repair, retry policy) plus integration tests that walk the degraded-read
ladder rung by rung on a full deployment with the location
infrastructure deliberately damaged.
"""

import random

import networkx as nx
import pytest

from repro.api.backend import UnknownObject
from repro.consistency.dissemination import DisseminationTree, TreeError
from repro.core import (
    DeploymentConfig,
    OceanStoreSystem,
    RecoveryConfig,
    RetryPolicy,
    make_client,
)
from repro.introspect import DecisionKind
from repro.recovery import FailureDetector, RoutingRepairer
from repro.routing import PlaxtonMesh, SaltedRouter
from repro.sim import Kernel, Network, TopologyParams
from repro.telemetry import TelemetryConfig
from repro.util import GUID, GUID_BITS


# ---------------------------------------------------------------------------
# Config and policy validation
# ---------------------------------------------------------------------------


class TestRecoveryConfig:
    def test_disabled_by_default(self):
        assert RecoveryConfig().enabled is False
        assert DeploymentConfig().recovery.enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"heartbeat_interval_ms": 0.0},
            {"heartbeat_timeout_ms": 0.0},
            {"heartbeat_timeout_ms": 2_500.0},  # >= interval
            {"suspicion_threshold": 0},
            {"refresh_interval_ms": -1.0},
        ),
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=5).backoff_delays()
        b = RetryPolicy(seed=5).backoff_delays()
        c = RetryPolicy(seed=6).backoff_delays()
        assert a == b
        assert a != c

    def test_schedule_is_exponential_within_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_ms=100.0, backoff_factor=2.0,
            jitter_frac=0.2,
        )
        delays = policy.backoff_delays()
        assert len(delays) == 5
        for i, delay in enumerate(delays):
            floor = 100.0 * 2.0**i
            assert floor <= delay <= floor * 1.2

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"deadline_ms": 0.0},
            {"max_attempts": 0},
            {"backoff_base_ms": 0.0},
            {"backoff_factor": 0.5},
            {"jitter_frac": 1.5},
        ),
    )
    def test_rejects_bad_policy(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Failure detector: suspicion timelines over real (simulated) messages
# ---------------------------------------------------------------------------


def _detector_rig(seed, threshold=2):
    kernel = Kernel()
    graph = nx.complete_graph(6)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    detector = FailureDetector(
        kernel,
        network,
        observer=0,
        monitored=sorted(network.nodes()),
        rng=random.Random(seed),
        interval_ms=1_000.0,
        timeout_ms=500.0,
        threshold=threshold,
    )
    detector.start()
    return kernel, network, detector


class TestFailureDetector:
    def test_healthy_nodes_never_suspected(self):
        kernel, _, detector = _detector_rig(seed=0)
        kernel.run(until=20_000.0)
        assert detector.suspected == set()
        assert detector.timeline == []

    def test_crash_is_suspected_then_revival_restores(self):
        kernel, network, detector = _detector_rig(seed=0)
        kernel.run(until=3_000.0)
        network.set_down(4)
        kernel.run(until=10_000.0)
        assert 4 in detector.suspected
        assert [(k, n) for _, k, n in detector.timeline] == [("suspect", 4)]
        network.set_down(4, down=False)
        kernel.run(until=20_000.0)
        assert 4 not in detector.suspected
        assert detector.suspicion[4] == 0
        assert [(k, n) for _, k, n in detector.timeline] == [
            ("suspect", 4),
            ("restore", 4),
        ]

    def test_suspicion_needs_threshold_consecutive_misses(self):
        kernel, network, detector = _detector_rig(seed=0, threshold=3)
        network.set_down(2)
        # Two missed rounds are not enough at threshold 3.
        kernel.run(until=2_800.0)
        assert 2 not in detector.suspected
        assert detector.suspicion[2] >= 1
        kernel.run(until=6_000.0)
        assert 2 in detector.suspected

        # An ack before the threshold-th miss resets the count: two misses,
        # an ack, then two more are not three in a row.
        kernel, network, detector = _detector_rig(seed=0, threshold=3)
        network.set_down(3)
        kernel.run(until=2_800.0)
        assert detector.suspicion[3] == 2
        network.set_down(3, down=False)
        kernel.run(until=3_800.0)
        assert detector.suspicion[3] == 0
        network.set_down(3)
        kernel.run(until=5_800.0)
        assert detector.suspicion[3] == 2
        assert 3 not in detector.suspected

    def test_same_seed_same_timeline(self):
        timelines = []
        for _ in range(2):
            kernel, network, detector = _detector_rig(seed=11)
            kernel.run(until=2_000.0)
            network.set_down(3)
            network.set_down(5)
            kernel.run(until=12_000.0)
            timelines.append(list(detector.timeline))
        assert timelines[0] == timelines[1]
        suspected = {n for _, kind, n in timelines[0] if kind == "suspect"}
        assert suspected == {3, 5}

    def test_different_seed_jitters_differently(self):
        times = []
        for seed in (0, 1):
            kernel, network, detector = _detector_rig(seed=seed)
            network.set_down(3)
            kernel.run(until=12_000.0)
            times.append([t for t, _, _ in detector.timeline])
        assert times[0] != times[1]

    def test_dead_observer_observes_nothing(self):
        kernel, network, detector = _detector_rig(seed=0)
        network.set_down(0)  # the observer itself
        network.set_down(3)
        kernel.run(until=15_000.0)
        assert detector.timeline == []

    def test_suspect_callbacks_fire_once_per_transition(self):
        kernel, network, detector = _detector_rig(seed=0)
        calls = []
        detector.subscribe(on_suspect=calls.append)
        network.set_down(1)
        kernel.run(until=20_000.0)
        assert calls == [1]

    def test_close_gives_the_mailboxes_back(self):
        kernel, network, detector = _detector_rig(seed=0)
        kernel.run(until=3_000.0)
        sent = network.stats_total_messages
        assert sent > 0
        detector.close()
        assert network._subscriptions == {} and network._handlers == {}
        kernel.run(until=10_000.0)  # acks in flight find nobody home
        assert network.stats_total_messages == sent
        detector.close()  # idempotent


# ---------------------------------------------------------------------------
# Routing repair: eviction, republish, refresh
# ---------------------------------------------------------------------------


def _mesh_rig(seed=0):
    rng = random.Random(seed)
    kernel = Kernel()
    graph = nx.connected_watts_strogatz_graph(24, 4, 0.3, seed=seed)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(sorted(network.nodes()))
    router = SaltedRouter(mesh)
    repairer = RoutingRepairer(mesh, router, network)
    return rng, network, mesh, router, repairer


class TestRoutingRepairer:
    def test_evict_scrubs_node_from_every_table(self):
        _, _, mesh, _, repairer = _mesh_rig()
        victim = sorted(mesh.nodes)[3]
        assert any(
            victim in entry
            for nid in mesh.nodes
            if nid != victim
            for row in mesh.nodes[nid].table
            for entry in row
        )
        repairer.evict(victim)
        assert not any(
            victim in entry
            for nid in mesh.nodes
            if nid != victim
            for row in mesh.nodes[nid].table
            for entry in row
        )
        assert repairer.stats_evictions == 1

    def test_republish_heals_paths_through_a_dead_node(self):
        rng, network, mesh, router, repairer = _mesh_rig()
        guid = GUID(rng.getrandbits(GUID_BITS))
        replica = sorted(mesh.nodes)[0]
        router.publish(replica, guid)
        repairer.register(replica, guid)
        _, paths = repairer._paths[(replica, guid)]
        on_path = sorted(
            {n for trace in paths for n in trace.path} - {replica}
        )
        victim = on_path[-1]
        network.set_down(victim)
        repairer.on_suspect(victim)
        assert repairer.stats_republishes >= 1
        # Every start can still find the replica while the victim is dead.
        for start in sorted(mesh.nodes):
            if network.is_down(start):
                continue
            result = router.locate(start, guid)
            assert result.found and result.replica_node == replica

    def test_dead_host_publication_is_forgotten_and_scrubbed(self):
        rng, network, mesh, router, repairer = _mesh_rig()
        guid = GUID(rng.getrandbits(GUID_BITS))
        replica = sorted(mesh.nodes)[7]
        router.publish(replica, guid)
        repairer.register(replica, guid)
        network.set_down(replica)
        repairer.on_suspect(replica)
        assert repairer.publications() == []
        live = [n for n in sorted(mesh.nodes) if not network.is_down(n)]
        assert not router.locate(live[0], guid).found

    def test_refresh_republishes_every_publication(self):
        rng, _, mesh, router, repairer = _mesh_rig()
        nodes = sorted(mesh.nodes)
        for i in range(3):
            guid = GUID(rng.getrandbits(GUID_BITS))
            router.publish(nodes[i], guid)
            repairer.register(nodes[i], guid)
        repairer.refresh()
        assert repairer.stats_republishes == 3
        assert len(repairer.publications()) == 3

    def test_suspect_off_path_evicts_but_does_not_republish(self):
        rng, network, mesh, router, repairer = _mesh_rig()
        guid = GUID(rng.getrandbits(GUID_BITS))
        replica = sorted(mesh.nodes)[0]
        router.publish(replica, guid)
        repairer.register(replica, guid)
        _, paths = repairer._paths[(replica, guid)]
        on_path = {n for trace in paths for n in trace.path}
        off_path = sorted(set(mesh.nodes) - on_path - {replica})
        if not off_path:
            pytest.skip("publish paths cover the whole mesh at this seed")
        repairer.on_suspect(off_path[0])
        assert repairer.stats_evictions == 1
        assert repairer.stats_republishes == 0


# ---------------------------------------------------------------------------
# Dissemination-tree repair
# ---------------------------------------------------------------------------


def _tree_rig(n=10, fanout=2):
    """Uniform latencies make attachment deterministic: ties break by
    member id, so member k's parent is fully predictable."""
    kernel = Kernel()
    graph = nx.complete_graph(n)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    tree = DisseminationTree(network, root=0, max_fanout=fanout)
    for node in range(1, n):
        tree.add_member(node)
    return network, tree


class TestTreeRepair:
    def test_orphans_reparent_to_live_members_only(self):
        network, tree = _tree_rig(n=12, fanout=2)
        victim = next(
            m for m in tree.members if m != tree.root and tree.children(m)
        )
        orphans = tree.children(victim)
        dead = {victim}
        reparented = tree.remove_member(
            victim, candidate_filter=lambda m: m not in dead
        )
        assert set(reparented) == set(orphans)
        for orphan, parent in reparented.items():
            assert parent not in dead
            assert tree.parent(orphan) == parent
            tree.depth(orphan)  # still rooted: no cycle, no strand

    def test_candidate_filter_falls_back_to_root(self):
        # n=8, fanout=3: children are 0:[1,2,3], 1:[4,5,6], 2:[7].
        # Removing 2 frees a root slot, so its orphan 7 lands on the
        # root even with every other candidate filtered out.
        _, tree = _tree_rig(n=8, fanout=3)
        assert tree.children(2) == [7]
        reparented = tree.remove_member(2, candidate_filter=lambda m: False)
        assert reparented == {7: tree.root}

    def test_filter_with_no_room_raises(self):
        # Removing 1 frees one root slot, but 1 has three orphans: the
        # second orphan finds no unfiltered candidate with spare fanout.
        _, tree = _tree_rig(n=8, fanout=3)
        assert tree.children(1) == [4, 5, 6]
        with pytest.raises(TreeError):
            tree.remove_member(1, candidate_filter=lambda m: False)


# ---------------------------------------------------------------------------
# End-to-end healing: detector -> eviction/republish -> tree catch-up
# ---------------------------------------------------------------------------


def _recovery_system(seed=0, *, enabled=True, telemetry=False, **overrides):
    overrides.setdefault("secondaries_per_object", 5)
    overrides.setdefault("dissemination_fanout", 2)
    config = DeploymentConfig(
        seed=seed,
        topology=TopologyParams(
            transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
        ),
        recovery=RecoveryConfig(
            enabled=enabled,
            heartbeat_interval_ms=1_000.0,
            heartbeat_timeout_ms=600.0,
            suspicion_threshold=2,
            refresh_interval_ms=5_000.0,
        ),
        telemetry=TelemetryConfig(enabled=telemetry),
        **overrides,
    )
    return OceanStoreSystem(config)


def test_closed_recovery_manager_is_unreachable_from_the_network():
    """Sweep workers build and discard many systems per process: after
    ``close()`` nothing the network holds may lead back to the detector."""
    system = _recovery_system()
    network, detector = system.network, system.recovery.detector

    def subscribed():
        return [
            handler
            for subscriptions in network._subscriptions.values()
            for handler, _ in subscriptions
            if getattr(handler, "__self__", None) is detector
        ]

    assert len(subscribed()) == len(detector.monitored) + 1
    system.recovery.close()
    assert subscribed() == []
    assert not any(
        getattr(handler, "__self__", None) is detector
        for mailbox in network._handlers.values()
        for handlers in mailbox.values()
        for handler in handlers
    )


def _remote_client(system, guid):
    """A node hosting neither a primary nor a secondary replica, so a
    read from it must really traverse the location infrastructure."""
    hosts = set(system.ring_nodes) | set(system.tiers[guid].replicas)
    return next(n for n in sorted(system.network.nodes()) if n not in hosts)


def _wipe_location_state(system, guid):
    """A TTL-expiry storm: every pointer and neighbor filter vanishes."""
    for salted in system.router.salted_guids(guid):
        for nid in sorted(system.mesh.nodes):
            system.mesh.nodes[nid].pointers.pop(salted, None)
    for nid in sorted(system.network.nodes()):
        system.probabilistic.clear_neighbor_filters(nid)


class TestDetectorDrivenHealing:
    def test_crashed_tree_parent_is_healed_and_caught_up(self):
        system = _recovery_system(seed=2)
        client = make_client(system, "healer", seed=3)
        handle = client.create_object("healed")
        system.settle()
        assert client.write(handle, b"v1").committed
        system.settle()
        tier = system.tiers[handle.guid]
        parents = [m for m in sorted(tier.replicas) if tier.tree.children(m)]
        victim = max(
            parents, key=lambda m: (len(tier.tree.children(m)), -m)
        )
        system.injector.crash(victim)
        assert client.write(handle, b"v2").committed
        assert client.write(handle, b"v3").committed
        system.settle(60_000.0)
        assert victim not in tier.replicas
        newest = max(r.committed_through for r in tier.replicas.values())
        assert all(
            r.committed_through == newest for r in tier.replicas.values()
        )
        assert tier.consistent_fraction() == 1.0

    def test_recovery_off_leaves_the_corpse_in_place(self):
        system = _recovery_system(seed=2, enabled=False)
        client = make_client(system, "healer", seed=3)
        handle = client.create_object("unhealed")
        system.settle()
        assert client.write(handle, b"v1").committed
        system.settle()
        tier = system.tiers[handle.guid]
        victim = sorted(tier.replicas)[0]
        system.injector.crash(victim)
        system.settle(60_000.0)
        assert system.recovery is None
        assert victim in tier.replicas  # nobody noticed

    def test_suspicion_evicts_and_republishes_in_telemetry(self):
        system = _recovery_system(seed=4, telemetry=True)
        client = make_client(system, "watcher", seed=5)
        handle = client.create_object("watched")
        system.settle()
        assert client.write(handle, b"v1").committed
        system.settle()
        tier = system.tiers[handle.guid]
        victim = sorted(tier.replicas)[0]
        system.telemetry.reset()
        detector, repairer = system.recovery.detector, system.recovery.repairer
        timeline_before = len(detector.timeline)
        evictions_before = repairer.stats_evictions
        system.injector.crash(victim)
        system.settle(30_000.0)
        suspicions = [
            entry
            for entry in detector.timeline[timeline_before:]
            if entry[1] == "suspect"
        ]
        assert len(suspicions) >= 1
        assert repairer.stats_evictions - evictions_before >= 1
        kinds = {
            e.kind
            for e in system.telemetry.flight.events(categories=["recovery"])
        }
        assert "suspect" in kinds
        assert "evict" in kinds


    def test_restored_node_is_linked_and_routable_again(self):
        system = _recovery_system(seed=2)
        mesh, detector = system.mesh, system.recovery.detector
        victim = next(
            n
            for n in sorted(mesh.nodes)
            if n not in system.ring_nodes and n != detector.observer
        )

        def linked():
            return any(
                victim in mesh.nodes[nid].links() for nid in mesh.nodes if nid != victim
            )

        assert linked()
        system.injector.crash(victim)
        system.settle(10_000.0)
        assert victim in detector.suspected
        assert not linked()  # evicted
        system.injector.revive(victim)
        system.settle(10_000.0)
        assert victim not in detector.suspected
        assert linked()
        trace = mesh.route_to_root(detector.observer, mesh.nodes[victim].node_id)
        assert trace.path[-1] == victim


# ---------------------------------------------------------------------------
# The degradation ladder, rung by rung
# ---------------------------------------------------------------------------


class TestEliminatedReplica:
    def test_refresh_sweep_no_longer_republishes_an_eliminated_replica(self):
        """With recovery on, a replica that introspection eliminates for
        disuse leaves the repairer's publications: the next pointer-refresh
        sweep republishes its siblings but deposits no pointer for it."""
        system = _recovery_system(
            seed=7, secondaries_per_object=3, replica_window_ms=1_000.0
        )
        client = make_client(system, "idle", seed=12)
        handle = client.create_object("idle")
        assert client.write(handle, b"x").committed
        repairer = system.recovery.repairer
        eliminated = {
            d.replica_node
            for d in system.run_replica_management()
            if d.kind is DecisionKind.ELIMINATE
        }
        kept = set(system.tiers[handle.guid].replicas)
        # Only eliminations carried out come back: the last replica is
        # never removed, so it is never reported.
        assert eliminated and kept
        assert not eliminated & kept
        republished = []
        republish = repairer.republish

        def recording(replica_node, object_guid):
            republished.append((replica_node, object_guid))
            republish(replica_node, object_guid)

        repairer.republish = recording
        system.settle(6_000.0)  # one refresh sweep
        swept = {node for node, guid in republished if guid == handle.guid}
        assert kept <= swept
        assert not swept & eliminated
        for salted in system.router.salted_guids(handle.guid):
            for node in system.mesh.nodes.values():
                assert not node.pointers.get(salted, set()) & eliminated


def _rung_counts(system):
    """Times each ladder rung ran, by result: the ``read_degraded.rung``
    latency series' sample counts, summed over rings."""
    slo = system.telemetry.slo
    counts = {}
    for rung in ("local", "salted-retry", "tentative", "archival"):
        for result in ("hit", "miss", "stale"):
            series = (
                slo.histogram(
                    "read_degraded.rung", ring=shard.shard_id, rung=rung, result=result
                )
                for shard in system.rings.shards
            )
            value = sum(dist.count for dist in series if dist is not None)
            if value:
                counts[(rung, result)] = value
    return counts


class TestDegradationLadder:
    def test_rung1_local_hit_on_healthy_system(self):
        system = _recovery_system(seed=6, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        system.telemetry.reset()
        state = system.read_degraded(
            handle.guid,
            allow_tentative=False,
            min_version=1,
            client_node=_remote_client(system, handle.guid),
        )
        assert state.version >= 1
        assert _rung_counts(system) == {("local", "hit"): 1}

    def test_rung2_salted_retry_hits_after_repair(self):
        """Wiped pointers + recovery on: the refresh sweep republishes
        during the backoff settles and the salted retry lands."""
        system = _recovery_system(seed=6, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        system.telemetry.reset()
        state = system.read_degraded(
            handle.guid,
            allow_tentative=False,
            min_version=1,
            client_node=_remote_client(system, handle.guid),
            retry=RetryPolicy(
                deadline_ms=40_000.0, max_attempts=4, backoff_base_ms=6_000.0
            ),
        )
        assert state.version >= 1
        counts = _rung_counts(system)
        assert counts[("local", "miss")] == 1
        assert counts.get(("salted-retry", "hit"), 0) == 1

    def test_rung3_tentative_when_location_stays_dark(self):
        system = _recovery_system(seed=6, enabled=False, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        system.telemetry.reset()
        state = system.read_degraded(
            handle.guid,
            allow_tentative=True,
            min_version=1,
            client_node=_remote_client(system, handle.guid),
            retry=RetryPolicy(
                deadline_ms=10_000.0, max_attempts=2, backoff_base_ms=1_000.0
            ),
        )
        assert state.version >= 1
        counts = _rung_counts(system)
        assert counts[("local", "miss")] == 1
        assert counts[("tentative", "hit")] == 1
        assert ("archival", "hit") not in counts

    def test_rung4_archival_reconstruction_as_last_resort(self):
        system = _recovery_system(seed=6, enabled=False, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        tier = system.tiers[handle.guid]
        for node in sorted(tier.replicas):
            system.injector.crash(node)
        system.telemetry.reset()
        state = system.read_degraded(
            handle.guid,
            allow_tentative=True,
            min_version=1,
            client_node=_remote_client(system, handle.guid),
            retry=RetryPolicy(
                deadline_ms=10_000.0, max_attempts=2, backoff_base_ms=1_000.0
            ),
        )
        assert state.version >= 1
        counts = _rung_counts(system)
        assert counts[("tentative", "miss")] == 1
        assert counts[("archival", "hit")] == 1

    def test_ladder_exhaustion_raises_within_budget(self):
        system = _recovery_system(seed=6, enabled=False, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        start = system.kernel.now
        policy = RetryPolicy(
            deadline_ms=15_000.0, max_attempts=3, backoff_base_ms=2_000.0
        )
        with pytest.raises(UnknownObject):
            system.read_degraded(
                handle.guid,
                allow_tentative=True,
                min_version=99,  # unsatisfiable session floor
                client_node=_remote_client(system, handle.guid),
                retry=policy,
            )
        assert system.kernel.now - start <= policy.deadline_ms

    def test_ladder_never_returns_below_session_floor(self):
        system = _recovery_system(seed=6)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        for i in range(3):
            assert client.write(handle, b"v%d" % i).committed
        system.settle()
        state = system.read_degraded(
            handle.guid, allow_tentative=True, min_version=3
        )
        assert state.version >= 3

    def test_ladder_rungs_surface_in_flight_dump(self):
        system = _recovery_system(seed=6, enabled=False, telemetry=True)
        client = make_client(system, "reader", seed=7)
        handle = client.create_object("laddered")
        system.settle()
        assert client.write(handle, b"payload").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        system.telemetry.reset()
        system.read_degraded(
            handle.guid,
            allow_tentative=True,
            min_version=1,
            client_node=_remote_client(system, handle.guid),
            retry=RetryPolicy(
                deadline_ms=5_000.0, max_attempts=1, backoff_base_ms=1_000.0
            ),
        )
        dump = system.telemetry.flight.render(categories=["recovery"])
        assert "ladder_rung" in dump
        assert "rung=local" in dump
        assert "rung=tentative" in dump


# ---------------------------------------------------------------------------
# Salted locate failure detail (the failover attribution satellite)
# ---------------------------------------------------------------------------


class TestSaltFailureDetail:
    def test_healthy_locate_reports_no_failures(self):
        system = _recovery_system(seed=8)
        client = make_client(system, "prober", seed=9)
        handle = client.create_object("salted")
        system.settle()
        result = system.router.locate(system.ring_nodes[0], handle.guid)
        assert result.found
        assert result.failed_salts == ()

    def test_wiped_pointers_report_every_salt_as_no_pointer(self):
        system = _recovery_system(seed=8, enabled=False)
        client = make_client(system, "prober", seed=9)
        handle = client.create_object("salted")
        system.settle()
        _wipe_location_state(system, handle.guid)
        result = system.router.locate(system.ring_nodes[0], handle.guid)
        assert not result.found
        assert len(result.failed_salts) == system.router.salts
        assert [f.salt for f in result.failed_salts] == list(
            range(system.router.salts)
        )
        assert all(f.reason == "no-pointer" for f in result.failed_salts)


# ---------------------------------------------------------------------------
# Client API plumbing: a RetryPolicy on the handle drives the ladder
# ---------------------------------------------------------------------------


class TestClientRetryPlumbing:
    def test_handle_retry_survives_pointer_wipe(self):
        system = _recovery_system(seed=10, enabled=False)
        client = make_client(
            system,
            "patient",
            seed=11,
            retry=RetryPolicy(
                deadline_ms=10_000.0, max_attempts=2, backoff_base_ms=1_000.0
            ),
        )
        handle = client.create_object("persistent")
        system.settle()
        assert client.write(handle, b"still here").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        assert client.read(handle) == b"still here"

    def test_per_call_retry_overrides_plain_handle(self):
        system = _recovery_system(seed=10, enabled=False)
        client = make_client(system, "impatient", seed=11)
        handle = client.create_object("persistent")
        system.settle()
        assert client.write(handle, b"still here").committed
        system.settle()
        _wipe_location_state(system, handle.guid)
        policy = RetryPolicy(
            deadline_ms=10_000.0, max_attempts=2, backoff_base_ms=1_000.0
        )
        assert client.read(handle, retry=policy) == b"still here"
