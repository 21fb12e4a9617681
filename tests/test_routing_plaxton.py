"""Tests for the Plaxton mesh, salted roots, online insertion, and the
two-tier location service."""

import random

import pytest

from repro.recovery import FailureDetector, RoutingRepairer
from repro.routing import (
    LocationService,
    PlaxtonMesh,
    ProbabilisticLocator,
    RoutingError,
    SaltedRouter,
    Tier,
)
from repro.sim import Kernel, Network, TopologyParams, build_transit_stub_topology
from repro.util import GUID


def make_mesh(seed=0, params=None):
    rng = random.Random(seed)
    kernel = Kernel()
    graph = build_transit_stub_topology(params or TopologyParams(), rng)
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(list(network.nodes()))
    return network, mesh


@pytest.fixture(scope="module")
def mesh_fixture():
    return make_mesh(seed=42)


class TestMeshConstruction:
    def test_all_nodes_have_tables(self, mesh_fixture):
        _, mesh = mesh_fixture
        assert all(node.table for node in mesh.nodes.values())

    def test_loopback_links_present(self, mesh_fixture):
        # Each node's entry for its own digit at level 0 starts with itself.
        _, mesh = mesh_fixture
        for node in mesh.nodes.values():
            own_digit = node.node_id.digit(0)
            assert node.entry(0, own_digit)[0] == node.network_id

    def test_entries_sorted_by_latency(self, mesh_fixture):
        network, mesh = mesh_fixture
        node = next(iter(mesh.nodes.values()))
        for digit in range(16):
            entry = node.entry(0, digit)
            latencies = [network.latency_ms(node.network_id, nid) for nid in entry]
            assert latencies == sorted(latencies)

    def test_duplicate_server_rejected(self, mesh_fixture):
        _, mesh = mesh_fixture
        nid = next(iter(mesh.nodes))
        with pytest.raises(ValueError):
            mesh.add_server(nid)

    def test_node_id_collision_rejected(self):
        rng = random.Random(1)
        kernel = Kernel()
        graph = build_transit_stub_topology(TopologyParams(), rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        all_nodes = list(network.nodes())
        mesh.populate(all_nodes[:-1])  # leave one network node free
        existing = next(iter(mesh.nodes.values()))
        with pytest.raises(ValueError):
            mesh.add_server(all_nodes[-1], existing.node_id)


class TestRouting:
    def test_route_reaches_existing_node(self, mesh_fixture):
        _, mesh = mesh_fixture
        nodes = list(mesh.nodes.values())
        start, target = nodes[0], nodes[-1]
        trace = mesh.route_to_root(start.network_id, target.node_id)
        assert trace.reached_root
        assert trace.path[-1] == target.network_id

    def test_root_unique_regardless_of_start(self, mesh_fixture):
        _, mesh = mesh_fixture
        guid = GUID.hash_of(b"some object")
        roots = {
            mesh.route_to_root(start, guid).path[-1]
            for start in list(mesh.nodes)[:20]
        }
        assert len(roots) == 1

    def test_roots_spread_across_nodes(self, mesh_fixture):
        # Random GUIDs should map to many different roots (load spread).
        _, mesh = mesh_fixture
        roots = {
            mesh.root_of(GUID.hash_of(f"obj-{i}".encode())) for i in range(60)
        }
        assert len(roots) > 15

    def test_hops_logarithmic(self, mesh_fixture):
        _, mesh = mesh_fixture
        n = len(mesh.nodes)
        worst = max(
            mesh.route_to_root(start, GUID.hash_of(f"o{i}".encode())).hops
            for i, start in enumerate(list(mesh.nodes)[:15])
        )
        # Expected hops ~ log16(n) + small constant; generous bound.
        assert worst <= 3 * (n.bit_length() // 4 + 2)

    def test_unknown_start_raises(self, mesh_fixture):
        _, mesh = mesh_fixture
        with pytest.raises(RoutingError):
            mesh.route_to_root(10**9, GUID.hash_of(b"x"))

    def test_down_start_raises(self):
        network, mesh = make_mesh(seed=3)
        start = next(iter(mesh.nodes))
        network.set_down(start)
        with pytest.raises(RoutingError):
            mesh.route_to_root(start, GUID.hash_of(b"x"))
        network.set_down(start, False)

    def test_routes_around_dead_intermediate(self):
        network, mesh = make_mesh(seed=4)
        guid = GUID.hash_of(b"victim-path")
        starts = list(mesh.nodes)[:5]
        baseline = mesh.route_to_root(starts[0], guid)
        intermediates = [n for n in baseline.path[1:-1]]
        if not intermediates:
            pytest.skip("route too short to test")
        network.set_down(intermediates[0])
        rerouted = mesh.route_to_root(starts[0], guid)
        assert rerouted.reached_root
        assert intermediates[0] not in rerouted.path
        network.set_down(intermediates[0], False)


class TestPublishLocate:
    def test_publish_then_locate(self, mesh_fixture):
        _, mesh = mesh_fixture
        guid = GUID.hash_of(b"published")
        replica = list(mesh.nodes)[7]
        mesh.publish(replica, guid)
        result = mesh.locate(list(mesh.nodes)[21], guid)
        assert result.found and result.replica_node == replica

    def test_locate_unpublished_fails_at_root(self, mesh_fixture):
        _, mesh = mesh_fixture
        result = mesh.locate(list(mesh.nodes)[0], GUID.hash_of(b"never-published"))
        assert not result.found
        assert result.trace.reached_root

    def test_locate_from_replica_is_instant(self, mesh_fixture):
        _, mesh = mesh_fixture
        guid = GUID.hash_of(b"local-object")
        replica = list(mesh.nodes)[3]
        mesh.publish(replica, guid)
        result = mesh.locate(replica, guid)
        assert result.found and result.trace.hops == 0

    def test_locate_prefers_closer_replica(self):
        network, mesh = make_mesh(seed=5)
        guid = GUID.hash_of(b"multi-replica")
        nodes = list(mesh.nodes)
        r1, r2 = nodes[2], nodes[-2]
        mesh.publish(r1, guid)
        mesh.publish(r2, guid)
        # Query from right next to r1: should find r1, not r2.
        result = mesh.locate(r1, guid)
        assert result.found and result.replica_node == r1

    def test_unpublish_removes_pointers(self, mesh_fixture):
        _, mesh = mesh_fixture
        guid = GUID.hash_of(b"temporary")
        replica = list(mesh.nodes)[11]
        mesh.publish(replica, guid)
        mesh.unpublish(replica, guid)
        result = mesh.locate(list(mesh.nodes)[30], guid)
        assert not result.found

    def test_publish_path_length_logarithmic(self, mesh_fixture):
        _, mesh = mesh_fixture
        trace = mesh.publish(list(mesh.nodes)[9], GUID.hash_of(b"plen"))
        assert trace.hops <= 12  # log16(~200) + redundancy slack

    def test_locality_closer_replica_shorter_locate(self):
        # Plaxton's key property: query cost scales with distance to the
        # closest replica.  With a replica right next to the client the
        # locate path should be much shorter than with a replica far away.
        network, mesh = make_mesh(seed=6)
        nodes = list(mesh.nodes)
        client = nodes[0]
        near = min(
            (n for n in nodes if n != client),
            key=lambda n: network.latency_ms(client, n),
        )
        guid_near = GUID.hash_of(b"near-object")
        mesh.publish(near, guid_near)
        near_result = mesh.locate(client, guid_near)
        assert near_result.found
        far_latencies = []
        for i in range(8):
            guid_far = GUID.hash_of(f"far-object-{i}".encode())
            far = max(nodes, key=lambda n: network.latency_ms(client, n))
            mesh.publish(far, guid_far)
            far_result = mesh.locate(client, guid_far)
            assert far_result.found
            far_latencies.append(far_result.trace.latency_ms)
        assert near_result.trace.latency_ms < sum(far_latencies) / len(far_latencies)


class TestSaltedRouter:
    def test_salts_give_distinct_roots(self, mesh_fixture):
        _, mesh = mesh_fixture
        router = SaltedRouter(mesh, salts=3)
        roots = router.roots_of(GUID.hash_of(b"salted"))
        assert len(set(roots)) >= 2  # overwhelmingly likely distinct

    def test_locate_with_salts(self, mesh_fixture):
        _, mesh = mesh_fixture
        router = SaltedRouter(mesh, salts=3)
        guid = GUID.hash_of(b"salted-object")
        replica = list(mesh.nodes)[13]
        router.publish(replica, guid)
        result = router.locate(list(mesh.nodes)[40], guid)
        assert result.found and result.replica_node == replica
        assert result.salts_tried == 1

    def test_survives_root_failure(self):
        network, mesh = make_mesh(seed=7)
        router = SaltedRouter(mesh, salts=3)
        guid = GUID.hash_of(b"resilient")
        nodes = list(mesh.nodes)
        replica = nodes[10]
        router.publish(replica, guid)
        roots = router.roots_of(guid)
        client = next(n for n in nodes if n not in roots and n != replica)
        # Kill the first salt's root: the locate fails over to salt 2.
        if roots[0] in (replica, client):
            pytest.skip("degenerate placement")
        network.set_down(roots[0])
        result = router.locate(client, guid)
        assert result.found
        network.set_down(roots[0], False)

    def test_single_root_vulnerable_without_salts(self):
        # Contrast: with one salt, killing pointer nodes can break location.
        network, mesh = make_mesh(seed=8)
        router = SaltedRouter(mesh, salts=1)
        guid = GUID.hash_of(b"fragile")
        nodes = list(mesh.nodes)
        replica = nodes[10]
        traces = router.publish(replica, guid)
        client = nodes[40]
        # Kill every pointer holder except the replica itself.
        for nid in traces[0].path:
            if nid not in (replica, client):
                network.set_down(nid)
        result = router.locate(client, guid)
        # The pointers are unreachable; only a lucky direct path survives.
        assert not result.found or result.replica_node == replica
        for nid in traces[0].path:
            network.set_down(nid, False)

    def test_invalid_salt_count(self, mesh_fixture):
        _, mesh = mesh_fixture
        with pytest.raises(ValueError):
            SaltedRouter(mesh, salts=0)

    def test_unpublish(self, mesh_fixture):
        _, mesh = mesh_fixture
        router = SaltedRouter(mesh, salts=2)
        guid = GUID.hash_of(b"salted-temp")
        replica = list(mesh.nodes)[17]
        router.publish(replica, guid)
        router.unpublish(replica, guid)
        assert not router.locate(list(mesh.nodes)[33], guid).found


class TestMembership:
    def test_insert_routes_to_new_node(self):
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4)
        rng = random.Random(9)
        kernel = Kernel()
        graph = build_transit_stub_topology(params, rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        all_nodes = list(network.nodes())
        mesh.populate(all_nodes[:-1])
        new_node = mesh.insert_server(all_nodes[-1])
        trace = mesh.route_to_root(all_nodes[0], new_node.node_id)
        assert trace.path[-1] == new_node.network_id

    def test_insert_matches_full_rebuild_root(self):
        # After incremental insert, roots agree with a full table rebuild;
        # so do they after a root is evicted and inserted again.
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4)
        rng = random.Random(10)
        kernel = Kernel()
        graph = build_transit_stub_topology(params, rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        all_nodes = list(network.nodes())
        mesh.populate(all_nodes[:-2])
        mesh.insert_server(all_nodes[-2])
        mesh.insert_server(all_nodes[-1])
        guids = [GUID.hash_of(f"probe-{i}".encode()) for i in range(20)]
        incremental_roots = [mesh.root_of(g) for g in guids]

        victim = max(incremental_roots)  # not the start node root_of uses
        mesh.drop_links(victim)
        assert victim not in [mesh.root_of(g) for g in guids]
        mesh.insert_server(victim)
        reinserted_roots = [mesh.root_of(g) for g in guids]

        mesh.build_tables()
        rebuilt_roots = [mesh.root_of(g) for g in guids]
        assert incremental_roots == rebuilt_roots
        assert reinserted_roots == rebuilt_roots

    def test_beacon_recovery_resets(self):
        # Beacons with a second chance: a node that misses one round and
        # acks the next is not evicted when it misses one round again.
        network, mesh = make_mesh(seed=14)
        observer, victim = list(mesh.nodes)[0], list(mesh.nodes)[8]
        detector = FailureDetector(
            network.kernel,
            network,
            observer=observer,
            monitored=list(mesh.nodes),
            rng=random.Random(14),
            threshold=2,
        )
        repairer = RoutingRepairer(mesh, SaltedRouter(mesh), network)
        detector.subscribe(on_suspect=repairer.on_suspect)
        detector.start()
        network.set_down(victim)
        network.kernel.run(until=3_700.0)  # first round evaluated
        assert detector.suspicion[victim] == 1
        network.set_down(victim, False)  # comes back before second miss
        network.kernel.run(until=5_800.0)
        assert detector.suspicion[victim] == 0
        network.set_down(victim)
        network.kernel.run(until=7_900.0)
        assert detector.suspicion[victim] == 1  # counter was reset
        assert victim not in detector.suspected
        assert repairer.stats_evictions == 0
        network.set_down(victim, False)
        trace = mesh.route_to_root(observer, mesh.nodes[victim].node_id)
        assert trace.path[-1] == victim
        detector.close()


class TestLocationService:
    @pytest.fixture()
    def service(self):
        rng = random.Random(16)
        kernel = Kernel()
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
        graph = build_transit_stub_topology(params, rng)
        network = Network(kernel, graph)
        mesh = PlaxtonMesh(network, rng)
        mesh.populate(list(network.nodes()))
        probabilistic = ProbabilisticLocator(network, depth=3, width=4096)
        service = LocationService(probabilistic, SaltedRouter(mesh, salts=2))
        return network, service

    def test_nearby_found_probabilistically(self, service):
        network, svc = service
        guid = GUID.hash_of(b"nearby")
        svc.add_replica(5, guid)
        svc.probabilistic.converge()
        neighbor = network.neighbors(5)[0]
        result = svc.locate(neighbor, guid)
        assert result.found and result.tier is Tier.PROBABILISTIC
        assert svc.stats_probabilistic_hits == 1

    def test_distant_found_globally(self, service):
        network, svc = service
        guid = GUID.hash_of(b"distant")
        svc.add_replica(5, guid)
        svc.probabilistic.converge()
        far = max(network.nodes(), key=lambda n: network.hop_count(n, 5))
        assert network.hop_count(far, 5) > 3
        result = svc.locate(far, guid)
        assert result.found and result.tier is Tier.GLOBAL
        assert result.replica_node == 5

    def test_missing_not_found(self, service):
        _, svc = service
        result = svc.locate(0, GUID.hash_of(b"void"))
        assert not result.found and result.tier is Tier.NOT_FOUND
        assert svc.stats_misses == 1

    def test_remove_replica(self, service):
        _, svc = service
        guid = GUID.hash_of(b"fleeting")
        svc.add_replica(5, guid)
        svc.probabilistic.converge()
        svc.remove_replica(5, guid)
        svc.probabilistic.converge()
        assert not svc.locate(7, guid).found
