"""Tests for Bloom filters and the probabilistic location tier."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.scenarios import ChaosContext, wipe_roots
from repro.core.config import ChaosConfig, DeploymentConfig
from repro.core.system import OceanStoreSystem
from repro.routing import (
    AttenuatedBloomFilter,
    BloomFilter,
    ProbabilisticLocator,
    guid_bit_positions,
)
from repro.sim import Kernel, Network, TopologyParams
from repro.util import GUID, GUID_BITS

guids = st.integers(min_value=0, max_value=(1 << GUID_BITS) - 1).map(GUID)


class TestBitPositions:
    def test_deterministic(self):
        g = GUID.hash_of(b"x")
        assert guid_bit_positions(g, 1024, 4) == guid_bit_positions(g, 1024, 4)

    def test_count_and_range(self):
        g = GUID.hash_of(b"x")
        positions = guid_bit_positions(g, 100, 6)
        assert len(positions) == 6
        assert all(0 <= p < 100 for p in positions)

    def test_invalid_params(self):
        g = GUID.hash_of(b"x")
        with pytest.raises(ValueError):
            guid_bit_positions(g, 0, 4)
        with pytest.raises(ValueError):
            guid_bit_positions(g, 100, 0)

    def test_high_hash_indices_stay_guid_dependent(self):
        # Regression: beyond GUID_BITS/16 slices the 16-bit chunks used to
        # degenerate to zero, so every GUID shared the same high positions
        # (the index-fold schedule).  They must differ per GUID.
        direct = GUID_BITS // 16
        hashes = direct + 8
        width = 1 << 16
        g1 = GUID.hash_of(b"left")
        g2 = GUID.hash_of(b"right")
        tail1 = guid_bit_positions(g1, width, hashes)[direct:]
        tail2 = guid_bit_positions(g2, width, hashes)[direct:]
        assert tail1 != tail2

    def test_low_hash_indices_unchanged_by_extension(self):
        # The direct-slice prefix is a wire-visible baseline (filters built
        # at the default hashes=4 must not move); re-expansion only kicks
        # in past GUID_BITS/16.
        g = GUID.hash_of(b"stable")
        width = 1024
        expected = tuple(
            (((g.value >> (16 * i)) & 0xFFFF) + i * 0x9E37) % width
            for i in range(GUID_BITS // 16)
        )
        assert guid_bit_positions(g, width, GUID_BITS // 16) == expected
        assert guid_bit_positions(g, width, 25)[: GUID_BITS // 16] == expected

    @given(guids, guids)
    @settings(max_examples=50, deadline=None)
    def test_distinct_guids_rarely_collide_at_high_hash_counts(self, g1, g2):
        if g1 == g2:
            return
        p1 = guid_bit_positions(g1, 1 << 16, 30)
        p2 = guid_bit_positions(g2, 1 << 16, 30)
        assert p1 != p2


class TestBloomFilter:
    def test_contains_after_add(self):
        f = BloomFilter(width=512, hashes=4)
        g = GUID.hash_of(b"obj")
        assert g not in f
        f.add(g)
        assert g in f

    def test_no_false_negatives(self):
        f = BloomFilter(width=4096, hashes=4)
        added = [GUID.hash_of(str(i).encode()) for i in range(200)]
        for g in added:
            f.add(g)
        assert all(g in f for g in added)

    def test_false_positive_rate_reasonable(self):
        f = BloomFilter(width=4096, hashes=4)
        for i in range(100):
            f.add(GUID.hash_of(f"member-{i}".encode()))
        false_positives = sum(
            1 for i in range(2000) if GUID.hash_of(f"probe-{i}".encode()) in f
        )
        # Theoretical fpr with m=4096, n=100, k=4 is ~9e-5; allow slack.
        assert false_positives < 20

    def test_fill_ratio(self):
        f = BloomFilter(width=100, hashes=2)
        assert f.fill_ratio() == 0.0
        f.add(GUID.hash_of(b"x"))
        assert 0 < f.fill_ratio() <= 0.02

    def test_size_bytes(self):
        assert BloomFilter(width=1024).size_bytes() == 128
        assert BloomFilter(width=1025).size_bytes() == 129

    @given(st.lists(guids, max_size=30), guids)
    @settings(max_examples=30)
    def test_membership_property(self, members, probe):
        f = BloomFilter(width=8192, hashes=4)
        for g in members:
            f.add(g)
        if probe in members:
            assert probe in f  # never a false negative


class TestAttenuatedFilter:
    def test_first_match_orders_by_distance(self):
        f = AttenuatedBloomFilter(depth=3, width=512)
        g = GUID.hash_of(b"obj")
        f.add(g, distance=2)
        assert f.first_match(g).distance == 2
        f.add(g, distance=0)
        assert f.first_match(g).distance == 0

    def test_no_match(self):
        f = AttenuatedBloomFilter(depth=3, width=512)
        assert f.first_match(GUID.hash_of(b"missing")) is None

    def test_distance_bounds(self):
        f = AttenuatedBloomFilter(depth=2, width=64)
        with pytest.raises(ValueError):
            f.add(GUID.hash_of(b"x"), distance=2)

    def test_from_local_and_neighbors(self):
        local = BloomFilter(width=512)
        g_local, g_far = GUID.hash_of(b"local"), GUID.hash_of(b"far")
        local.add(g_local)
        neighbor_ad = AttenuatedBloomFilter(depth=3, width=512)
        neighbor_ad.add(g_far, distance=0)  # on the neighbor itself
        built = AttenuatedBloomFilter.from_local_and_neighbors(
            3, 512, 4, local, [neighbor_ad]
        )
        assert built.first_match(g_local).distance == 0
        assert built.first_match(g_far).distance == 1

    def test_incompatible_neighbor_rejected(self):
        local = BloomFilter(width=512)
        bad = AttenuatedBloomFilter(depth=2, width=512)
        with pytest.raises(ValueError):
            AttenuatedBloomFilter.from_local_and_neighbors(3, 512, 4, local, [bad])

    def test_size_bytes(self):
        f = AttenuatedBloomFilter(depth=4, width=1024)
        assert f.size_bytes() == 4 * 128


def make_grid_locator(side=4, depth=3):
    kernel = Kernel()
    graph = nx.grid_2d_graph(side, side)
    graph = nx.convert_node_labels_to_integers(graph)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    network = Network(kernel, graph)
    locator = ProbabilisticLocator(network, depth=depth, width=4096)
    return network, locator


class TestProbabilisticLocator:
    def test_local_hit_zero_hops(self):
        _, locator = make_grid_locator()
        g = GUID.hash_of(b"obj")
        locator.add_object(5, g)
        locator.converge()
        result = locator.query(5, g)
        assert result.found and result.location == 5 and result.hops == 0

    def test_finds_neighbor_object(self):
        network, locator = make_grid_locator()
        g = GUID.hash_of(b"obj")
        locator.add_object(1, g)
        locator.converge()
        result = locator.query(0, g)
        assert result.found and result.location == 1
        assert result.hops == network.hop_count(0, 1)

    def test_finds_object_within_depth(self):
        network, locator = make_grid_locator(side=5, depth=4)
        g = GUID.hash_of(b"obj")
        locator.add_object(12, g)  # center of 5x5 grid
        locator.converge()
        # Node 2 hops away should find it.
        sources = [n for n in network.nodes() if network.hop_count(n, 12) == 2]
        result = locator.query(sources[0], g)
        assert result.found
        assert result.hops == 2  # optimal: filters point straight at it

    def test_fails_beyond_horizon(self):
        network, locator = make_grid_locator(side=6, depth=2)
        g = GUID.hash_of(b"obj")
        locator.add_object(0, g)
        locator.converge()
        far = max(network.nodes(), key=lambda n: network.hop_count(n, 0))
        assert network.hop_count(far, 0) > 4  # beyond any filter signal
        result = locator.query(far, g)
        assert not result.found

    def test_unknown_object_fails_fast(self):
        _, locator = make_grid_locator()
        locator.converge()
        result = locator.query(0, GUID.hash_of(b"nothing"))
        assert not result.found
        assert result.hops == 0  # no filter claims it anywhere

    def test_remove_object(self):
        _, locator = make_grid_locator()
        g = GUID.hash_of(b"obj")
        locator.add_object(5, g)
        locator.converge()
        locator.remove_object(5, g)
        locator.converge()
        assert not locator.query(4, g).found
        assert g not in locator.objects_at(5)

    def test_refresh_propagates_one_hop_per_round(self):
        network, locator = make_grid_locator(side=5, depth=4)
        g = GUID.hash_of(b"obj")
        locator.add_object(12, g)
        locator.refresh_round()  # neighbors learn distance 0 about node 12
        neighbor = network.neighbors(12)[0]
        result = locator.query(neighbor, g)
        assert result.found
        # A node 3 hops away has no signal yet.
        three_away = [n for n in network.nodes() if network.hop_count(n, 12) == 3][0]
        assert not locator.query(three_away, g).found

    def test_down_neighbor_not_used(self):
        network, locator = make_grid_locator()
        g = GUID.hash_of(b"obj")
        locator.add_object(1, g)
        locator.converge()
        network.set_down(1)
        result = locator.query(0, g)
        assert not result.found or result.location != 1

    def test_refresh_bytes_accounted(self):
        _, locator = make_grid_locator()
        locator.refresh_round()
        assert locator.stats_refresh_bytes > 0


def count_builds(monkeypatch, locator):
    """Record the node of every advertisement the locator rebuilds from now on.

    A read first runs any rounds a converge() left pending, so only later
    work is counted.  Nodes are told apart by their local filter object.
    """
    locator.advertisement(0)
    built = []
    original = AttenuatedBloomFilter.from_local_and_neighbors
    owner = {id(state.local_filter): node for node, state in locator._nodes.items()}

    def counting(depth, width, hashes, local, neighbor_filters):
        built.append(owner[id(local)])
        return original(depth, width, hashes, local, neighbor_filters)

    monkeypatch.setattr(AttenuatedBloomFilter, "from_local_and_neighbors", counting)
    return built


class TestIncrementalRefresh:
    """Refresh costs what changed: the work, pinned by counting it."""

    def test_converged_round_builds_nothing(self, monkeypatch):
        _, locator = make_grid_locator(side=5)
        locator.add_object(12, GUID.hash_of(b"obj"))
        locator.converge()
        bytes_before = locator.stats_refresh_bytes
        built = count_builds(monkeypatch, locator)
        locator.refresh_round()
        assert built == []
        # ...yet every live edge was still pushed, at the full wire size.
        edges = 2 * 5 * 4 * 2  # directed edges of a 5x5 grid
        assert locator.stats_refresh_bytes - bytes_before == edges * 3 * 4096 // 8

    def test_add_rebuilds_only_within_depth(self, monkeypatch):
        network, locator = make_grid_locator(side=6, depth=2)
        locator.add_object(35, GUID.hash_of(b"elsewhere"))
        locator.converge()
        built = count_builds(monkeypatch, locator)
        locator.add_object(0, GUID.hash_of(b"obj"))
        locator.converge()
        locator.advertisement(0)  # the read runs the rounds
        assert 0 in built
        assert {network.hop_count(node, 0) for node in built} == {0, 1, 2}
        assert len(set(built)) < network.graph.number_of_nodes()

    def test_neighbors_share_one_published_advertisement(self):
        network, locator = make_grid_locator()
        locator.add_object(5, GUID.hash_of(b"obj"))
        locator.converge()
        assert not hasattr(AttenuatedBloomFilter, "copy")
        for node in network.nodes():
            ad = locator.advertisement(node)
            for neighbor in network.neighbors(node):
                assert locator.neighbor_filters(neighbor)[node] is ad

    def test_published_advertisements_are_never_mutated(self):
        network, locator = make_grid_locator()
        g1, g2 = GUID.hash_of(b"one"), GUID.hash_of(b"two")
        locator.add_object(5, g1)
        locator.converge()
        published = {}
        for node in network.nodes():
            ad = locator.advertisement(node)
            published[node] = (ad, [lvl.bits for lvl in ad.levels])
        locator.add_object(10, g2)
        locator.remove_object(5, g1)
        network.set_down(6)
        locator.converge()
        network.set_down(6, False)
        locator.converge()
        replaced = 0
        for node, (ad, bits) in published.items():
            assert [lvl.bits for lvl in ad.levels] == bits
            replaced += locator.advertisement(node) is not ad
        assert replaced > 0

    def test_neighbor_lists_are_computed_once(self):
        network, _ = make_grid_locator()
        first = network.neighbors(5)
        assert first == (1, 4, 6, 9)
        assert network.neighbors(5) is first


class TestDeferredConverge:
    """converge() charges its rounds at once and runs them at the next read."""

    @staticmethod
    def converge_then_query(monkeypatch, converges):
        _, locator = make_grid_locator(side=5)
        locator.add_object(0, GUID.hash_of(b"first"))
        locator.converge()
        with monkeypatch.context() as patch:
            built = count_builds(patch, locator)
            locator.add_object(12, GUID.hash_of(b"obj"))
            bytes_before = locator.stats_refresh_bytes
            for _ in range(converges):
                locator.converge()
            assert built == []  # charged, not yet run
            charged = locator.stats_refresh_bytes - bytes_before
            assert locator.query(2, GUID.hash_of(b"obj")).found
        return sorted(built), charged

    def test_repeated_converges_build_once(self, monkeypatch):
        once, one_charge = self.converge_then_query(monkeypatch, 1)
        thrice, three_charges = self.converge_then_query(monkeypatch, 3)
        assert once and thrice == once
        edges = 2 * 5 * 4 * 2  # directed edges of a 5x5 grid
        assert one_charge == (3 + 1) * edges * 3 * 4096 // 8
        assert three_charges == 3 * one_charge

    def test_wipe_roots_leaves_filters_blank_until_next_converge(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=0,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4
                ),
            )
        )
        ctx = ChaosContext("wipe", 0, ChaosConfig())
        ctx.system, ctx.kernel = system, system.kernel
        guid = GUID.hash_of(b"rooted")
        system.create_object(guid)  # its converge is still pending
        ctx.guids.append(guid)
        wipe_roots(ctx)
        locator, nodes = system.probabilistic, sorted(system.network.nodes())
        for node in nodes:
            assert not locator.query(node, guid).hops
        assert all(locator.neighbor_filters(node) == {} for node in nodes)
        locator.converge()
        network = system.network
        for node in nodes:
            live = [n for n in network.neighbors(node) if not network.is_down(n)]
            expected = [] if network.is_down(node) else live
            assert sorted(locator.neighbor_filters(node)) == expected


class TestReliabilityFactors:
    def test_penalty_diverts_queries(self):
        """A neighbor advertising objects it cannot serve loses traffic."""
        kernel = Kernel()
        graph = nx.Graph()
        # client(0) has two neighbors (1: liar, 2: honest); both claim
        # the object one hop beyond, but only 2's path (via 3) is real.
        graph.add_edge(0, 1, latency_ms=5.0)   # liar is closer
        graph.add_edge(0, 2, latency_ms=10.0)
        graph.add_edge(2, 3, latency_ms=10.0)
        graph.add_edge(1, 3, latency_ms=50.0)
        network = Network(kernel, graph)
        locator = ProbabilisticLocator(network, depth=3, width=1024)
        g = GUID.hash_of(b"the-object")
        locator.add_object(3, g)
        locator.converge()
        # The liar's filter would naturally win on latency tie-break.
        first = locator.query(0, g)
        assert first.found
        assert first.path[1] == 1  # the liar attracts the query first
        # The client penalizes the liar after bad service.
        locator.penalize(0, 1, amount=2.0)
        second = locator.query(0, g)
        assert second.found
        assert second.path[1] == 2  # traffic routed around the abuser

    def test_forgive_restores(self):
        _, locator = make_grid_locator()
        locator.penalize(0, 1, amount=3.0)
        assert locator.penalty(0, 1) == 3.0
        locator.forgive(0, 1)
        assert locator.penalty(0, 1) == 0.0

    def test_penalties_accumulate(self):
        _, locator = make_grid_locator()
        locator.penalize(0, 1)
        locator.penalize(0, 1)
        assert locator.penalty(0, 1) == 2.0

    def test_negative_penalty_rejected(self):
        _, locator = make_grid_locator()
        with pytest.raises(ValueError):
            locator.penalize(0, 1, amount=-1.0)
