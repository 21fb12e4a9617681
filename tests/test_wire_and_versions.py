"""Tests for versioned reads and the remaining sim utilities (stats,
subscribe semantics)."""

import random

import networkx as nx
import pytest

from reference_backend import LocalBackend
from repro.api import OceanStoreHandle, UnknownObject
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import KeyRing, make_principal
from repro.sim import Distribution, Kernel, Network, TopologyParams


class TestVersionedReads:
    def test_local_backend_versions(self):
        principal = make_principal("v-local", random.Random(91), bits=256)
        store = OceanStoreHandle(
            LocalBackend(), principal, KeyRing(principal, random.Random(92))
        )
        obj = store.create_object("versioned")
        store.write(obj, b"one")
        store.append(obj, b" two")
        assert store.read_version(obj, 1) == b"one"
        assert store.read_version(obj, 2) == b"one two"
        assert store.read(obj) == b"one two"

    def test_local_backend_missing_version(self):
        principal = make_principal("v-miss", random.Random(93), bits=256)
        store = OceanStoreHandle(
            LocalBackend(), principal, KeyRing(principal, random.Random(94))
        )
        obj = store.create_object("v")
        store.write(obj, b"x")
        with pytest.raises(UnknownObject):
            store.read_version(obj, 9)

    def test_system_versions_from_log_and_archive(self):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=95,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                archival_k=4,
                archival_n=8,
            )
        )
        client = make_client(system, "versioner", seed=96)
        obj = client.create_object("history")
        client.write(obj, b"draft")   # version 1
        client.write(obj, b"final")   # version 2
        assert client.read_version(obj, 1) == b"draft"
        assert client.read(obj) == b"final"
        # Retire old versions from the primary log; archive still serves.
        from repro.naming import RetentionPolicy, VersionPolicy

        primary = system.servers[system.ring_nodes[0]].objects[obj.guid]
        primary.log.retire(VersionPolicy(RetentionPolicy.KEEP_LAST_N, keep_last=1))
        assert client.read_version(obj, 1) == b"draft"


class TestSimStats:
    def test_distribution_summary(self):
        d = Distribution()
        for value in [1, 2, 3, 4, 5]:
            d.add(value)
        assert d.mean == 3
        assert d.percentile(50) == 3
        assert d.min == 1 and d.max == 5
        assert d.percentile(0) == 1
        assert d.percentile(100) == 5
        assert d.count == 5

    def test_percentile_interpolation(self):
        d = Distribution([0.0, 10.0])
        assert d.percentile(50) == 5.0
        assert d.percentile(25) == 2.5

    def test_empty_errors(self):
        d = Distribution()
        with pytest.raises(ValueError):
            _ = d.mean
        with pytest.raises(ValueError):
            d.percentile(50)

    def test_percentile_bounds(self):
        d = Distribution()
        d.add(1)
        with pytest.raises(ValueError):
            d.percentile(101)

class TestNetworkSubscribe:
    def make_net(self):
        kernel = Kernel()
        graph = nx.path_graph(2)
        nx.set_edge_attributes(graph, 5.0, "latency_ms")
        return kernel, Network(kernel, graph)

    def test_multiple_subscribers_all_receive(self):
        kernel, net = self.make_net()
        seen_a, seen_b = [], []
        net.subscribe(1, lambda m: seen_a.append(m.payload))
        net.subscribe(1, lambda m: seen_b.append(m.payload))
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert seen_a == ["x"] and seen_b == ["x"]

    def test_register_replaces_subscribers(self):
        kernel, net = self.make_net()
        old, new = [], []
        net.subscribe(1, lambda m: old.append(m.payload))
        net.register(1, lambda m: new.append(m.payload))
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert old == [] and new == ["x"]

    def test_unsubscribe_specific_handler(self):
        kernel, net = self.make_net()
        keep, drop = [], []
        keeper = lambda m: keep.append(m.payload)  # noqa: E731
        dropper = lambda m: drop.append(m.payload)  # noqa: E731
        net.subscribe(1, keeper)
        net.subscribe(1, dropper)
        net.unsubscribe(1, dropper)
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert keep == ["x"] and drop == []

    def test_subscribe_unknown_node_rejected(self):
        kernel, net = self.make_net()
        with pytest.raises(KeyError):
            net.subscribe(99, lambda m: None)
