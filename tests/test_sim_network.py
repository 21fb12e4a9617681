"""Tests for the simulated network and failure injection."""

import random

import networkx as nx
import pytest

from repro.sim import (
    ChurnParams,
    FailureInjector,
    Kernel,
    Network,
    TopologyParams,
    build_transit_stub_topology,
)


def make_line_network(kernel, latencies=(10.0, 20.0)):
    """0 --10ms-- 1 --20ms-- 2"""
    graph = nx.Graph()
    graph.add_edge(0, 1, latency_ms=latencies[0])
    graph.add_edge(1, 2, latency_ms=latencies[1])
    return Network(kernel, graph)


class TestTopology:
    def test_connected(self):
        rng = random.Random(0)
        graph = build_transit_stub_topology(TopologyParams(), rng)
        assert nx.is_connected(graph)

    def test_node_count(self):
        params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
        graph = build_transit_stub_topology(params, random.Random(1))
        assert graph.number_of_nodes() == 4 + 4 * 2 * 5

    def test_all_edges_have_latency(self):
        graph = build_transit_stub_topology(TopologyParams(), random.Random(2))
        assert all("latency_ms" in d for _, _, d in graph.edges(data=True))
        assert all(d["latency_ms"] > 0 for _, _, d in graph.edges(data=True))

    def test_deterministic_given_seed(self):
        g1 = build_transit_stub_topology(TopologyParams(), random.Random(7))
        g2 = build_transit_stub_topology(TopologyParams(), random.Random(7))
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_kinds_assigned(self):
        graph = build_transit_stub_topology(TopologyParams(), random.Random(3))
        kinds = {d["kind"] for _, d in graph.nodes(data=True)}
        assert kinds == {"transit", "stub"}


class TestDelivery:
    def test_delivery_latency(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(1, lambda m: received.append((kernel.now, m.payload)))
        net.send(0, 1, "hello", size_bytes=100)
        kernel.run()
        assert len(received) == 1
        t, payload = received[0]
        assert payload == "hello"
        assert t == pytest.approx(10.0 + Network.PER_MESSAGE_OVERHEAD_MS)

    def test_multi_hop_latency(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(2, lambda m: received.append(kernel.now))
        net.send(0, 2, "x", size_bytes=1)
        kernel.run()
        assert received[0] == pytest.approx(30.0 + Network.PER_MESSAGE_OVERHEAD_MS)

    def test_byte_accounting(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        net.register(1, lambda m: None)
        net.send(0, 1, "a", size_bytes=500)
        net.send(0, 1, "b", size_bytes=300)
        kernel.run()
        assert net.stats_total_messages == 2
        assert net.stats_total_bytes == 800
        assert net.link_stats[(0, 1)].bytes == 800

    def test_unregistered_destination_drops(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert net.stats_dropped == 1

    def test_down_node_drops(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(1, lambda m: received.append(m))
        net.set_down(1)
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert received == []
        assert net.stats_dropped == 1

    def test_crash_mid_flight_drops(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(1, lambda m: received.append(m))
        net.send(0, 1, "x", size_bytes=1)
        kernel.call_at(5.0, lambda: net.set_down(1))
        kernel.run()
        assert received == []

    def test_revive_restores_delivery(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(1, lambda m: received.append(m.payload))
        net.set_down(1)
        net.set_down(1, False)
        net.send(0, 1, "x", size_bytes=1)
        kernel.run()
        assert received == ["x"]

    def test_partition_blocks_both_directions(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(0, lambda m: received.append(m))
        net.register(2, lambda m: received.append(m))
        net.add_partition({0}, {2})
        net.send(0, 2, "x", size_bytes=1)
        net.send(2, 0, "y", size_bytes=1)
        kernel.run()
        assert received == []
        net.heal_partitions()
        net.send(0, 2, "z", size_bytes=1)
        kernel.run()
        assert len(received) == 1

    def test_self_send_zero_latency_path(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        received = []
        net.register(0, lambda m: received.append(kernel.now))
        net.send(0, 0, "x", size_bytes=1)
        kernel.run()
        assert received[0] == pytest.approx(Network.PER_MESSAGE_OVERHEAD_MS)

    def test_hop_count(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        assert net.hop_count(0, 2) == 2
        assert net.hop_count(0, 0) == 0

    def test_no_path_raises(self):
        kernel = Kernel()
        graph = nx.Graph()
        graph.add_node(0)
        graph.add_node(1)
        net = Network(kernel, graph)
        with pytest.raises(ValueError):
            net.latency_ms(0, 1)


class TestFailureInjector:
    def test_crash_and_revive_callbacks(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        injector = FailureInjector(kernel, net, random.Random(0))
        crashed, revived = [], []
        injector.on_crash(crashed.append)
        injector.on_revive(revived.append)
        injector.crash(1)
        assert net.is_down(1)
        injector.crash(1)  # idempotent
        injector.revive(1)
        assert not net.is_down(1)
        assert crashed == [1]
        assert revived == [1]

    def test_crash_fraction(self):
        kernel = Kernel()
        graph = nx.path_graph(100)
        nx.set_edge_attributes(graph, 1.0, "latency_ms")
        net = Network(kernel, graph)
        injector = FailureInjector(kernel, net, random.Random(0))
        victims = injector.crash_fraction(list(range(100)), 0.25)
        assert len(victims) == 25
        assert all(net.is_down(v) for v in victims)

    def test_churn_cycles_node(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        injector = FailureInjector(kernel, net, random.Random(42))
        transitions = []
        injector.on_crash(lambda n: transitions.append("down"))
        injector.on_revive(lambda n: transitions.append("up"))
        injector.start_churn([1], ChurnParams(mean_uptime_ms=100.0, mean_downtime_ms=50.0))
        kernel.run(until=5000.0)
        assert len(transitions) > 4
        # Transitions strictly alternate starting with a crash.
        assert transitions[0] == "down"
        assert all(a != b for a, b in zip(transitions, transitions[1:]))

    def test_stop_churn(self):
        kernel = Kernel()
        net = make_line_network(kernel)
        injector = FailureInjector(kernel, net, random.Random(42))
        injector.start_churn([1], ChurnParams(mean_uptime_ms=10.0, mean_downtime_ms=10.0))
        kernel.run(until=100.0)
        injector.stop_churn()
        was_down = net.is_down(1)
        kernel.run(until=10_000.0)
        assert net.is_down(1) == was_down
