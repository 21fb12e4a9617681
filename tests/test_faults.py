"""Unit tests for the fault-injection substrate.

Covers the per-link message fault schedules (:mod:`repro.sim.faults`),
their integration with :class:`~repro.sim.network.Network` (drop,
duplication, corruption, reordering, asymmetric partitions), and the
crash/churn fixes in :mod:`repro.sim.failures`.
"""

import math
import random

import networkx as nx
import pytest

from repro.sim import (
    ChurnParams,
    Corrupted,
    FailureInjector,
    Kernel,
    LinkFaultRule,
    Network,
    NetworkFaultInjector,
)
from repro.sim.faults.network import NO_FAULT


def make_net(n=4, latency=10.0):
    kernel = Kernel()
    graph = nx.complete_graph(n)
    nx.set_edge_attributes(graph, latency, "latency_ms")
    return kernel, Network(kernel, graph)


# ---------------------------------------------------------------------------
# LinkFaultRule matching and validation
# ---------------------------------------------------------------------------


def test_rule_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        LinkFaultRule(drop=1.5)
    with pytest.raises(ValueError):
        LinkFaultRule(corrupt=-0.1)
    with pytest.raises(ValueError):
        LinkFaultRule(reorder_delay_ms=-1.0)
    with pytest.raises(ValueError):
        LinkFaultRule(start_ms=100.0, end_ms=50.0)


def test_rule_time_window_is_half_open():
    rule = LinkFaultRule(start_ms=100.0, end_ms=200.0, drop=1.0)
    assert not rule.matches(0, 1, 99.9)
    assert rule.matches(0, 1, 100.0)
    assert rule.matches(0, 1, 199.9)
    assert not rule.matches(0, 1, 200.0)


def test_rule_wildcards_and_endpoints():
    assert LinkFaultRule(drop=1.0).matches(3, 7, 0.0)  # both wildcards
    targeted = LinkFaultRule(src=3, dst=7, drop=1.0)
    assert targeted.matches(3, 7, 0.0)
    assert targeted.matches(7, 3, 0.0)  # bidirectional by default
    assert not targeted.matches(3, 5, 0.0)
    one_way = LinkFaultRule(src=3, dst=7, drop=1.0, bidirectional=False)
    assert one_way.matches(3, 7, 0.0)
    assert not one_way.matches(7, 3, 0.0)


def test_rule_open_ended_window_matches_forever():
    rule = LinkFaultRule(drop=1.0)
    assert rule.end_ms == math.inf
    assert rule.matches(0, 1, 1e12)


# ---------------------------------------------------------------------------
# NetworkFaultInjector.decide
# ---------------------------------------------------------------------------


def test_decide_without_rules_is_no_fault():
    injector = NetworkFaultInjector(rng=random.Random(0))
    assert injector.decide(0, 1, 0.0) is NO_FAULT


def test_decide_drop_short_circuits_other_effects():
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(drop=1.0, duplicate=1.0, corrupt=1.0))
    decision = injector.decide(0, 1, 0.0)
    assert decision.drop
    assert decision.duplicates == 0 and not decision.corrupt
    assert injector.stats_dropped == 1
    assert injector.stats_duplicated == 0


def test_decide_accumulates_across_matching_rules():
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(duplicate=1.0))
    injector.add_rule(LinkFaultRule(duplicate=1.0, reorder=1.0, corrupt=1.0))
    decision = injector.decide(0, 1, 0.0)
    assert decision.duplicates == 2
    assert decision.extra_delay_ms > 0.0
    assert decision.corrupt
    assert injector.stats_duplicated == 2
    assert injector.stats_reordered == 1
    assert injector.stats_corrupted == 1


def test_clear():
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(drop=1.0))
    injector.clear()
    assert injector.decide(0, 1, 0.0) is NO_FAULT


# ---------------------------------------------------------------------------
# Network integration
# ---------------------------------------------------------------------------


def deliver_all(kernel, network, src, dst, payloads):
    """Send payloads src->dst, run the kernel, return delivered payloads."""
    received = []
    network.register(dst, lambda msg: received.append(msg.payload))
    for payload in payloads:
        network.send(src, dst, payload, size_bytes=100)
    kernel.run(until=10_000.0)
    return received


def test_network_drops_when_rule_fires():
    kernel, network = make_net()
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(drop=1.0))
    network.fault_injector = injector
    assert deliver_all(kernel, network, 0, 1, ["ping"]) == []
    assert network.stats_dropped == 1


def test_network_duplicates_messages():
    kernel, network = make_net()
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(duplicate=1.0))
    network.fault_injector = injector
    assert deliver_all(kernel, network, 0, 1, ["ping"]) == ["ping", "ping"]


def test_network_corrupts_payload_but_still_delivers():
    kernel, network = make_net()
    injector = NetworkFaultInjector(rng=random.Random(0))
    injector.add_rule(LinkFaultRule(corrupt=1.0))
    network.fault_injector = injector
    received = deliver_all(kernel, network, 0, 1, ["ping"])
    assert len(received) == 1
    assert isinstance(received[0], Corrupted)
    assert received[0].original == "ping"


def test_network_reorder_delays_past_later_traffic():
    kernel, network = make_net()
    injector = NetworkFaultInjector(rng=random.Random(7))
    # Only the first message matches the (tiny) window; huge delay
    # guarantees it arrives after the second, undelayed message.
    injector.add_rule(
        LinkFaultRule(end_ms=0.5, reorder=1.0, reorder_delay_ms=5_000.0)
    )
    network.fault_injector = injector
    received = []
    network.register(1, lambda msg: received.append(msg.payload))
    network.send(0, 1, "first", size_bytes=10)
    kernel.call_after(1.0, lambda: network.send(0, 1, "second", size_bytes=10))
    kernel.run(until=60_000.0)
    assert received == ["second", "first"]


def test_asymmetric_partition_is_directional():
    kernel, network = make_net()
    network.add_asymmetric_partition({0}, {1})
    received = []
    network.register(0, lambda msg: received.append(("to0", msg.payload)))
    network.register(1, lambda msg: received.append(("to1", msg.payload)))
    network.send(0, 1, "req", size_bytes=10)  # cut direction
    network.send(1, 0, "ack", size_bytes=10)  # open direction
    kernel.run(until=1_000.0)
    assert received == [("to0", "ack")]
    network.heal_partitions()
    network.send(0, 1, "req2", size_bytes=10)
    kernel.run(until=2_000.0)
    assert ("to1", "req2") in received


def test_symmetric_partition_cuts_both_ways():
    kernel, network = make_net()
    network.add_partition({0}, {1})
    received = []
    network.register(0, lambda msg: received.append(msg.payload))
    network.register(1, lambda msg: received.append(msg.payload))
    network.send(0, 1, "a", size_bytes=10)
    network.send(1, 0, "b", size_bytes=10)
    kernel.run(until=1_000.0)
    assert received == []


# ---------------------------------------------------------------------------
# FailureInjector: crash_fraction and churn-generation fixes
# ---------------------------------------------------------------------------


def test_crash_fraction_samples_only_live_nodes():
    kernel, network = make_net(n=10)
    injector = FailureInjector(kernel, network, random.Random(3))
    pre_downed = [0, 1, 2, 3, 4]
    for node in pre_downed:
        injector.crash(node)
    crashes = []
    injector.on_crash(crashes.append)
    victims = injector.crash_fraction(list(range(10)), 0.5)
    # Half of 10 nodes requested; all five victims must come from the
    # live half -- crashing an already-down node would shrink the storm.
    assert len(victims) == 5
    assert set(victims) == {5, 6, 7, 8, 9}
    assert crashes == victims  # the callback fired once per real crash


def test_crash_fraction_caps_at_live_population():
    kernel, network = make_net(n=4)
    injector = FailureInjector(kernel, network, random.Random(3))
    injector.crash(0)
    injector.crash(1)
    victims = injector.crash_fraction([0, 1, 2, 3], 1.0)
    assert set(victims) == {2, 3}


def test_stop_churn_invalidates_pending_transitions():
    kernel, network = make_net(n=6)
    injector = FailureInjector(kernel, network, random.Random(5))
    nodes = list(range(6))
    injector.start_churn(nodes, ChurnParams(mean_uptime_ms=50.0, mean_downtime_ms=20.0))
    kernel.run(until=500.0)
    injector.stop_churn()
    for node in nodes:
        injector.revive(node)
    # Closures scheduled before stop_churn() are still in the kernel
    # queue; the generation bump must turn them into no-ops.
    kernel.run(until=100_000.0)
    assert all(not network.is_down(node) for node in nodes)


def test_churn_restart_does_not_double_drive():
    kernel, network = make_net(n=2)
    injector = FailureInjector(kernel, network, random.Random(5))
    transitions = []
    injector.on_crash(lambda node: transitions.append(("down", node, kernel.now)))
    injector.on_revive(lambda node: transitions.append(("up", node, kernel.now)))
    params = ChurnParams(mean_uptime_ms=100.0, mean_downtime_ms=100.0)
    injector.start_churn([0], params)
    injector.stop_churn()
    injector.start_churn([0], params)
    kernel.run(until=10_000.0)
    # A node driven by overlapping schedules would show consecutive
    # same-direction transitions; a single schedule strictly alternates.
    directions = [direction for direction, node, _ in transitions if node == 0]
    assert all(a != b for a, b in zip(directions, directions[1:]))
    assert directions  # churn actually ran


def test_start_churn_is_idempotent_while_running():
    kernel, network = make_net(n=2)
    injector = FailureInjector(kernel, network, random.Random(5))
    transitions = []
    injector.on_crash(lambda node: transitions.append("down"))
    injector.on_revive(lambda node: transitions.append("up"))
    params = ChurnParams(mean_uptime_ms=100.0, mean_downtime_ms=100.0)
    injector.start_churn([0], params)
    injector.start_churn([0], params)  # second call must not add a driver
    kernel.run(until=10_000.0)
    assert all(a != b for a, b in zip(transitions, transitions[1:]))
