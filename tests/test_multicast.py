"""Tests for multicast and admission control on the Plaxton substrate."""

import random

import pytest

from repro.routing import (
    AdmissionDenied,
    MulticastError,
    MulticastService,
    PlaxtonMesh,
)
from repro.sim import Kernel, Network, TopologyParams, build_transit_stub_topology
from repro.util import GUID


@pytest.fixture()
def world():
    rng = random.Random(0)
    kernel = Kernel()
    params = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
    graph = build_transit_stub_topology(params, rng)
    network = Network(kernel, graph)
    mesh = PlaxtonMesh(network, rng)
    mesh.populate(sorted(network.nodes()))
    return kernel, network, mesh


def group(label=b"chat-room"):
    return GUID.hash_of(label)


class TestMembership:
    def test_join_and_members(self, world):
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        for member in nodes[:5]:
            service.join(group(), member)
        assert service.members(group()) == set(nodes[:5])

    def test_join_idempotent(self, world):
        _, _, mesh = world
        service = MulticastService(mesh)
        service.join(group(), 5)
        service.join(group(), 5)
        assert len(service.members(group())) == 1

    def test_admission_cap(self, world):
        _, _, mesh = world
        service = MulticastService(mesh, max_members=2)
        nodes = sorted(mesh.nodes)
        service.join(group(), nodes[0])
        service.join(group(), nodes[1])
        with pytest.raises(AdmissionDenied):
            service.join(group(), nodes[2])

    def test_admission_policy(self, world):
        _, _, mesh = world
        service = MulticastService(
            mesh, admission_policy=lambda g, member: member % 2 == 0
        )
        service.join(group(), 4)
        with pytest.raises(AdmissionDenied):
            service.join(group(), 5)

    def test_invalid_config(self, world):
        _, _, mesh = world
        with pytest.raises(MulticastError):
            MulticastService(mesh, max_members=0)


class TestDissemination:
    def test_all_members_receive(self, world):
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        members = nodes[3:11]
        for member in members:
            service.join(group(), member)
        sender = nodes[0]
        report = service.send(group(), sender, payload="announcement", size_bytes=256)
        assert set(report.delivered_to) == set(members)
        assert report.max_latency_ms > 0

    def test_interior_nodes_share_edges(self, world):
        # Tree dissemination sends fewer messages than naive unicast when
        # join paths share hops.
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        members = nodes[5:25]
        for member in members:
            service.join(group(b"big-group"), member)
        report = service.send(group(b"big-group"), nodes[0], "x", 64)
        assert set(report.delivered_to) == set(members)
        # Naive unicast from sender: hops(sender->m) per member; the tree
        # must not exceed one message per tree edge + route to root.
        naive = sum(
            len(mesh.route_to_root(m, group(b"big-group")).path) - 1 for m in members
        )
        assert report.messages_sent <= naive

    def test_empty_group_send(self, world):
        _, _, mesh = world
        service = MulticastService(mesh)
        report = service.send(group(b"empty"), 0, "x", 1)
        assert report.delivered_to == ()
        assert report.messages_sent == 0

    def test_dead_member_skipped(self, world):
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        members = nodes[3:8]
        for member in members:
            service.join(group(), member)
        network.set_down(members[0])
        report = service.send(group(), nodes[0], "x", 1)
        assert members[0] not in report.delivered_to
        assert set(report.delivered_to) == set(members[1:])
        network.set_down(members[0], False)

    def test_member_sender_receives_nothing_extra(self, world):
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        for member in nodes[3:6]:
            service.join(group(), member)
        report = service.send(group(), nodes[3], "self-send", 32)
        # The sender is a member: it appears in the delivery set exactly
        # once (via the tree), like everyone else.
        assert report.delivered_to.count(nodes[3]) == 1

    def test_messages_actually_on_network(self, world):
        kernel, network, mesh = world
        service = MulticastService(mesh)
        nodes = sorted(mesh.nodes)
        for member in nodes[3:7]:
            service.join(group(), member)
        before = network.stats_total_messages
        service.send(group(), nodes[0], "wire", 128)
        assert network.stats_total_messages > before
