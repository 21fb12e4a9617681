"""Key-pool differential harness: identities minted on first use vs the eager loop.

A deployment's server identities come from one ``KeyPool``: ``pool[node]``
first mints every earlier node (in sorted order) still unminted, then
returns the one asked for.  The form it replaced minted every server's
key up front, in sorted node order, from the same RNG stream.  Its
contract is that every key anything reads is bit-identical to the eager
loop's, whatever order lookups arrive in.

A Hypothesis property draws node sets and access orders (repeats
included) and compares ``n``, ``e``, ``d``, ``p`` and ``q`` of every key
touched against the eager reference.  The mint-count guards build real
deployments and count ``generate_keypair`` calls: set-up mints only the
ring members' keys, and a handoff mints no further than the prefix up to
its highest elected spare.  A change that touches every
``server.principal`` quietly restores the eager cost,
and these guards catch it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.keys as keys_module
from repro.core import DeploymentConfig, OceanStoreSystem, RecoveryConfig
from repro.crypto import KeyPool, make_principal
from repro.data import AppendBlock, TruePredicate, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import TopologyParams
from repro.util.rng import SeedSequence

#: oceanbench's two deployment shapes: 44 and 152 servers
SMALL = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)
LARGE = TopologyParams(transit_nodes=8, stubs_per_transit=3, nodes_per_stub=6)
TINY = TopologyParams(transit_nodes=4, stubs_per_transit=1, nodes_per_stub=2)

AUTHOR = make_principal("key-pool-author", random.Random(77), bits=128)


def _eager(nodes, rng, bits):
    """The reference: every node's key minted up front, in sorted order."""
    return {
        node: make_principal(f"server-{node}", rng, bits=bits)
        for node in sorted(nodes)
    }


def _same_key(left, right):
    a, b = left.private_key, right.private_key
    return (
        left.name == right.name
        and (a.n, a.public.e, a.d, a.p, a.q) == (b.n, b.public.e, b.d, b.p, b.q)
    )


@pytest.fixture
def mints(monkeypatch):
    """Count every RSA key generated while the test runs."""
    count = [0]
    generate = keys_module.generate_keypair

    def counting(*args, **kwargs):
        count[0] += 1
        return generate(*args, **kwargs)

    monkeypatch.setattr(keys_module, "generate_keypair", counting)
    return count


class TestKeyPoolDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        nodes=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_any_access_order_returns_the_eager_keys(self, data, nodes, seed):
        accesses = data.draw(st.lists(st.sampled_from(sorted(nodes)), max_size=16))
        reference = _eager(nodes, random.Random(seed), bits=128)
        pool = KeyPool(nodes, random.Random(seed), bits=128)
        for node in accesses:
            assert _same_key(pool[node], reference[node])
        # Only the prefix up to the highest node touched is minted.
        ranks = [sorted(nodes).index(node) for node in accesses]
        assert len(pool) == (max(ranks) + 1 if ranks else 0)

    def test_unknown_node_raises_and_mints_nothing(self, mints):
        pool = KeyPool([3, 1, 2], random.Random(0), bits=128)
        with pytest.raises(KeyError):
            pool[7]
        assert len(pool) == 0 and mints[0] == 0

    def test_deployment_servers_hold_the_eager_keys(self):
        config = DeploymentConfig(topology=TINY, seed=5)
        system = OceanStoreSystem(config)
        nodes = sorted(system.servers)
        reference = _eager(
            nodes, SeedSequence(config.seed).derive("identities"), bits=256
        )
        for node in reversed(nodes):
            server = system.servers[node]
            assert _same_key(server.principal, reference[node])
            assert server.principal.guid == reference[node].guid


class TestMintCount:
    @pytest.mark.parametrize("topology", [SMALL, LARGE], ids=["small", "large"])
    def test_setup_mints_only_ring_members(self, mints, topology):
        config = DeploymentConfig(topology=topology)
        system = OceanStoreSystem(config)
        assert mints[0] == config.ring_size * config.ring_count
        assert len(system.identities) == mints[0]

    def test_sharded_setup_mints_only_ring_members(self, mints):
        config = DeploymentConfig(
            topology=TopologyParams(transit_nodes=8, stubs_per_transit=1, nodes_per_stub=2),
            ring_count=2,
        )
        OceanStoreSystem(config)
        assert mints[0] == config.ring_size * config.ring_count

    def test_handoff_mints_at_most_the_prefix_to_its_spare(self, mints):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=3,
                ring_count=2,
                topology=TopologyParams(
                    transit_nodes=12, stubs_per_transit=1, nodes_per_stub=2
                ),
                recovery=RecoveryConfig(
                    enabled=True,
                    heartbeat_interval_ms=1_000.0,
                    heartbeat_timeout_ms=600.0,
                    suspicion_threshold=2,
                    refresh_interval_ms=10_000.0,
                ),
            )
        )
        assert mints[0] == 8
        guid = object_guid(AUTHOR.public_key, "key-pool-object")
        system.create_object(guid)
        client = sorted(
            n for n, d in system.graph.nodes(data=True) if d["kind"] == "stub"
        )[0]
        system.submit_update(
            client,
            make_update(
                AUTHOR, guid, [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))], 1.0
            ),
        )
        system.settle(20_000.0)
        shard = system.rings.shards[1]
        old_members = list(shard.members)
        system.injector.crash(old_members[-1])
        system.settle(60_000.0)

        spares = [m for m in shard.members if m not in old_members]
        assert system.handoff.stats_handoffs >= 1 and spares
        prefix = sorted(system.servers).index(max(spares)) + 1
        assert mints[0] == len(system.identities) <= prefix
