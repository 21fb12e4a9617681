"""Tests for client-chosen block identities and concurrent commutativity,
plus a randomized multi-client soak test of the full system."""

import random

import pytest

from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import KeyRing, make_principal
from repro.data import (
    AppendBlock,
    ClientCodec,
    DataObjectState,
    TruePredicate,
    UpdateBranch,
    UpdateBuilder,
    apply_update,
    make_update,
)
from repro.data.blocks import EXPLICIT_ID_BASE, BlockStructureError, CipherObject
from repro.naming import object_guid
from repro.sim import TopologyParams


class TestExplicitIds:
    def test_explicit_append(self):
        obj = CipherObject()
        bid = obj.append(b"ct", block_id=EXPLICIT_ID_BASE | 42)
        assert bid == EXPLICIT_ID_BASE | 42
        assert obj.logical_ciphertext() == [b"ct"]

    def test_collision_rejected(self):
        obj = CipherObject()
        obj.append(b"a", block_id=EXPLICIT_ID_BASE | 1)
        with pytest.raises(BlockStructureError):
            obj.append(b"b", block_id=EXPLICIT_ID_BASE | 1)

    def test_negative_rejected(self):
        obj = CipherObject()
        with pytest.raises(BlockStructureError):
            obj.append(b"a", block_id=-5)

    def test_sequential_default_untouched(self):
        obj = CipherObject()
        assert obj.append(b"a") == 0
        obj.append(b"b", block_id=EXPLICIT_ID_BASE | 7)
        assert obj.append(b"c") == 1  # counter ignores explicit ids

    def test_explicit_replace_and_insert(self):
        obj = CipherObject()
        obj.append(b"x")
        obj.replace(0, b"y", block_id=EXPLICIT_ID_BASE | 2)
        assert obj.slots == [EXPLICIT_ID_BASE | 2]
        obj.insert(0, b"z", block_id=EXPLICIT_ID_BASE | 3)
        assert obj.logical_ciphertext() == [b"z", b"y"]


class TestBuilderIdentities:
    def make_codec(self, seed=140):
        principal = make_principal("id-user", random.Random(seed), bits=256)
        ring = KeyRing(principal, random.Random(seed + 1))
        guid = object_guid(principal.public_key, "ids")
        return principal, guid, ClientCodec(ring.create_object_key(guid))

    def test_builder_ids_in_explicit_namespace(self):
        principal, guid, codec = self.make_codec()
        state = DataObjectState()
        update = (
            UpdateBuilder(codec, state, entropy=b"e1")
            .append(b"data")
            .build(principal, guid, 1.0)
        )
        _, state = apply_update(state, update)
        (block_id, _), = state.data.logical_blocks()
        assert block_id >= EXPLICIT_ID_BASE

    def test_distinct_entropy_distinct_ids(self):
        principal, guid, codec = self.make_codec()
        base = DataObjectState()
        u1 = UpdateBuilder(codec, base.copy(), entropy=b"alice").append(b"a")
        u2 = UpdateBuilder(codec, base.copy(), entropy=b"bob").append(b"b")
        # Both built against the same empty state; both commit in either
        # order because their identities never collide.
        state = DataObjectState()
        r1, state = apply_update(state, u1.build(principal, guid, 1.0))
        r2, state = apply_update(state, u2.build(principal, guid, 2.0))
        assert r1.committed and r2.committed
        assert codec.read_document(state.data) == b"ab"

    def test_concurrent_appends_decrypt_in_any_order(self):
        principal, guid, codec = self.make_codec(seed=150)
        base = DataObjectState()
        updates = [
            UpdateBuilder(codec, base.copy(), entropy=f"client-{i}".encode())
            .append(f"part-{i};".encode())
            .build(principal, guid, float(i))
            for i in range(4)
        ]
        rng = random.Random(0)
        for trial in range(5):
            order = list(updates)
            rng.shuffle(order)
            state = DataObjectState()
            for update in order:
                outcome, state = apply_update(state, update)
                assert outcome.committed
            text = codec.read_document(state.data)
            # All parts present and individually intact, in commit order.
            assert sorted(text.decode().rstrip(";").split(";")) == [
                f"part-{i}" for i in range(4)
            ]

    def test_same_entropy_same_state_collides(self):
        # The documented hazard: identical entropy against the same base
        # state produces identical identities; the second commit aborts
        # rather than corrupting data.
        principal, guid, codec = self.make_codec(seed=151)
        base = DataObjectState()
        u1 = UpdateBuilder(codec, base.copy(), entropy=b"same").append(b"a")
        u2 = UpdateBuilder(codec, base.copy(), entropy=b"same").append(b"b")
        state = DataObjectState()
        outcome, state = apply_update(state, u1.build(principal, guid, 1.0))
        assert outcome.committed
        outcome, state = apply_update(state, u2.build(principal, guid, 2.0))
        assert not outcome.committed
        assert codec.read_document(state.data) == b"a"

    def test_detached_id_stays_spent(self):
        # Replace drops the old block, but its client-chosen id must never
        # be reusable: the cipher keys on it, so reuse would encrypt new
        # content under the old keystream.
        principal, guid, codec = self.make_codec(seed=152)
        state = DataObjectState()
        first = UpdateBuilder(codec, state, entropy=b"v1").append(b"old")
        _, state = apply_update(state, first.build(principal, guid, 1.0))
        (old_id, _), = state.data.logical_blocks()
        second = UpdateBuilder(codec, state, entropy=b"v2").replace(0, b"new")
        outcome, state = apply_update(state, second.build(principal, guid, 2.0))
        assert outcome.committed
        assert old_id not in state.data.blocks

        ciphertext = codec.encrypt_block(old_id, b"reused")
        reuse = make_update(
            principal,
            guid,
            [UpdateBranch(TruePredicate(), (AppendBlock(ciphertext, old_id),))],
            3.0,
        )
        outcome, after = apply_update(state, reuse)
        assert not outcome.committed and outcome.branch_index == 0
        assert after is state
        with pytest.raises(BlockStructureError, match="block id collision"):
            state.copy().data.append(ciphertext, old_id)


class TestMultiClientSoak:
    def test_randomized_operations_converge(self):
        """Random reads/appends/overwrites from several clients: every
        commit is readable, primaries agree, archives restore."""
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=160,
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=4
                ),
                secondaries_per_object=2,
                archival_k=4,
                archival_n=8,
            )
        )
        owner = make_client(system, "owner", seed=161)
        others = [make_client(system, f"peer-{i}", seed=162 + i) for i in range(2)]
        objects = []
        for i in range(3):
            handle = owner.create_object(f"soak-{i}")
            owner.write(handle, f"object {i} base;".encode())
            objects.append(handle)
            for peer in others:
                owner.grant_read(handle.guid, peer.keyring)

        rng = random.Random(163)
        clients = [owner] + others
        commits = 0
        for step in range(40):
            client = rng.choice(clients)
            target = rng.choice(objects)
            handle = (
                target if client is owner else client.open_object(target.guid)
            )
            roll = rng.random()
            if roll < 0.5:
                data = client.read(handle)
                assert data == b"" or data.endswith(b";")
            elif roll < 0.9:
                result = client.append(handle, f"s{step};".encode())
                assert result.committed
                commits += 1
            else:
                result = client.write(handle, f"rewrite {step};".encode())
                if result.committed:
                    commits += 1
        assert commits > 10
        system.settle(60_000.0)

        for handle in objects:
            # Every primary replica agrees on final content.
            contents = set()
            for node in system.ring_nodes:
                state = system.servers[node].objects[handle.guid].active
                contents.add(tuple(state.data.logical_ciphertext()))
            assert len(contents) == 1
            # The latest version restores from archival fragments alone.
            version = system.servers[system.ring_nodes[0]].objects[handle.guid].version
            restored = system.restore_from_archive(handle.guid, version)
            assert (
                owner.open_object(handle.guid).codec.read_document(restored.data)
                == owner.read(owner.open_object(handle.guid))
            )
