"""An update keeps what it proved, not its encoding (DESIGN §31).

The signed body of an update is needed for one signature check.  After
it, servers read three small facts: the body's SHA-256, its wire size and
the verdict.  These tests pin each memo to the rule it replaces:

- the key's verify memo against plain RSA;
- an update's digest, size and verdict against its own encoding;
- the ring, secondary and ACL paths that read them.

A retained-bytes guard checks that a run of commits leaves no encoding
behind.
"""

import gc
import random
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import ACL, ACLCertificate, Privilege
from repro.access.policy import DEFAULT_OWNER_ONLY
from repro.consistency import InnerRing, SecondaryTier, update_digest
from repro.core import DeploymentConfig, OceanStoreSystem, make_client
from repro.crypto import generate_keypair, make_principal, rsa, sha256
from repro.crypto.rsa import PublicKey, _fdh
from repro.data import AppendBlock, TruePredicate, Update, UpdateBranch, make_update
from repro.naming import object_guid
from repro.sim import Kernel, Network, TopologyParams
from repro.util import serialization

KEY = generate_keypair(random.Random(52), bits=256)
WIDTH = (KEY.n.bit_length() + 7) // 8


def plain_verify(public: PublicKey, message: bytes, signature: bytes) -> bool:
    """The full-domain-hash RSA rule with no memo."""
    s = int.from_bytes(signature, "big")
    return 0 < s < public.n and pow(s, public.e, public.n) == _fdh(message, public.n)


def _signature(kind: str, message: bytes, flip: int, raw: bytes) -> bytes:
    if kind == "valid":
        return KEY.sign(message)
    if kind == "flipped":
        sig = bytearray(KEY.sign(message))
        sig[flip % WIDTH] ^= 1 << (flip % 8)
        return bytes(sig)
    if kind == "zero":
        return bytes(WIDTH)
    if kind == "modulus":
        return KEY.n.to_bytes(WIDTH, "big")
    if kind == "above":
        return (KEY.n + flip).to_bytes(WIDTH + 1, "big")
    return raw


_CALLS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["valid", "flipped", "zero", "modulus", "above", "raw"]),
        st.integers(min_value=0, max_value=10_000),
        st.binary(max_size=WIDTH + 2),
    ),
    min_size=1,
    max_size=24,
)


class TestVerifyMemo:
    @given(
        messages=st.lists(st.binary(max_size=96), min_size=1, max_size=4),
        calls=_CALLS,
        bound=st.sampled_from([2, rsa._VERIFY_MEMO_ENTRIES]),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoized_verify_is_the_plain_rule(self, messages, calls, bound):
        """Repeated and interleaved calls, with evictions at a bound of
        two, give exactly the plain rule's verdicts; no memo key holds a
        message."""
        public = PublicKey(KEY.n, KEY.public.e)  # an empty memo per example
        with mock.patch.object(rsa, "_VERIFY_MEMO_ENTRIES", bound):
            for index, kind, flip, raw in calls:
                message = messages[index % len(messages)]
                signature = _signature(kind, message, flip, raw)
                expected = plain_verify(public, message, signature)
                assert public.verify(message, signature) is expected
                assert public.verify(message, signature) is expected
        assert len(public._verified) <= bound
        for digest_int, signature in public._verified:
            assert isinstance(digest_int, int)
            assert len(signature) <= WIDTH + 2


@pytest.fixture(scope="module")
def author():
    return make_principal("author", random.Random(77), bits=256)


def _update(author, payload=b"body", ts=1.0):
    guid = object_guid(author.public_key, "memo")
    branch = UpdateBranch(TruePredicate(), (AppendBlock(payload),))
    return make_update(author, guid, [branch], ts)


def _encoding(update: Update) -> bytes:
    return serialization.encode(update.payload_dict())


def _memos(update: Update) -> tuple:
    return (update._body, update._digest, update._size, update._verdict)


class TestUpdateMemos:
    def test_make_update_seeds_digest_and_size(self, author):
        update = _update(author)
        body = _encoding(update)
        assert update_digest(update) == sha256(body) == update.update_id
        assert update.size_bytes() == len(body) + len(update.signature)

    def test_verify_consumes_the_encoding_and_keeps_what_it_proved(
        self, author, monkeypatch
    ):
        update = _update(author)
        digest, size = update_digest(update), update.size_bytes()
        assert update.verify_signature()
        assert update._body is None
        encodes = []
        monkeypatch.setattr(serialization, "encode", lambda v: encodes.append(v))
        assert update.verify_signature()
        assert (update_digest(update), update.size_bytes()) == (digest, size)
        assert encodes == []

    def test_replace_inherits_no_memo(self, author):
        genuine = _update(author)
        assert genuine.verify_signature()
        other = (UpdateBranch(TruePredicate(), (AppendBlock(b"other body"),)),)
        for changed in (
            replace(genuine, timestamp=2.0),
            replace(genuine, branches=other),
            replace(genuine, signature=bytes(len(genuine.signature))),
        ):
            assert _memos(changed) == (None, None, None, None)
            body = _encoding(changed)
            assert update_digest(changed) == sha256(body)
            assert changed.size_bytes() == len(body) + len(changed.signature)
            assert not changed.verify_signature()

    def test_a_false_update_id_is_never_the_digest(self, author):
        genuine = _update(author)
        liar = Update(
            object_guid=genuine.object_guid,
            branches=genuine.branches,
            timestamp=genuine.timestamp,
            client_key=genuine.client_key,
            update_id=sha256(b"some other update"),
            signature=genuine.signature,
        )
        assert update_digest(liar) == sha256(_encoding(liar)) == genuine.update_id
        assert update_digest(liar) != liar.update_id
        assert liar.verify_signature()  # the same body under the same signature


def _ring_and_tier(guid, n=4):
    """A 4-replica ring (m = 1), one secondary and one client on a
    complete 50 ms graph."""
    kernel = Kernel()
    graph = nx.complete_graph(n + 2)
    nx.set_edge_attributes(graph, 50.0, "latency_ms")
    network = Network(kernel, graph)
    rng = random.Random(0)
    principals = [make_principal(f"replica-{i}", rng, bits=256) for i in range(n)]
    ring = InnerRing(kernel, network, list(range(n)), principals, m=1)
    tier = SecondaryTier(network, guid, root_contact=0, rng=random.Random(1))
    tier.add_replica(n)
    return kernel, ring, tier.replicas[n], n + 1


class TestBadSignatures:
    def test_dropped_at_every_ring_replica_and_at_a_secondary(self, author):
        """A forgery made from a verified update inherits no verdict."""
        genuine = _update(author)
        assert genuine.verify_signature()
        flipped = bytearray(genuine.signature)
        flipped[-1] ^= 1
        forged = replace(genuine, signature=bytes(flipped))
        kernel, ring, secondary, client = _ring_and_tier(genuine.object_guid)
        executed = []
        ring.on_execute(lambda replica, seq, update: executed.append(update))
        ring.submit(client, forged)
        kernel.run(until=10_000.0)
        assert executed == []
        for replica in ring.replicas:
            assert update_digest(forged) not in replica.known_by_digest
        secondary.add_tentative(forged)
        assert forged.update_id not in secondary.tentative
        secondary.add_tentative(genuine)
        assert secondary.tentative[genuine.update_id] is genuine


def _small_system(seed: int, **overrides) -> OceanStoreSystem:
    return OceanStoreSystem(
        DeploymentConfig(
            seed=seed,
            topology=TopologyParams(transit_nodes=4, stubs_per_transit=1, nodes_per_stub=4),
            **overrides,
        )
    )


class TestAclPath:
    def test_refused_and_allowed_writes_encode_each_update_once(self, monkeypatch):
        """The ACL check reads the verdict the ring already holds: each
        update is encoded once, when its author signs it."""
        system = _small_system(7, archive_every_commit=False)
        alice = make_client(system, "alice", seed=10)
        mallory = make_client(system, "mallory", seed=11)
        bob = make_client(system, "bob", seed=12)
        guarded = alice.create_object("guarded")
        shared = alice.create_object("shared")
        system.access.install_default(
            guarded.guid, alice.principal.public_key, DEFAULT_OWNER_ONLY
        )
        acl = ACL()
        acl.grant(bob.principal.public_key, Privilege.WRITE)
        assert system.access.install_acl(
            shared.guid, acl, ACLCertificate.issue(alice.principal, shared.guid, acl)
        )
        encoded = []
        encode = serialization.encode

        def counting(value):
            if isinstance(value, dict) and "branches" in value:
                encoded.append(value)
            return encode(value)

        monkeypatch.setattr(serialization, "encode", counting)
        assert alice.write(guarded, b"mine").committed
        alice.grant_read(guarded.guid, mallory.keyring)
        refused = mallory.append(mallory.open_object(guarded.guid), b"tampered")
        assert not refused.committed
        assert alice.read(guarded) == b"mine"
        alice.grant_read(shared.guid, bob.keyring)
        assert bob.append(bob.open_object(shared.guid), b"from bob").committed
        assert alice.read(shared) == b"from bob"
        assert len(encoded) == 3


class TestRetainedBytes:
    """What a commit leaves behind beyond its payloads (the archival
    fragments and the new version's ciphertext): PBFT's slot record, the
    version logs and the block index, about 16.2 KiB per 16 KiB overwrite
    on CPython 3.11.  A signed body kept per update adds about its own
    size again (34.3 KiB).  The bound sits between the two, with room for
    other 3.10-3.12 object layouts."""

    PAYLOAD = 16 * 1024
    BOUND_BYTES_PER_COMMIT = 24 * 1024

    def test_commits_keep_no_signed_body(self):
        system = _small_system(3)
        alice = make_client(system, "alice", seed=1)
        rng = random.Random(5)
        handles = [alice.create_object(f"doc-{i}") for i in range(4)]
        for handle in handles:
            assert alice.write(handle, rng.randbytes(self.PAYLOAD)).committed
        archives_before = set(system.archive_index.objects)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            commits = 0
            for _ in range(8):
                for handle in handles:
                    builder = alice.update_builder(handle).guard_version()
                    for slot in range(len(builder.expected.data.slots)):
                        builder.delete(slot)
                    builder.append(rng.randbytes(self.PAYLOAD))
                    alice.submit(handle, builder, wait=False)
                    commits += 1
                system.settle(1_000.0)
            system.settle(5_000.0)
            del builder
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        archival_bytes = sum(
            sys.getsizeof(fragment.payload)
            for guid_bytes, (archival, _) in system.archive_index.objects.items()
            if guid_bytes not in archives_before
            for fragment in archival.fragments
        )
        per_commit = (retained - archival_bytes) / commits - self.PAYLOAD
        assert 0 < per_commit < self.BOUND_BYTES_PER_COMMIT
        versions = {system.read_state(h.guid, False, 0).version for h in handles}
        assert versions == {9}  # every overwrite committed
        executed = {
            id(update): update
            for ring in system.rings.rings()
            for replica in ring.replicas
            for update in replica.known_by_digest.values()
            if update.update_id in replica.executed_updates
        }
        assert len(executed) >= commits
        assert all(update._body is None for update in executed.values())
        keys = [o for o in gc.get_objects() if type(o) is PublicKey]
        assert keys
        for key in keys:
            for memo_key in key._verified:
                assert not any(
                    isinstance(part, bytes) and len(part) > WIDTH for part in memo_key
                )
