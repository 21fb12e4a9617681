"""Tests for the cryptographic substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    BLOCK_SIZE,
    KeyRing,
    MerkleTree,
    PositionDependentCipher,
    SearchableCipher,
    derive_key,
    generate_keypair,
    make_principal,
    server_search,
    verify_proof,
)
from repro.crypto.rsa import _fdh
from repro.crypto.searchable import WORD_BYTES
from repro.util import GUID


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(random.Random(1234))


class TestHashes:
    def test_derive_key_length(self):
        assert len(derive_key(b"m" * 16, "label", 48)) == 48

    def test_derive_key_label_separation(self):
        master = b"m" * 16
        assert derive_key(master, "a") != derive_key(master, "b")

    def test_derive_key_invalid_length(self):
        with pytest.raises(ValueError):
            derive_key(b"m" * 16, "x", 0)


class TestBlockCipher:
    def test_round_trip(self):
        cipher = PositionDependentCipher(b"k" * 16)
        plain = b"hello world" * 10
        assert cipher.decrypt_block(3, cipher.encrypt_block(3, plain)) == plain

    def test_deterministic_at_position(self):
        cipher = PositionDependentCipher(b"k" * 16)
        assert cipher.encrypt_block(5, b"data") == cipher.encrypt_block(5, b"data")

    def test_position_dependent(self):
        cipher = PositionDependentCipher(b"k" * 16)
        assert cipher.encrypt_block(1, b"data") != cipher.encrypt_block(2, b"data")

    def test_key_dependent(self):
        c1 = PositionDependentCipher(b"k" * 16)
        c2 = PositionDependentCipher(b"j" * 16)
        assert c1.encrypt_block(1, b"data") != c2.encrypt_block(1, b"data")

    def test_wrong_position_garbles(self):
        cipher = PositionDependentCipher(b"k" * 16)
        ct = cipher.encrypt_block(1, b"data")
        assert cipher.decrypt_block(2, ct) != b"data"

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            PositionDependentCipher(b"short")

    def test_negative_position_rejected(self):
        # Both ends of [0, 2**64): the position is encoded in 8 bytes.
        cipher = PositionDependentCipher(b"k" * 16)
        for position in (-1, 1 << 64):
            with pytest.raises(ValueError, match=str(position)):
                cipher.encrypt_block(position, b"x")

    def test_largest_position_accepted(self):
        cipher = PositionDependentCipher(b"k" * 16)
        top = (1 << 64) - 1
        assert cipher.decrypt_block(top, cipher.encrypt_block(top, b"x")) == b"x"

    def test_known_answer(self):
        # SHAKE-256(key || position as 8 big-endian bytes), XORed with 40
        # zero bytes: longer than one 32-byte hash output, so a change to
        # how the keystream is drawn fails here, not only in golden.json.
        cipher = PositionDependentCipher(bytes(range(16)))
        assert cipher.encrypt_block(7, bytes(40)).hex() == (
            "aba2cb8a2543ac20f0080b167b4bbe146c267390"
            "c79ad9084815cc72ce97b4c2cdb89b87a59be381"
        )

    def test_full_block_size(self):
        cipher = PositionDependentCipher(b"k" * 16)
        plain = bytes(range(256)) * (BLOCK_SIZE // 256)
        assert len(plain) == BLOCK_SIZE
        assert cipher.decrypt_block(0, cipher.encrypt_block(0, plain)) == plain

    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=25)
    def test_round_trip_property(self, plain, position):
        cipher = PositionDependentCipher(b"k" * 16)
        assert cipher.decrypt_block(position, cipher.encrypt_block(position, plain)) == plain

    @given(
        key=st.binary(min_size=16, max_size=64),
        position=st.integers(min_value=0, max_value=(1 << 63) - 1),
        plain=st.binary(max_size=2 * BLOCK_SIZE + 1),
        cut=st.integers(min_value=0, max_value=2 * BLOCK_SIZE + 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_keystream_properties(self, key, position, plain, cut):
        cipher = PositionDependentCipher(key)
        ct = cipher.encrypt_block(position, plain)
        assert len(ct) == len(plain)
        assert cipher.decrypt_block(position, ct) == plain
        # One keystream per position: a prefix encrypts to the prefix.
        assert cipher.encrypt_block(position, plain[:cut]) == ct[:cut]


class TestRSA:
    def test_sign_verify(self, keypair):
        message = b"update: replace block 7"
        sig = keypair.sign(message)
        assert keypair.public.verify(message, sig)

    def test_tampered_message_fails(self, keypair):
        sig = keypair.sign(b"original")
        assert not keypair.public.verify(b"tampered", sig)

    def test_tampered_signature_fails(self, keypair):
        sig = bytearray(keypair.sign(b"message"))
        sig[0] ^= 0xFF
        assert not keypair.public.verify(b"message", bytes(sig))

    def test_wrong_key_fails(self, keypair):
        other = generate_keypair(random.Random(999))
        sig = keypair.sign(b"message")
        assert not other.public.verify(b"message", sig)

    def test_signature_out_of_range_rejected(self, keypair):
        too_big = keypair.n.to_bytes((keypair.n.bit_length() + 7) // 8, "big")
        assert not keypair.public.verify(b"m", too_big)
        assert not keypair.public.verify(b"m", b"\x00")

    def test_deterministic_keygen(self):
        k1 = generate_keypair(random.Random(5), bits=256)
        k2 = generate_keypair(random.Random(5), bits=256)
        assert k1.n == k2.n

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(random.Random(0), bits=64)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        bits=st.integers(min_value=128, max_value=512),
        message=st.binary(max_size=256),
    )
    @settings(max_examples=40, deadline=None)
    def test_crt_signature_is_the_textbook_signature(self, seed, bits, message):
        key = generate_keypair(random.Random(seed), bits=bits)
        assert key.p * key.q == key.n
        textbook = pow(_fdh(message, key.n), key.d, key.n)
        width = (key.n.bit_length() + 7) // 8
        signature = key.sign(message)
        assert signature == textbook.to_bytes(width, "big")
        assert key.public.verify(message, signature)


class TestMerkle:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert verify_proof(b"only", tree.proof(0), tree.root)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 16, 17])
    def test_all_leaves_verify(self, count):
        leaves = [f"fragment-{i}".encode() for i in range(count)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(leaf, tree.proof(i), tree.root)

    def test_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        assert not verify_proof(b"x", tree.proof(1), tree.root)

    def test_wrong_index_proof_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        assert not verify_proof(b"a", tree.proof(1), tree.root)

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not verify_proof(b"a", tree.proof(0), other.root)

    def test_root_sensitive_to_any_leaf(self):
        base = MerkleTree([b"a", b"b", b"c"])
        for i, mutated in enumerate([[b"x", b"b", b"c"], [b"a", b"x", b"c"], [b"a", b"b", b"x"]]):
            assert MerkleTree(mutated).root != base.root, f"leaf {i}"

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.proof(2)

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_verify_property(self, leaves):
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert verify_proof(leaf, tree.proof(i), tree.root)


class TestSearchableEncryption:
    def test_decrypt_round_trip(self):
        cipher = SearchableCipher(b"m" * 16)
        words = ["the", "quick", "brown", "fox"]
        cells = cipher.encrypt_words(words)
        assert cipher.decrypt_words(cells) == words

    def test_server_finds_matches_without_keys(self):
        cipher = SearchableCipher(b"m" * 16)
        words = ["alpha", "beta", "alpha", "gamma"]
        cells = cipher.encrypt_words(words)
        matches = server_search(cells, cipher.trapdoor("alpha"))
        assert [m.position for m in matches] == [0, 2]

    def test_absent_word_no_matches(self):
        cipher = SearchableCipher(b"m" * 16)
        cells = cipher.encrypt_words(["alpha", "beta"])
        assert server_search(cells, cipher.trapdoor("missing")) == []

    def test_cells_hide_equal_words(self):
        # Equal words at different positions yield different ciphertext.
        cipher = SearchableCipher(b"m" * 16)
        cells = cipher.encrypt_words(["same", "same"])
        assert cells[0] != cells[1]

    def test_base_position_offsets_stream(self):
        cipher = SearchableCipher(b"m" * 16)
        cells = cipher.encrypt_words(["word"], base_position=100)
        assert cipher.decrypt_words(cells, base_position=100) == ["word"]
        # Decrypting at the wrong base position garbles (wrong words or
        # bytes that are not even valid UTF-8).
        try:
            garbled = cipher.decrypt_words(cells, base_position=0)
        except UnicodeDecodeError:
            pass
        else:
            assert garbled != ["word"]

    def test_trapdoor_from_other_key_fails(self):
        cipher = SearchableCipher(b"m" * 16)
        other = SearchableCipher(b"x" * 16)
        cells = cipher.encrypt_words(["alpha", "beta"])
        assert server_search(cells, other.trapdoor("alpha")) == []

    def test_word_too_long_rejected(self):
        cipher = SearchableCipher(b"m" * 16)
        with pytest.raises(ValueError):
            cipher.encrypt_words(["x" * (WORD_BYTES + 1)])

    def test_cell_width_fixed(self):
        cipher = SearchableCipher(b"m" * 16)
        cells = cipher.encrypt_words(["a", "longer-word-here"])
        assert all(len(c) == WORD_BYTES for c in cells)

    @given(st.lists(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=12), min_size=1, max_size=8))
    @settings(max_examples=25)
    def test_search_property(self, words):
        cipher = SearchableCipher(b"m" * 16)
        cells = cipher.encrypt_words(words)
        assert cipher.decrypt_words(cells) == words
        target = words[0]
        matches = {m.position for m in server_search(cells, cipher.trapdoor(target))}
        expected = {i for i, w in enumerate(words) if w == target}
        assert matches == expected


class TestPrincipalsAndKeyRing:
    def test_principal_guid_self_certifying(self):
        p = make_principal("alice", random.Random(0), bits=256)
        assert p.guid == GUID.hash_of(p.public_key.to_bytes())

    def test_keyring_create_and_fetch(self):
        p = make_principal("alice", random.Random(0), bits=256)
        ring = KeyRing(p, random.Random(1))
        guid = GUID.hash_of(b"obj")
        key = ring.create_object_key(guid)
        assert ring.key_for(guid) == key
        assert ring.has_key(guid)

    def test_missing_key_raises(self):
        p = make_principal("alice", random.Random(0), bits=256)
        ring = KeyRing(p, random.Random(1))
        with pytest.raises(KeyError):
            ring.key_for(GUID.hash_of(b"missing"))

    def test_revoke_increments_generation(self):
        p = make_principal("alice", random.Random(0), bits=256)
        ring = KeyRing(p, random.Random(1))
        guid = GUID.hash_of(b"obj")
        k0 = ring.create_object_key(guid)
        k1 = ring.revoke_and_rekey(guid)
        assert k1.generation == k0.generation + 1
        assert k1.key != k0.key

    def test_grant_newer_generation_wins(self):
        alice = make_principal("alice", random.Random(0), bits=256)
        bob = make_principal("bob", random.Random(2), bits=256)
        alice_ring = KeyRing(alice, random.Random(1))
        bob_ring = KeyRing(bob, random.Random(3))
        guid = GUID.hash_of(b"obj")
        k0 = alice_ring.create_object_key(guid)
        bob_ring.grant(k0)
        k1 = alice_ring.revoke_and_rekey(guid)
        bob_ring.grant(k1)
        bob_ring.grant(k0)  # stale grant ignored
        assert bob_ring.key_for(guid).generation == 1

    def test_subkey_separation(self):
        p = make_principal("alice", random.Random(0), bits=256)
        ring = KeyRing(p, random.Random(1))
        key = ring.create_object_key(GUID.hash_of(b"obj"))
        assert key.subkey("blocks") != key.subkey("search")
