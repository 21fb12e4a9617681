"""Tests for self-certifying naming, directories, SDSI, and versions."""

import random

import pytest

from repro.crypto import make_principal
from repro.naming import (
    Directory,
    DirectoryResolver,
    NameCertificate,
    NameNotFound,
    NamespaceStore,
    NotADirectory,
    ResolutionError,
    RetentionPolicy,
    VersionPolicy,
    VersionedName,
    object_guid,
    parse_versioned_name,
    split_path,
    verify_object_guid,
)
from repro.util import GUID


@pytest.fixture(scope="module")
def alice():
    return make_principal("alice", random.Random(10), bits=256)


@pytest.fixture(scope="module")
def bob():
    return make_principal("bob", random.Random(11), bits=256)


class TestSelfCertifyingGUIDs:
    def test_object_guid_verifies(self, alice):
        guid = object_guid(alice.public_key, "notes.txt")
        assert verify_object_guid(guid, alice.public_key, "notes.txt")

    def test_wrong_owner_fails(self, alice, bob):
        guid = object_guid(alice.public_key, "notes.txt")
        assert not verify_object_guid(guid, bob.public_key, "notes.txt")

    def test_wrong_name_fails(self, alice):
        guid = object_guid(alice.public_key, "notes.txt")
        assert not verify_object_guid(guid, alice.public_key, "other.txt")

    def test_hijack_impossible(self, alice, bob):
        # Bob cannot claim Alice's name: his (key, name) hashes elsewhere.
        assert object_guid(alice.public_key, "n") != object_guid(bob.public_key, "n")


class TestDirectory:
    def test_bind_lookup(self):
        d = Directory()
        target = GUID.hash_of(b"t")
        d.bind("file", target)
        assert d.lookup("file").target == target
        assert "file" in d

    def test_missing_lookup_raises(self):
        with pytest.raises(NameNotFound):
            Directory().lookup("nope")

    def test_unbind(self):
        d = Directory()
        d.bind("x", GUID.hash_of(b"t"))
        d.unbind("x")
        assert "x" not in d
        with pytest.raises(NameNotFound):
            d.unbind("x")

    def test_invalid_names_rejected(self):
        d = Directory()
        with pytest.raises(ValueError):
            d.bind("", GUID.hash_of(b"t"))
        with pytest.raises(ValueError):
            d.bind("a/b", GUID.hash_of(b"t"))

    def test_list_sorted(self):
        d = Directory()
        for name in ["zeta", "alpha", "mid"]:
            d.bind(name, GUID.hash_of(name.encode()))
        assert [e.name for e in d.list()] == ["alpha", "mid", "zeta"]

    def test_dict_round_trip(self):
        d = Directory()
        d.bind("f", GUID.hash_of(b"f"))
        d.bind("sub", GUID.hash_of(b"s"), is_directory=True)
        restored = Directory.from_dict(d.to_dict())
        assert restored.lookup("f").target == d.lookup("f").target
        assert restored.lookup("sub").is_directory


class TestResolver:
    @pytest.fixture()
    def tree(self):
        """root/ -> {docs/ -> {paper}, readme}"""
        store: dict[GUID, Directory] = {}
        root_guid = GUID.hash_of(b"root")
        docs_guid = GUID.hash_of(b"docs")
        paper_guid = GUID.hash_of(b"paper")
        readme_guid = GUID.hash_of(b"readme")
        root = Directory()
        root.bind("docs", docs_guid, is_directory=True)
        root.bind("readme", readme_guid)
        docs = Directory()
        docs.bind("paper", paper_guid)
        store[root_guid] = root
        store[docs_guid] = docs
        return store, root_guid, paper_guid, readme_guid

    def test_resolve_nested(self, tree):
        store, root_guid, paper_guid, _ = tree
        resolver = DirectoryResolver(store.__getitem__)
        assert resolver.resolve(root_guid, "docs/paper") == paper_guid

    def test_resolve_single(self, tree):
        store, root_guid, _, readme_guid = tree
        resolver = DirectoryResolver(store.__getitem__)
        assert resolver.resolve(root_guid, "readme") == readme_guid

    def test_resolve_through_file_fails(self, tree):
        store, root_guid, _, _ = tree
        resolver = DirectoryResolver(store.__getitem__)
        with pytest.raises(NotADirectory):
            resolver.resolve(root_guid, "readme/inner")

    def test_resolve_missing_fails(self, tree):
        store, root_guid, _, _ = tree
        resolver = DirectoryResolver(store.__getitem__)
        with pytest.raises(NameNotFound):
            resolver.resolve(root_guid, "docs/missing")

    def test_leading_trailing_slashes_ignored(self, tree):
        store, root_guid, paper_guid, _ = tree
        resolver = DirectoryResolver(store.__getitem__)
        assert resolver.resolve(root_guid, "/docs/paper/") == paper_guid

    def test_split_path(self):
        assert split_path("a/b/c") == ["a", "b", "c"]
        assert split_path("///a//b/") == ["a", "b"]


class TestSDSI:
    def test_issue_and_verify(self, alice, bob):
        cert = NameCertificate.issue(alice, "bob", bob.public_key)
        assert cert.verify()

    def test_tampered_certificate_fails(self, alice, bob):
        cert = NameCertificate.issue(alice, "bob", bob.public_key)
        forged = NameCertificate(
            issuer_key=cert.issuer_key,
            nickname="mallory",
            subject_key=cert.subject_key,
            signature=cert.signature,
        )
        assert not forged.verify()

    def test_store_rejects_invalid(self, alice, bob):
        cert = NameCertificate.issue(alice, "bob", bob.public_key)
        forged = NameCertificate(
            issuer_key=cert.issuer_key,
            nickname="other",
            subject_key=cert.subject_key,
            signature=cert.signature,
        )
        store = NamespaceStore()
        with pytest.raises(ValueError):
            store.add(forged)

    def test_chain_resolution(self, alice, bob):
        carol = make_principal("carol", random.Random(12), bits=256)
        store = NamespaceStore()
        store.add(NameCertificate.issue(alice, "bob", bob.public_key))
        store.add(NameCertificate.issue(bob, "carol", carol.public_key))
        resolved = store.resolve_chain(alice.public_key, ["bob", "carol"])
        assert resolved == carol.public_key

    def test_chain_missing_hop(self, alice):
        store = NamespaceStore()
        with pytest.raises(ResolutionError):
            store.resolve_chain(alice.public_key, ["nobody"])

    def test_empty_chain_is_identity(self, alice):
        store = NamespaceStore()
        assert store.resolve_chain(alice.public_key, []) == alice.public_key

    def test_namespaces_are_local(self, alice, bob):
        # "bob" in Alice's namespace is unrelated to "bob" in Bob's.
        carol = make_principal("carol", random.Random(13), bits=256)
        store = NamespaceStore()
        store.add(NameCertificate.issue(alice, "friend", bob.public_key))
        store.add(NameCertificate.issue(bob, "friend", carol.public_key))
        assert store.resolve_chain(alice.public_key, ["friend"]) == bob.public_key
        assert store.resolve_chain(bob.public_key, ["friend"]) == carol.public_key


class TestVersionedNames:
    def test_format_parse_round_trip(self):
        name = VersionedName(guid=GUID(12345), version=7)
        assert parse_versioned_name(name.format()) == name

    def test_latest_round_trip(self):
        name = VersionedName(guid=GUID(12345), version=None)
        parsed = parse_versioned_name(name.format())
        assert parsed.version is None

    def test_bare_hex_is_latest(self):
        hex_str = GUID(99).hex()
        assert parse_versioned_name(hex_str).version is None

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_versioned_name("not-hex@3")
        with pytest.raises(ValueError):
            parse_versioned_name("abc@")  # wrong length and empty version

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            parse_versioned_name("ff@1")


class TestVersionPolicy:
    def test_keep_all(self):
        policy = VersionPolicy(RetentionPolicy.KEEP_ALL)
        assert policy.retained([3, 1, 2]) == [1, 2, 3]

    def test_keep_last_n(self):
        policy = VersionPolicy(RetentionPolicy.KEEP_LAST_N, keep_last=2)
        assert policy.retained([1, 2, 3, 4]) == [3, 4]

    def test_keep_last_n_invalid(self):
        policy = VersionPolicy(RetentionPolicy.KEEP_LAST_N, keep_last=0)
        with pytest.raises(ValueError):
            policy.retained([1])

    def test_landmarks_always_keep_latest(self):
        policy = VersionPolicy(RetentionPolicy.KEEP_LANDMARKS, landmark_interval=10)
        assert policy.retained([5, 10, 15, 20, 23]) == [10, 20, 23]

    def test_empty(self):
        assert VersionPolicy().retained([]) == []
