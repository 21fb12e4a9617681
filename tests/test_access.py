"""Tests for ACLs, owner certificates, and server-side write checks."""

import random

import pytest

from repro.access import (
    ACL,
    ACLCertificate,
    AccessChecker,
    DEFAULT_OWNER_ONLY,
    DEFAULT_PUBLIC_WRITE,
    Privilege,
    WriteDecision,
    acl_digest,
)
from repro.crypto import make_principal
from repro.naming import object_guid


@pytest.fixture(scope="module")
def owner():
    return make_principal("owner", random.Random(20), bits=256)


@pytest.fixture(scope="module")
def writer():
    return make_principal("writer", random.Random(21), bits=256)


@pytest.fixture(scope="module")
def stranger():
    return make_principal("stranger", random.Random(22), bits=256)


class TestACL:
    def test_grant_allows(self, writer):
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        assert acl.allows(writer.public_key, Privilege.WRITE)

    def test_missing_key_denied(self, writer, stranger):
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        assert not acl.allows(stranger.public_key, Privilege.WRITE)

    def test_privilege_subset_required(self, writer):
        acl = ACL()
        acl.grant(writer.public_key, Privilege.READ)
        assert not acl.allows(writer.public_key, Privilege.WRITE)
        assert acl.allows(writer.public_key, Privilege.READ)

    def test_revoke(self, writer):
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        assert acl.revoke(writer.public_key) == 1
        assert not acl.allows(writer.public_key, Privilege.WRITE)

    def test_keys_with(self, writer, stranger):
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        acl.grant(stranger.public_key, Privilege.READ)
        assert acl.keys_with(Privilege.WRITE) == [writer.public_key]

    def test_digest_order_insensitive(self, writer, stranger):
        a = ACL()
        a.grant(writer.public_key, Privilege.WRITE)
        a.grant(stranger.public_key, Privilege.READ)
        b = ACL()
        b.grant(stranger.public_key, Privilege.READ)
        b.grant(writer.public_key, Privilege.WRITE)
        assert acl_digest(a) == acl_digest(b)


class TestACLCertificate:
    def test_issue_verify(self, owner, writer):
        guid = object_guid(owner.public_key, "doc")
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        cert = ACLCertificate.issue(owner, guid, acl)
        assert cert.verify(acl)

    def test_verify_different_acl_fails(self, owner, writer, stranger):
        guid = object_guid(owner.public_key, "doc")
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        cert = ACLCertificate.issue(owner, guid, acl)
        other = ACL()
        other.grant(stranger.public_key, Privilege.WRITE)
        assert not cert.verify(other)


class TestAccessChecker:
    def make_signed(self, principal, payload=b"an update"):
        return payload, principal.sign(payload)

    def check(self, checker, guid, signer, msg, sig):
        """``check_write`` given the verdict on ``sig`` under ``signer``'s key."""
        return checker.check_write(
            guid, signer.public_key, signer.public_key.verify(msg, sig)
        )

    def test_no_policy(self, owner):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        msg, sig = self.make_signed(owner)
        result = self.check(checker, guid, owner, msg, sig)
        assert result.decision is WriteDecision.NO_ACL
        assert not result.allowed

    def test_owner_always_allowed(self, owner, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        checker.install_default(guid, owner.public_key, DEFAULT_OWNER_ONLY)
        msg, sig = self.make_signed(owner)
        assert self.check(checker, guid, owner, msg, sig).allowed

    def test_owner_only_denies_others(self, owner, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        checker.install_default(guid, owner.public_key, DEFAULT_OWNER_ONLY)
        msg, sig = self.make_signed(stranger)
        result = self.check(checker, guid, stranger, msg, sig)
        assert result.decision is WriteDecision.NOT_AUTHORIZED

    def test_public_write_allows_strangers(self, owner, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        checker.install_default(guid, owner.public_key, DEFAULT_PUBLIC_WRITE)
        msg, sig = self.make_signed(stranger)
        assert self.check(checker, guid, stranger, msg, sig).allowed

    def test_bad_signature_rejected(self, owner, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        checker.install_default(guid, owner.public_key, DEFAULT_PUBLIC_WRITE)
        msg, _ = self.make_signed(stranger)
        result = self.check(checker, guid, stranger, msg, b"\x01" * 32)
        assert result.decision is WriteDecision.BAD_SIGNATURE

    def test_acl_grants_write(self, owner, writer, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        cert = ACLCertificate.issue(owner, guid, acl)
        assert checker.install_acl(guid, acl, cert)
        msg, sig = self.make_signed(writer)
        assert self.check(checker, guid, writer, msg, sig).allowed
        msg, sig = self.make_signed(stranger)
        assert not self.check(checker, guid, stranger, msg, sig).allowed

    def test_install_acl_requires_valid_cert(self, owner, writer, stranger):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        acl = ACL()
        acl.grant(writer.public_key, Privilege.WRITE)
        # Certificate signed by a stranger, not the owner: servers can't
        # tell owners apart by fiat, but the GUID self-certifies the owner
        # key, so the system checks certs against the installed owner.
        cert = ACLCertificate.issue(stranger, guid, acl)
        assert checker.install_acl(guid, acl, cert)  # first install: stranger claims
        # But a subsequent swap attempt by another key is rejected.
        acl2 = ACL()
        cert2 = ACLCertificate.issue(owner, guid, acl2, sequence=1)
        assert not checker.install_acl(guid, acl2, cert2)

    def test_rollback_rejected(self, owner, writer):
        checker = AccessChecker()
        guid = object_guid(owner.public_key, "doc")
        acl_v0 = ACL()
        acl_v1 = ACL()
        acl_v1.grant(writer.public_key, Privilege.WRITE)
        cert0 = ACLCertificate.issue(owner, guid, acl_v0, sequence=0)
        cert1 = ACLCertificate.issue(owner, guid, acl_v1, sequence=1)
        assert checker.install_acl(guid, acl_v1, cert1)
        assert not checker.install_acl(guid, acl_v0, cert0)

    def test_mismatched_guid_rejected(self, owner):
        checker = AccessChecker()
        guid_a = object_guid(owner.public_key, "a")
        guid_b = object_guid(owner.public_key, "b")
        acl = ACL()
        cert = ACLCertificate.issue(owner, guid_a, acl)
        assert not checker.install_acl(guid_b, acl, cert)

    def test_unknown_default_rejected(self, owner):
        checker = AccessChecker()
        with pytest.raises(ValueError):
            checker.install_default(
                object_guid(owner.public_key, "doc"), owner.public_key, "anything-goes"
            )
