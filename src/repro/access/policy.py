"""Server-side write authorization checks.

Well-behaved servers verify every signed write against the object's ACL
before applying it (Section 4.2).  :class:`AccessChecker` holds the
per-object ACL state (the ACL, its owner certificate) and answers
"is this signed write allowed?" with reasons, so replicas can ignore
unauthorized updates and tests can assert on the failure mode.

The paper's note on defaults ("The specified ACL may be another object or
a value indicating a common default") is modelled with named default
policies: ``owner-only`` and ``public-write``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.access.acl import ACL, ACLCertificate, Privilege
from repro.crypto.rsa import PublicKey
from repro.util.ids import GUID


class WriteDecision(Enum):
    ALLOWED = "allowed"
    NO_ACL = "no-acl"
    BAD_CERTIFICATE = "bad-certificate"
    BAD_SIGNATURE = "bad-signature"
    NOT_AUTHORIZED = "not-authorized"


@dataclass(frozen=True, slots=True)
class CheckResult:
    decision: WriteDecision

    @property
    def allowed(self) -> bool:
        return self.decision is WriteDecision.ALLOWED


#: Sentinel default policies (the paper's "value indicating a common default").
DEFAULT_OWNER_ONLY = "owner-only"
DEFAULT_PUBLIC_WRITE = "public-write"


@dataclass
class _ObjectPolicy:
    acl: ACL | None
    certificate: ACLCertificate | None
    default: str | None
    owner_key: PublicKey


class AccessChecker:
    """Tracks ACL bindings and authorizes signed writes on a replica."""

    def __init__(self) -> None:
        self._policies: dict[GUID, _ObjectPolicy] = {}

    def install_default(
        self, object_guid: GUID, owner_key: PublicKey, default: str
    ) -> None:
        """Install a common-default policy for an object."""
        if default not in (DEFAULT_OWNER_ONLY, DEFAULT_PUBLIC_WRITE):
            raise ValueError(f"unknown default policy {default!r}")
        self._policies[object_guid] = _ObjectPolicy(
            acl=None, certificate=None, default=default, owner_key=owner_key
        )

    def install_acl(
        self, object_guid: GUID, acl: ACL, certificate: ACLCertificate
    ) -> bool:
        """Install an explicit ACL; rejected unless the owner certificate
        verifies and is not a rollback of a newer one."""
        if certificate.object_guid != object_guid or not certificate.verify(acl):
            return False
        existing = self._policies.get(object_guid)
        if (
            existing is not None
            and existing.certificate is not None
            and certificate.sequence <= existing.certificate.sequence
        ):
            return False  # rollback attempt
        if existing is not None and existing.owner_key != certificate.owner_key:
            return False  # only the original owner may swap the ACL
        self._policies[object_guid] = _ObjectPolicy(
            acl=acl,
            certificate=certificate,
            default=None,
            owner_key=certificate.owner_key,
        )
        return True

    def check_write(
        self,
        object_guid: GUID,
        signer_key: PublicKey,
        signature_valid: bool,
    ) -> CheckResult:
        """Full write check: signature validity, then ACL membership.

        ``signature_valid`` is the caller's verdict on the write's
        signature under ``signer_key`` (an update keeps it, DESIGN §31).
        The owner key is always authorized (ownership is baked into the
        self-certifying GUID; a forged "owner" key would not match it).
        """
        policy = self._policies.get(object_guid)
        if policy is None:
            return CheckResult(WriteDecision.NO_ACL)
        if not signature_valid:
            return CheckResult(WriteDecision.BAD_SIGNATURE)
        if signer_key == policy.owner_key:
            return CheckResult(WriteDecision.ALLOWED)
        if policy.default == DEFAULT_PUBLIC_WRITE:
            return CheckResult(WriteDecision.ALLOWED)
        if policy.default == DEFAULT_OWNER_ONLY:
            return CheckResult(WriteDecision.NOT_AUTHORIZED)
        assert policy.acl is not None
        if policy.acl.allows(signer_key, Privilege.WRITE):
            return CheckResult(WriteDecision.ALLOWED)
        return CheckResult(WriteDecision.NOT_AUTHORIZED)

    def has_policy(self, object_guid: GUID) -> bool:
        return object_guid in self._policies
