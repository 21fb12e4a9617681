"""Access control lists and write authorization (Section 4.2).

"To prevent unauthorized writes, we require that all writes be signed so
that well-behaved servers and clients can verify them against an access
control list (ACL).  The owner of an object can securely choose the ACL x
for an object foo by providing a signed certificate that translates to
'Owner says use ACL x for object foo' ... An ACL entry extending
privileges must describe the privilege granted and the signing key, but
not the explicit identity, of the privileged users.  We make such entries
publicly readable so that servers can check whether a write is allowed."

Key points modelled here:

* ACL entries grant privileges to *keys*, not identities.
* The binding object->ACL is itself a signed owner certificate, so
  untrusted servers can verify the whole authorization chain.
* A small set of privileges composes into richer policies (working
  groups are just ACLs granting WRITE to several keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Flag, auto

from repro.crypto.hashes import sha256
from repro.crypto.keys import Principal
from repro.crypto.rsa import PublicKey
from repro.util import serialization
from repro.util.ids import GUID


class Privilege(Flag):
    """Primitive privileges; richer policies compose these."""

    READ = auto()  # tracked for accounting; reads are enforced by keys
    WRITE = auto()
    ADMIN = auto()  # may replace the ACL itself



@dataclass(frozen=True, slots=True)
class ACLEntry:
    """Grants ``privilege`` to the holder of ``signer_key``.

    Per the paper, the entry names a signing key, not a user identity.
    """

    signer_key: PublicKey
    privilege: Privilege

    def covers(self, key: PublicKey, needed: Privilege) -> bool:
        return key == self.signer_key and (self.privilege & needed) == needed


@dataclass
class ACL:
    """A publicly readable list of privilege grants."""

    entries: list[ACLEntry] = field(default_factory=list)

    def grant(self, key: PublicKey, privilege: Privilege) -> None:
        self.entries.append(ACLEntry(signer_key=key, privilege=privilege))

    def revoke(self, key: PublicKey) -> int:
        """Remove all grants to ``key``; returns how many were removed."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.signer_key != key]
        return before - len(self.entries)

    def allows(self, key: PublicKey, needed: Privilege) -> bool:
        return any(entry.covers(key, needed) for entry in self.entries)

    def keys_with(self, privilege: Privilege) -> list[PublicKey]:
        return [
            e.signer_key for e in self.entries if (e.privilege & privilege) == privilege
        ]


@dataclass(frozen=True, slots=True)
class ACLCertificate:
    """Owner-signed binding: "Owner says use ACL x for object foo".

    ``sequence`` orders successive ACL choices so that servers can reject
    rollbacks to an older ACL.
    """

    object_guid: GUID
    owner_key: PublicKey
    acl_digest: bytes
    sequence: int
    signature: bytes

    @staticmethod
    def _message(
        object_guid: GUID, owner_key: PublicKey, acl_digest: bytes, sequence: int
    ) -> bytes:
        return serialization.encode(
            {
                "type": "acl-binding",
                "object": object_guid.to_bytes(),
                "owner": owner_key.to_bytes(),
                "acl": acl_digest,
                "sequence": sequence,
            }
        )

    @classmethod
    def issue(
        cls, owner: Principal, object_guid: GUID, acl: ACL, sequence: int = 0
    ) -> "ACLCertificate":
        digest = acl_digest(acl)
        message = cls._message(object_guid, owner.public_key, digest, sequence)
        return cls(
            object_guid=object_guid,
            owner_key=owner.public_key,
            acl_digest=digest,
            sequence=sequence,
            signature=owner.sign(message),
        )

    def verify(self, acl: ACL) -> bool:
        """Check the owner signature and that ``acl`` matches the digest."""
        if acl_digest(acl) != self.acl_digest:
            return False
        message = self._message(
            self.object_guid, self.owner_key, self.acl_digest, self.sequence
        )
        return self.owner_key.verify(message, self.signature)


def acl_digest(acl: ACL) -> bytes:
    """Canonical digest of an ACL's entries (order-insensitive)."""
    entries = sorted(
        (e.signer_key.to_bytes(), e.privilege.value) for e in acl.entries
    )
    return sha256(serialization.encode([list(pair) for pair in entries]))
