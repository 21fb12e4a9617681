"""Self-certifying object naming (Section 4.1).

"An object GUID is the secure hash of the owner's key and some
human-readable name.  This scheme allows servers to verify an object's
owner efficiently, which facilitates access checks and resource
accounting."

Because the GUID commits to the owner's public key, no adversary can
"hijack" a name: publishing an object under someone else's (key, name)
pair would produce a GUID that fails verification against the claimed
owner key.
"""

from __future__ import annotations

from repro.crypto.rsa import PublicKey
from repro.util.ids import GUID


def object_guid(owner_key: PublicKey, name: str) -> GUID:
    """Derive the self-certifying GUID for (owner, human-readable name)."""
    return GUID.hash_of(owner_key.to_bytes(), name.encode("utf-8"))


def verify_object_guid(guid: GUID, owner_key: PublicKey, name: str) -> bool:
    """Check a claimed (owner, name) binding against a GUID.

    Any server can run this with no trusted third party: the binding is
    valid iff the hash recomputes (self-certification).
    """
    return object_guid(owner_key, name) == guid


