"""Key management: principals, keyrings, and read-key distribution.

Section 4.2 restricts readers by encrypting data and distributing the key
to authorized readers, and notes each user "might have more than one
public key ... different public keys for private objects, public objects,
and objects shared with various groups" (fn. 4).  This module provides:

* :class:`Principal` -- a user or server identity (RSA keypair + GUID).
* :class:`KeyPool` -- a deployment's server identities, minted on first
  use in a fixed node order.
* :class:`KeyRing` -- the client-side store of signing keys and object
  read keys.
* Read-key revocation by re-encryption: generating a new object key and
  recording the key generation so stale replicas are detectable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.crypto.hashes import derive_key
from repro.crypto.rsa import PrivateKey, PublicKey, generate_keypair
from repro.util.ids import GUID


@dataclass(frozen=True, slots=True)
class Principal:
    """An identity in the system: a human user or a server.

    The GUID of a principal is the secure hash of its public key
    (Section 4.1), which makes identities self-certifying: anyone holding
    the public key can check it against the GUID with no authority.
    """

    name: str
    private_key: PrivateKey

    @property
    def public_key(self) -> PublicKey:
        return self.private_key.public

    @property
    def guid(self) -> GUID:
        return GUID.hash_of(self.public_key.to_bytes())

    def sign(self, message: bytes) -> bytes:
        return self.private_key.sign(message)


def make_principal(name: str, rng: random.Random, bits: int = 512) -> Principal:
    """Mint a principal with a fresh deterministic keypair."""
    return Principal(name=name, private_key=generate_keypair(rng, bits=bits))


class KeyPool:
    """Server identities drawn from one RNG stream, minted on first use.

    ``pool[node]`` first mints every earlier node (in sorted order) not
    yet minted, so each key is the one an eager loop over the sorted
    nodes would mint, whatever order lookups arrive in (DESIGN §23).
    """

    def __init__(self, nodes: Iterable[Hashable], rng: random.Random, bits: int) -> None:
        self._order = sorted(nodes)
        self._rank = {node: i for i, node in enumerate(self._order)}
        self._rng, self._bits = rng, bits
        self._minted: dict[Hashable, Principal] = {}

    def __getitem__(self, node: Hashable) -> Principal:
        for earlier in self._order[len(self._minted) : self._rank[node] + 1]:
            self._minted[earlier] = make_principal(
                f"server-{earlier}", self._rng, bits=self._bits
            )
        return self._minted[node]

    def __len__(self) -> int:
        """How many identities have been minted so far."""
        return len(self._minted)


@dataclass(frozen=True, slots=True)
class ObjectKey:
    """Symmetric read key for one object, versioned by generation.

    Revoking a reader mints generation ``g+1`` and requests re-encryption
    of replicas (Section 4.2); readers holding only generation ``g`` can
    still read *old* cached data -- the paper is explicit that this
    residual exposure is unavoidable.
    """

    object_guid: GUID
    generation: int
    key: bytes

    def subkey(self, label: str) -> bytes:
        """Derive a purpose-specific key (block cipher, search) from this key."""
        return derive_key(self.key, label)


class KeyRing:
    """Client-side key store: identity plus per-object read keys."""

    def __init__(self, principal: Principal, rng: random.Random) -> None:
        self.principal = principal
        self._rng = rng
        self._object_keys: dict[GUID, ObjectKey] = {}

    def create_object_key(self, object_guid: GUID) -> ObjectKey:
        """Mint generation-0 key for a new object."""
        key = self._fresh_key()
        object_key = ObjectKey(object_guid=object_guid, generation=0, key=key)
        self._object_keys[object_guid] = object_key
        return object_key

    def grant(self, object_key: ObjectKey) -> None:
        """Install a key received from the object's owner (read grant).

        A newer generation always supersedes an older one; an older
        generation is ignored (it only decrypts stale data).
        """
        existing = self._object_keys.get(object_key.object_guid)
        if existing is None or object_key.generation > existing.generation:
            self._object_keys[object_key.object_guid] = object_key

    def revoke_and_rekey(self, object_guid: GUID) -> ObjectKey:
        """Revoke readers by minting the next key generation.

        The owner distributes the new key to the remaining readers and
        asks replicas to re-encrypt (Section 4.2).
        """
        existing = self._object_keys.get(object_guid)
        if existing is None:
            raise KeyError(f"no key for object {object_guid}")
        replacement = ObjectKey(
            object_guid=object_guid,
            generation=existing.generation + 1,
            key=self._fresh_key(),
        )
        self._object_keys[object_guid] = replacement
        return replacement

    def key_for(self, object_guid: GUID) -> ObjectKey:
        try:
            return self._object_keys[object_guid]
        except KeyError:
            raise KeyError(f"no read key for object {object_guid}") from None

    def has_key(self, object_guid: GUID) -> bool:
        return object_guid in self._object_keys

    def _fresh_key(self) -> bytes:
        return self._rng.getrandbits(256).to_bytes(32, "big")
