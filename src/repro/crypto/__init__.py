"""Cryptographic substrate, built from scratch on ``hashlib``.

Everything OceanStore's untrusted-infrastructure model needs: secure
hashes (:mod:`~repro.crypto.hashes`), a position-dependent block cipher
(:mod:`~repro.crypto.blockcipher`), RSA signatures
(:mod:`~repro.crypto.rsa`), Merkle trees for self-verifying fragments
(:mod:`~repro.crypto.merkle`), searchable encryption
(:mod:`~repro.crypto.searchable`), and key management
(:mod:`~repro.crypto.keys`).
"""

from repro.crypto.blockcipher import BLOCK_SIZE, PositionDependentCipher
from repro.crypto.hashes import derive_key, hmac_sha256, sha1, sha256
from repro.crypto.keys import KeyPool, KeyRing, ObjectKey, Principal, make_principal
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.crypto.rsa import PrivateKey, PublicKey, generate_keypair
from repro.crypto.searchable import (
    SearchableCipher,
    SearchMatch,
    SearchTrapdoor,
    server_search,
)

__all__ = [
    "BLOCK_SIZE",
    "KeyPool",
    "KeyRing",
    "MerkleProof",
    "MerkleTree",
    "ObjectKey",
    "PositionDependentCipher",
    "Principal",
    "PrivateKey",
    "PublicKey",
    "SearchMatch",
    "SearchTrapdoor",
    "SearchableCipher",
    "derive_key",
    "generate_keypair",
    "hmac_sha256",
    "make_principal",
    "server_search",
    "sha1",
    "sha256",
    "verify_proof",
]
