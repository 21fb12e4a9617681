"""Hash primitives used throughout the system.

The OceanStore prototype uses SHA-1 as its secure hash (Section 4.1).  We
keep SHA-1 for GUID derivation (width fidelity with the paper) and use
SHA-256 wherever we need keyed derivation, since the architecture does not
depend on the hash width there.  Block-cipher keystream is SHAKE-256, drawn
in ``repro.crypto.blockcipher``.
"""

from __future__ import annotations

import hashlib
import hmac


def sha256(data: bytes) -> bytes:
    """32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Keyed MAC; used by the searchable-encryption scheme."""
    return hmac.new(key, data, hashlib.sha256).digest()


def derive_key(master: bytes, label: str, length: int = 32) -> bytes:
    """Simple HKDF-like expansion: derive a sub-key from a master secret.

    Counter-mode expansion with HMAC-SHA256; enough structure for the
    simulation's key hierarchy (object keys, search keys, block-cipher
    keys) without an external dependency.
    """
    if length <= 0:
        raise ValueError(f"key length must be positive: {length}")
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        counter += 1
        blocks.append(
            hmac_sha256(master, label.encode("utf-8") + counter.to_bytes(4, "big"))
        )
    return b"".join(blocks)[:length]
