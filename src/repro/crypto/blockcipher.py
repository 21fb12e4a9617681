"""Position-dependent block cipher.

Section 4.4.2 requires "a position-dependent block cipher": the ciphertext
of a block depends on both the block contents and its position, so that a
client can prove a *compare-block* predicate by hashing the ciphertext at a
given position, and servers can execute *replace-block* and *append*
without learning plaintext.

We implement a stream cipher keyed per (object key, block position): a
block's keystream is one SHAKE-256 output of ``key || position`` (the
position as 8 big-endian bytes, so the encoding is injective), as long as
the block.  This has the two properties the update model needs:

* deterministic: the same plaintext at the same position under the same
  key always yields the same ciphertext (so compare-block via ciphertext
  hash works);
* position-dependent: the same plaintext at different positions encrypts
  differently (so servers cannot correlate equal blocks across positions).

This is a simulation-grade cipher, not an audited construction; the
architecture experiments only need its interface and determinism.
"""

from __future__ import annotations

import hashlib

#: Fixed block size used by the data model (bytes).  Real systems would
#: tune this; 4 KiB matches the paper's discussion of ~4 kB updates.
BLOCK_SIZE = 4096


class PositionDependentCipher:
    """Encrypts/decrypts fixed-position blocks under a symmetric key."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = key

    def _keystream(self, position: int, length: int) -> bytes:
        """Keystream for a block at logical ``position``."""
        return hashlib.shake_256(self._key + position.to_bytes(8, "big")).digest(length)

    def encrypt_block(self, position: int, plaintext: bytes) -> bytes:
        """Encrypt one block at ``position``.

        ``position`` is the block's *stable identity* (its block id), not
        its current index in the object; insert/delete reorganize indexes
        without re-encrypting (Figure 4).
        """
        if not 0 <= position < 1 << 64:
            raise ValueError(f"block position out of range [0, 2**64): {position}")
        length = len(plaintext)
        stream = self._keystream(position, length)
        mixed = int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(length, "big")

    def decrypt_block(self, position: int, ciphertext: bytes) -> bytes:
        """Decryption is the same XOR under the same keystream."""
        return self.encrypt_block(position, ciphertext)
