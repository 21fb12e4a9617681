"""Binary Merkle trees for self-verifying archival fragments.

Section 4.5: "we use a hierarchical hashing method to verify each
fragment.  We generate a hash over each fragment, and recursively hash
over the concatenation of pairs of hashes to form a binary tree.  Each
fragment is stored along with the hashes neighboring its path to the root
... the top-most hash [serves] as the GUID to the immutable archival
object, making every fragment in the archive completely self-verifying."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import sha256

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF_PREFIX + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_PREFIX + left + right)


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """Sibling hashes along one leaf's path to the root.

    ``path`` lists (sibling_hash, sibling_is_right) pairs from the leaf
    upward.  Stored alongside each archival fragment so that any machine
    can verify it against the archival GUID with no other context.
    """

    leaf_index: int
    path: tuple[tuple[bytes, bool], ...]

    def size_bytes(self) -> int:
        """Wire size of the proof (for fragment overhead accounting)."""
        return 8 + sum(len(h) + 1 for h, _ in self.path)


class MerkleTree:
    """Merkle tree over a fixed list of leaf payloads.

    Odd nodes at any level are promoted unchanged (Bitcoin-style
    duplication would allow a malleability quirk; promotion does not).
    """

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        current = [_leaf_hash(leaf) for leaf in leaves]
        self._levels: list[list[bytes]] = [current]
        while len(current) > 1:
            next_level = []
            for i in range(0, len(current) - 1, 2):
                next_level.append(_node_hash(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                next_level.append(current[-1])
            self._levels.append(next_level)
            current = next_level

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for leaf ``index``."""
        if not 0 <= index < len(self._levels[0]):
            raise IndexError(f"leaf index out of range: {index}")
        return self.proofs()[index]

    def proofs(self) -> list[MerkleProof]:
        """Every leaf's inclusion proof, in one walk from the root down.

        A node's path is its own sibling step, if it has a sibling, then
        its parent's path: leaves under one parent share every step above.
        """
        paths: list[tuple[tuple[bytes, bool], ...]] = [()]
        for level in reversed(self._levels[:-1]):
            below = []
            for i in range(len(level)):
                sibling = i ^ 1
                if sibling < len(level):
                    below.append(((level[sibling], sibling > i),) + paths[i // 2])
                else:
                    below.append(paths[i // 2])
            paths = below
        return [MerkleProof(leaf_index=i, path=path) for i, path in enumerate(paths)]


def verify_proof(leaf_data: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Check that ``leaf_data`` is the leaf the proof commits to under ``root``."""
    current = _leaf_hash(leaf_data)
    for sibling, sibling_is_right in proof.path:
        if sibling_is_right:
            current = _node_hash(current, sibling)
        else:
            current = _node_hash(sibling, current)
    return current == root
