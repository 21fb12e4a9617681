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
_HASH_BYTES = 32


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

    The node hashes are one blob, level by level from the leaves up; a
    proof is read out of it on demand, so the n fragments of an archive
    share one tree, not n overlapping paths.  Trees compare by value.
    """

    __slots__ = ("leaf_count", "nodes")

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        level = [_leaf_hash(leaf) for leaf in leaves]
        hashes = list(level)
        while len(level) > 1:
            up = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            if len(level) % 2 == 1:
                up.append(level[-1])
            hashes += up
            level = up
        self.leaf_count = len(leaves)
        self.nodes = b"".join(hashes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MerkleTree) and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)

    @property
    def root(self) -> bytes:
        return self.nodes[-_HASH_BYTES:]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for leaf ``index``: its sibling at each level
        that has one, from the leaf upward."""
        width = self.leaf_count
        if not 0 <= index < width:
            raise IndexError(f"leaf index out of range: {index}")
        nodes = self.nodes
        path = []
        start = 0
        i = index
        while width > 1:
            sibling = i ^ 1
            if sibling < width:
                at = start + sibling * _HASH_BYTES
                path.append((nodes[at : at + _HASH_BYTES], sibling > i))
            start += width * _HASH_BYTES
            width = (width + 1) // 2
            i //= 2
        return MerkleProof(leaf_index=index, path=tuple(path))


def verify_proof(leaf_data: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Check that ``leaf_data`` is the leaf the proof commits to under ``root``."""
    current = _leaf_hash(leaf_data)
    for sibling, sibling_is_right in proof.path:
        if sibling_is_right:
            current = _node_hash(current, sibling)
        else:
            current = _node_hash(sibling, current)
    return current == root
