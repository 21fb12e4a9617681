"""Self-verifying archival fragments (Section 4.5).

"To preserve the erasure nature of the fragments (meaning that a
fragment is either retrieved correctly and completely, or not at all), we
use a hierarchical hashing method to verify each fragment. ... Each
fragment is stored along with the hashes neighboring its path to the
root. ... We can use the top-most hash as the GUID to the immutable
archival object, making every fragment in the archive completely
self-verifying."

:func:`encode_archival` turns a byte string into an
:class:`ArchivalObject`: n fragments, each carrying a Merkle proof
against the archival GUID; :func:`reconstruct_archival` verifies and
decodes any sufficient subset, rejecting corrupted fragments outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.archival.reed_solomon import CodedFragment, CodingError
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_proof
from repro.telemetry import coalesce
from repro.util.ids import GUID


class ErasureCode(Protocol):
    """What the archival layer needs from a code (RS or Tornado)."""

    k: int
    n: int

    def encode(self, data_fragments: list[bytes]) -> list[CodedFragment]: ...

    def decode(self, fragments: list[CodedFragment]) -> list[bytes]: ...


@dataclass(frozen=True, slots=True)
class ArchivalFragment:
    """A coded fragment plus its path of neighboring hashes.

    The fragment carries its archive's Merkle tree; the archival GUID is
    the (GUID-width) hash of the tree's root.  Verification therefore
    needs no outside context: check the proof against the carried root,
    and the root against the GUID.  All fragments of one archive share
    one tree and one ``guid_bytes`` object; the proof and the root are
    read out of the tree when asked for.
    """

    guid_bytes: bytes
    index: int
    payload: bytes
    tree: MerkleTree

    @property
    def proof(self) -> MerkleProof:
        return self.tree.proof(self.index)

    @property
    def merkle_root(self) -> bytes:
        return self.tree.root

    def verify(self) -> bool:
        """Fully self-verifying against the archival GUID."""
        root = self.tree.root
        if GUID.hash_of(root).to_bytes() != self.guid_bytes:
            return False
        return verify_proof(self.payload, self.proof, root)


@dataclass(frozen=True, slots=True)
class ArchivalObject:
    """An immutable, erasure-coded archival version of an object."""

    archival_guid: GUID
    fragments: tuple[ArchivalFragment, ...]
    k: int
    n: int
    original_size: int


def _chunk_for_code(data: bytes, k: int) -> list[bytes]:
    """Length-prefix and pad data into k equal fragments."""
    framed = len(data).to_bytes(8, "big") + data
    fragment_len = max(1, -(-len(framed) // k))  # ceil division
    padded = framed.ljust(fragment_len * k, b"\0")
    return [
        padded[i * fragment_len : (i + 1) * fragment_len] for i in range(k)
    ]


def _unchunk(data_fragments: list[bytes]) -> bytes:
    joined = b"".join(data_fragments)
    if len(joined) < 8:
        raise CodingError("decoded data too short for length header")
    length = int.from_bytes(joined[:8], "big")
    if length > len(joined) - 8:
        raise CodingError("corrupt length header in decoded data")
    return joined[8 : 8 + length]


def encode_archival(
    data: bytes, code: ErasureCode, telemetry=None
) -> ArchivalObject:
    """Erasure-code ``data`` into a self-verifying archival object."""
    tel = coalesce(telemetry)
    with tel.span("archival.encode", k=code.k, n=code.n):
        data_fragments = _chunk_for_code(data, code.k)
        coded = code.encode(data_fragments)
        tree = MerkleTree([f.payload for f in coded])
        # The archival GUID is the top-most hash (the paper's rule).  Merkle
        # roots are 32 bytes; GUIDs are 20 -- hash down to GUID width.
        archival_guid = GUID.hash_of(tree.root)
        guid_bytes = archival_guid.to_bytes()
        fragments = tuple(
            ArchivalFragment(guid_bytes, f.index, f.payload, tree) for f in coded
        )
    if tel.enabled:
        tel.count("archival_encodes_total")
    return ArchivalObject(
        archival_guid=archival_guid,
        fragments=fragments,
        k=code.k,
        n=code.n,
        original_size=len(data),
    )


def verify_fragment(fragment: ArchivalFragment, merkle_root: bytes) -> bool:
    """Check a fragment against the archival object's Merkle root."""
    return verify_proof(fragment.payload, fragment.proof, merkle_root)


def reconstruct_archival(
    fragments: list[ArchivalFragment],
    code: ErasureCode,
    merkle_root: bytes,
    telemetry=None,
) -> bytes:
    """Verify fragments, drop corrupt ones, decode, and unframe.

    Corrupted fragments are excluded rather than fed to the decoder --
    the "retrieved correctly and completely, or not at all" erasure
    property.
    """
    tel = coalesce(telemetry)
    with tel.span("archival.reconstruct", offered=len(fragments)):
        valid = [
            CodedFragment(index=f.index, payload=f.payload)
            for f in fragments
            if verify_fragment(f, merkle_root)
        ]
        data_fragments = code.decode(valid)
        data = _unchunk(data_fragments)
    if tel.enabled:
        tel.count("archival_reconstructs_total")
        rejected = len(fragments) - len(valid)
        if rejected:
            tel.count("archival_corrupt_fragments_total", rejected)
    return data
