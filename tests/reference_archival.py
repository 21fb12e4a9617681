"""The reference archival encode path the one-pass kernels are tested against.

Before the archival encode went one gather per data row, three pieces
of it were written in their most obvious form:

* ``gf_matmul`` gathered the full r x k x L product array out of the
  256 x 256 multiplication table and XOR-reduced it over k;
* ``gf_mat_inv`` eliminated one scalar ``gf_mul`` at a time;
* the canonical encoder recursed once per node and joined a fresh
  ``bytes`` object for every sequence and dict;
* a Merkle tree walked from each leaf up to the root on its own to
  build that leaf's proof;
* a Tornado parity started from zero bytes and XORed in one neighbor at
  a time, each as a fresh big int.

Those forms live here, in the test tree.  Only the field's product
table and scalar operations, the Merkle hash functions, the proof type and the Tornado code's
parity graph are shared with production.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.archival.gf256 import _MUL, gf_inv, gf_mul
from repro.archival.tornado import TornadoCode, _xor_bytes
from repro.crypto.merkle import MerkleProof, _leaf_hash, _node_hash


def reference_gf_matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Matrix (r x k) times data (k x L) over GF(256), one (r, k, L) gather."""
    rows, k = matrix.shape
    if data.shape[0] != k:
        raise ValueError(f"shape mismatch: matrix k={k}, data rows={data.shape[0]}")
    products = _MUL[matrix.astype(np.uint8)[:, :, None], data[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def reference_gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Gauss-Jordan over GF(256) with scalar multiplies; ``ValueError`` if singular."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    a = matrix.astype(np.int32).copy()
    inv = np.eye(n, dtype=np.int32)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        pivot_inv = gf_inv(int(a[col, col]))
        for c in range(n):
            a[col, c] = gf_mul(int(a[col, c]), pivot_inv)
            inv[col, c] = gf_mul(int(inv[col, c]), pivot_inv)
        for r in range(n):
            if r == col or a[r, col] == 0:
                continue
            factor = int(a[r, col])
            for c in range(n):
                a[r, c] ^= gf_mul(factor, int(a[col, c]))
                inv[r, c] ^= gf_mul(factor, int(inv[col, c]))
    return inv.astype(np.uint8)


def _encode_length(n: int) -> bytes:
    return n.to_bytes(8, "big")


def reference_encode(value: Any) -> bytes:
    """The recursive canonical encoder, one ``bytes`` join per node."""
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + _encode_length(len(raw)) + raw
    if isinstance(value, bytes):
        return b"B" + _encode_length(len(value)) + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + _encode_length(len(raw)) + raw
    if isinstance(value, (list, tuple)):
        parts = [reference_encode(item) for item in value]
        body = b"".join(parts)
        return b"L" + _encode_length(len(value)) + body
    if isinstance(value, dict):
        items = sorted(value.items())
        parts = []
        for key, val in items:
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            parts.append(reference_encode(key))
            parts.append(reference_encode(val))
        return b"D" + _encode_length(len(items)) + b"".join(parts)
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


class ReferenceMerkleTree:
    """Levels built bottom-up; each proof a separate walk from its leaf."""

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        current = [_leaf_hash(leaf) for leaf in leaves]
        self.levels: list[list[bytes]] = [current]
        while len(current) > 1:
            next_level = [
                _node_hash(current[i], current[i + 1])
                for i in range(0, len(current) - 1, 2)
            ]
            if len(current) % 2 == 1:
                next_level.append(current[-1])
            self.levels.append(next_level)
            current = next_level

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        if not 0 <= index < len(self.levels[0]):
            raise IndexError(f"leaf index out of range: {index}")
        path: list[tuple[bytes, bool]] = []
        i = index
        for level in self.levels[:-1]:
            if i % 2 == 0:
                sibling_index = i + 1
                sibling_is_right = True
            else:
                sibling_index = i - 1
                sibling_is_right = False
            if sibling_index < len(level):
                path.append((level[sibling_index], sibling_is_right))
            i //= 2
        return MerkleProof(leaf_index=index, path=tuple(path))


def reference_tornado_parity(code: TornadoCode, data_fragments: list[bytes]) -> list[bytes]:
    """Each parity fragment of ``code``, one big-int XOR per neighbor."""
    parities = []
    for check in code._checks:
        payload = bytes(len(data_fragments[0]))
        for neighbor in check.neighbors:
            payload = _xor_bytes(payload, data_fragments[neighbor])
        parities.append(payload)
    return parities
