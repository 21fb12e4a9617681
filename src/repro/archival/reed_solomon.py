"""Systematic Reed-Solomon erasure coding (Section 4.5; refs [39, 18]).

"Erasure coding is a process that treats input data as a series of
fragments (say n) and transforms these fragments into a greater number of
fragments (say 2n or 4n) ... The essential property of the resulting code
is that any n of the coded fragments are sufficient to construct the
original data."

We use a systematic Cauchy Reed-Solomon construction (as in the
Intermemory project the paper cites): the first k output fragments are
the data itself; the n-k parity fragments come from a Cauchy matrix, any
k x k submatrix of which is invertible -- so *any* k fragments decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.archival.gf256 import PackedMatrix, gf_inv, gf_mat_inv, gf_matmul


class CodingError(ValueError):
    """Invalid code parameters or insufficient/inconsistent fragments."""


def cauchy_matrix(k: int, parity_rows: int) -> np.ndarray:
    """Parity portion of the generator: C[i][j] = 1/(x_i XOR y_j).

    With x_i = k + i and y_j = j (all distinct, none shared), every
    square submatrix of a Cauchy matrix is nonsingular -- the property
    that makes any-k-of-n decoding work.
    """
    if k + parity_rows > 256:
        raise CodingError("Cauchy construction limited to n <= 256")
    matrix = np.zeros((parity_rows, k), dtype=np.uint8)
    for i in range(parity_rows):
        for j in range(k):
            matrix[i, j] = gf_inv((k + i) ^ j)
    return matrix


@dataclass(frozen=True, slots=True)
class CodedFragment:
    """One erasure-coded fragment: its index in the code and its bytes."""

    index: int
    payload: bytes


class ReedSolomonCode:
    """A (n, k) systematic erasure code: k data + (n-k) parity fragments."""

    def __init__(self, k: int, n: int) -> None:
        if not 1 <= k < n:
            raise CodingError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > 256:
            raise CodingError(f"n must be <= 256 for GF(256) codes, got {n}")
        self.k = k
        self.n = n
        parity = cauchy_matrix(k, n - k)
        self._packed_parity = PackedMatrix(parity)
        #: identity rows for the data fragments, then the parity rows
        self._generator = np.vstack([np.eye(k, dtype=np.uint8), parity])

    @property
    def rate(self) -> float:
        """Code rate k/n (a rate-1/2 code doubles storage)."""
        return self.k / self.n

    def fragments_needed(self) -> int:
        """Any k fragments reconstruct the data (the RS guarantee)."""
        return self.k

    # -- encode -----------------------------------------------------------------

    def encode(self, data_fragments: list[bytes]) -> list[CodedFragment]:
        """Encode k equal-length data fragments into n coded fragments."""
        if len(data_fragments) != self.k:
            raise CodingError(
                f"expected {self.k} data fragments, got {len(data_fragments)}"
            )
        length = len(data_fragments[0])
        if length == 0 or any(len(f) != length for f in data_fragments):
            raise CodingError("data fragments must be equal-length and non-empty")
        stacked = np.frombuffer(b"".join(data_fragments), dtype=np.uint8).reshape(
            self.k, length
        )
        parity = self._packed_parity @ stacked
        fragments = [
            CodedFragment(index=i, payload=data_fragments[i]) for i in range(self.k)
        ]
        fragments.extend(
            CodedFragment(index=self.k + i, payload=parity[i].tobytes())
            for i in range(self.n - self.k)
        )
        return fragments

    # -- decode -------------------------------------------------------------------

    def decode(self, fragments: list[CodedFragment]) -> list[bytes]:
        """Reconstruct the k data fragments from any k coded fragments."""
        unique: dict[int, CodedFragment] = {}
        for fragment in fragments:
            unique.setdefault(fragment.index, fragment)
        if len(unique) < self.k:
            raise CodingError(
                f"need {self.k} distinct fragments, got {len(unique)}"
            )
        chosen = [unique[i] for i in sorted(unique)][: self.k]
        length = len(chosen[0].payload)
        if any(len(f.payload) != length for f in chosen):
            raise CodingError("fragments have inconsistent lengths")
        for f in chosen:
            if not 0 <= f.index < self.n:
                raise CodingError(f"fragment index out of range: {f.index}")
        matrix = self._generator[[f.index for f in chosen]]
        stacked = np.frombuffer(
            b"".join(f.payload for f in chosen), dtype=np.uint8
        ).reshape(self.k, length)
        decode_matrix = gf_mat_inv(matrix)
        data = gf_matmul(decode_matrix, stacked)
        return [data[i].tobytes() for i in range(self.k)]
