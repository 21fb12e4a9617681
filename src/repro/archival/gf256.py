"""GF(2^8) arithmetic for Reed-Solomon coding.

The field is GF(2)[x] mod the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11D), the conventional choice for storage codes; alpha = 2 generates
the multiplicative group.  Exp/log tables give scalar products and the
full 256 x 256 product table.

A matrix product is one gather per data row.  For each column j of an
r x k matrix M, :class:`PackedMatrix` packs the r products M[i, j] * v of
every byte v into ceil(r/8) uint64 words, so k data rows of L bytes take
one gather of k*L table rows and an XOR over k, not r*k*L byte lookups.
A code packs its fixed parity matrix once; :func:`gf_matmul` packs per call.
"""

from __future__ import annotations

import numpy as np

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate so exp lookups need no modular reduction for sums < 510.
    for power in range(255, 512):
        _EXP[power] = _EXP[power - 255]


_build_tables()

#: Full 256x256 product table (64 KiB): ``_MUL[a, b] = a * b`` in
#: GF(256).  :class:`PackedMatrix` slices its column tables out of it.
_MUL = np.zeros((256, 256), dtype=np.uint8)
_MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


def gf_mul(a: int, b: int) -> int:
    """Scalar multiply in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_div(a: int, b: int) -> int:
    """Scalar divide; division by zero raises."""
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_pow(a: int, exponent: int) -> int:
    if a == 0:
        return 0 if exponent > 0 else 1
    return int(_EXP[(int(_LOG[a]) * exponent) % 255])


class PackedMatrix:
    """An r x k matrix whose table row ``256 * j + v`` packs ``M[:, j] * v``."""

    __slots__ = ("rows", "cols", "_table")

    def __init__(self, matrix: np.ndarray) -> None:
        self.rows, self.cols = matrix.shape
        words = -(-self.rows // 8)
        packed = np.zeros((self.cols, 256, 8 * words), dtype=np.uint8)
        packed[:, :, : self.rows] = _MUL[matrix.astype(np.uint8).T].transpose(0, 2, 1)
        self._table = packed.view(np.uint64).reshape(self.cols * 256, words)

    def __matmul__(self, data: np.ndarray) -> np.ndarray:
        """This matrix times ``data`` (k x L bytes): an r x L uint8 array."""
        if data.shape[0] != self.cols:
            raise ValueError(f"shape mismatch: matrix k={self.cols}, data rows={data.shape[0]}")
        rows = data + np.arange(0, 256 * self.cols, 256, dtype=np.intp)[:, None]
        gathered = self._table.take(rows, axis=0)
        packed = np.bitwise_xor.reduce(gathered, axis=0)
        return np.ascontiguousarray(packed.view(np.uint8)[:, : self.rows].T)


def gf_matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Matrix (r x k) times data (k x L) over GF(256)."""
    return PackedMatrix(matrix) @ data


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Each pivot scales its row and clears its column from every other row
    as whole-row table lookups.  Raises ``ValueError`` if singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    a = matrix.astype(np.uint8)
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        a[[col, pivot]] = a[[pivot, col]]
        inv[[col, pivot]] = inv[[pivot, col]]
        scale = gf_inv(int(a[col, col]))
        a[col] = _MUL[scale, a[col]]
        inv[col] = _MUL[scale, inv[col]]
        factors = a[:, col, None].copy()
        factors[col] = 0
        a ^= _MUL[factors, a[col]]
        inv ^= _MUL[factors, inv[col]]
    return inv
