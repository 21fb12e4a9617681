"""Globally unique identifiers (GUIDs) and bit-level helpers.

Every addressable entity in OceanStore -- objects, servers, archival
fragments, floating replicas -- is named by a GUID: a pseudo-random,
fixed-length bit string (Section 4.1 of the paper).  GUIDs for objects are
*self-certifying*: the secure hash of the owner's public key and a
human-readable name.  GUIDs for servers hash the server's public key, and
GUIDs for archival fragments hash the fragment data itself.

The Plaxton mesh (Section 4.3.3) routes by resolving a GUID one digit at a
time starting from the *least* significant digit, so this module also
provides digit extraction and shared-suffix length helpers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import total_ordering

#: Number of bits in every GUID.  The prototype uses SHA-1 (160 bits); we
#: keep that width for fidelity with the paper.
GUID_BITS = 160

#: Number of bits per routing digit in the Plaxton mesh.  The paper's
#: example (Figure 3) uses 4-bit nibbles, i.e. hexadecimal digits.
DIGIT_BITS = 4

#: Number of digits in a GUID at ``DIGIT_BITS`` bits per digit.
GUID_DIGITS = GUID_BITS // DIGIT_BITS

_GUID_LIMIT = 1 << GUID_BITS


@total_ordering
@dataclass(frozen=True, slots=True)
class GUID:
    """A fixed-width identifier, stored as a non-negative integer.

    GUIDs are immutable and hashable so they can serve as dictionary keys
    throughout the routing and storage layers.  The hash is the one the
    dataclass would compute, ``hash((value,))``, taken once at
    construction: a GUID is hashed far more often than it is made.
    """

    value: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        value = self.value
        if not 0 <= value < _GUID_LIMIT:
            raise ValueError(f"GUID value out of range: {value:#x}")
        _set_hash(self, hash((value,)))

    def __hash__(self) -> int:
        return self._hash

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "GUID":
        """Build a GUID from exactly ``GUID_BITS // 8`` bytes."""
        if len(data) != GUID_BITS // 8:
            raise ValueError(f"expected {GUID_BITS // 8} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def hash_of(cls, *parts: bytes) -> "GUID":
        """The secure hash of the concatenated parts, as a GUID.

        Uses SHA-1, as in the OceanStore prototype (Section 4.1, fn. 3).
        Parts are length-prefixed before hashing so that the mapping from
        part tuples to digests is injective.
        """
        h = hashlib.sha1()
        for part in parts:
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        return cls.from_bytes(h.digest())

    # -- representations ---------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(GUID_BITS // 8, "big")

    def hex(self) -> str:
        return f"{self.value:0{GUID_BITS // 4}x}"

    def short(self) -> str:
        """Abbreviated hex form for logs and debugging."""
        return self.hex()[:8]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.short()

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, GUID):
            return NotImplemented
        return self.value < other.value

    # -- digit arithmetic for Plaxton routing ------------------------------

    def digit(self, level: int) -> int:
        """The ``level``-th routing digit, counted from the least
        significant digit (level 0)."""
        if not 0 <= level < GUID_DIGITS:
            raise ValueError(f"digit level out of range: {level}")
        return (self.value >> (level * DIGIT_BITS)) & ((1 << DIGIT_BITS) - 1)

    def digits(self) -> tuple[int, ...]:
        """All routing digits, least significant first."""
        return tuple(self.digit(i) for i in range(GUID_DIGITS))

    def with_salt(self, salt: int) -> "GUID":
        """Hash this GUID with a small salt value.

        Used to derive multiple roots per object (Section 4.3.3,
        "Achieving Fault Tolerance"): each salt maps the GUID to a
        different root node, removing the single point of failure.
        """
        return GUID.hash_of(self.to_bytes(), salt.to_bytes(4, "big"))


#: the ``_hash`` slot's own setter, which a frozen dataclass leaves usable
_set_hash = GUID._hash.__set__


def secure_hash(*parts: bytes) -> bytes:
    """SHA-1 digest over length-prefixed parts (20 bytes)."""
    h = hashlib.sha1()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()
