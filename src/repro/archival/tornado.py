"""Tornado-style XOR erasure code (Section 4.5; ref [32]).

"Tornado codes, which are faster to encode and decode, require slightly
more than n fragments to reconstruct the information" (footnote 12).

We implement the essential structure of an irregular-graph LDPC erasure
code: parity fragments are XORs of small random subsets of data fragments
(degrees drawn from a soliton-ish distribution), and decoding is peeling
-- repeatedly resolving parity checks with exactly one missing neighbor.
All operations are XOR, so encode/decode run in linear-ish time, at the
cost of needing a few more than k fragments and (with tiny probability)
failing where Reed-Solomon would succeed.  The benchmarks measure both
trade-off sides against RS, as the paper's prototype did.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.archival.reed_solomon import CodedFragment, CodingError


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    # Big-int XOR is orders of magnitude faster than a per-byte loop; the
    # peeling decoder resolves one fragment at a time with it.
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


@dataclass(frozen=True, slots=True)
class _ParityCheck:
    """Parity fragment ``index`` covers data fragments ``neighbors``."""

    index: int
    neighbors: tuple[int, ...]


class TornadoCode:
    """A systematic (n, k) XOR code with randomized parity neighborhoods.

    The parity graph is derived deterministically from ``seed`` so that
    encoder and decoder agree without shipping the graph.
    """

    #: Degree distribution for parity checks: mostly small degrees (fast,
    #: peelable), a tail of larger ones (coverage).  (degree, weight).
    DEGREES = ((1, 0.05), (2, 0.35), (3, 0.35), (4, 0.15), (8, 0.10))

    def __init__(self, k: int, n: int, seed: int = 0) -> None:
        if not 1 <= k < n:
            raise CodingError(f"need 1 <= k < n, got k={k}, n={n}")
        self.k = k
        self.n = n
        self.seed = seed
        rng = random.Random(seed)
        self._checks: list[_ParityCheck] = []
        degrees = [d for d, _ in self.DEGREES]
        weights = [w for _, w in self.DEGREES]
        for parity_index in range(k, n):
            degree = min(rng.choices(degrees, weights=weights)[0], k)
            neighbors = tuple(sorted(rng.sample(range(k), degree)))
            self._checks.append(_ParityCheck(parity_index, neighbors))

    # -- encode ------------------------------------------------------------------

    def encode(self, data_fragments: list[bytes]) -> list[CodedFragment]:
        if len(data_fragments) != self.k:
            raise CodingError(
                f"expected {self.k} data fragments, got {len(data_fragments)}"
            )
        length = len(data_fragments[0])
        if length == 0 or any(len(f) != length for f in data_fragments):
            raise CodingError("data fragments must be equal-length and non-empty")
        fragments = [
            CodedFragment(index=i, payload=data_fragments[i]) for i in range(self.k)
        ]
        stacked = np.frombuffer(b"".join(data_fragments), dtype=np.uint8).reshape(self.k, length)
        for check in self._checks:
            first, *rest = check.neighbors
            parity = stacked[first].copy()
            for neighbor in rest:
                parity ^= stacked[neighbor]
            fragments.append(CodedFragment(index=check.index, payload=parity.tobytes()))
        return fragments

    # -- decode --------------------------------------------------------------------

    def decode(self, fragments: list[CodedFragment]) -> list[bytes]:
        """Peeling decoder; raises :class:`CodingError` if it stalls.

        Unlike Reed-Solomon, success depends on *which* fragments arrived,
        not just how many -- the paper's "slightly more than n" caveat.
        """
        known: dict[int, bytes] = {}
        parity: dict[int, bytes] = {}
        for fragment in fragments:
            if fragment.index < self.k:
                known[fragment.index] = fragment.payload
            else:
                parity[fragment.index] = fragment.payload
        check_by_index = {c.index: c for c in self._checks}
        progress = True
        while len(known) < self.k and progress:
            progress = False
            for index, payload in list(parity.items()):
                check = check_by_index.get(index)
                if check is None:
                    raise CodingError(f"fragment index {index} not in code")
                missing = [nb for nb in check.neighbors if nb not in known]
                if len(missing) == 0:
                    del parity[index]
                elif len(missing) == 1:
                    value = payload
                    for neighbor in check.neighbors:
                        if neighbor in known:
                            value = _xor_bytes(value, known[neighbor])
                    known[missing[0]] = value
                    del parity[index]
                    progress = True
        if len(known) < self.k:
            raise CodingError(
                f"peeling stalled with {len(known)}/{self.k} data fragments"
            )
        return [known[i] for i in range(self.k)]
