"""From-scratch RSA signatures.

OceanStore requires that "all writes be signed so that well-behaved
servers and clients can verify them against an access control list"
(Section 4.2), that server GUIDs be hashes of public keys, and that the
primary tier sign serialization results (Section 4.4.3).  No external
crypto library is available offline, so we implement textbook RSA with
Miller-Rabin key generation and full-domain-hash signing.

Keys are short because the experiments measure architecture behaviour,
not cryptographic strength: the signature default is 512 bits, and every
deployment caller (servers, clients, chaos and measurement rings) passes
256.  A deployment mints tens of keys, not hundreds: its clients' and
only those servers' that something uses, in practice the inner-ring
members (DESIGN §23).  The implementation is real (keys actually sign
and verify; forgeries fail), just short.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.crypto.hashes import sha256

_MILLER_RABIN_ROUNDS = 24

#: verdicts one key's verify memo holds, oldest evicted first.  A
#: signature is re-verified within the agreement round that carries it
#: (every replica checks every COMMIT and client request), long before
#: this many newer (message, signature) pairs reach the same key.
_VERIFY_MEMO_ENTRIES = 1024

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
]


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True, slots=True)
class PublicKey:
    n: int
    e: int
    #: (message, signature) -> verdict, the newest
    #: ``_VERIFY_MEMO_ENTRIES`` in insertion order
    _verified: OrderedDict[tuple[bytes, bytes], bool] = field(
        default_factory=OrderedDict, init=False, compare=False, repr=False
    )

    def to_bytes(self) -> bytes:
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return len(n_bytes).to_bytes(4, "big") + n_bytes + e_bytes

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a full-domain-hash RSA signature.  Never raises on bad input.

        Results are memoized on the key: verification is a pure function
        of ``(n, e, message, signature)``, and PBFT re-verifies the same
        COMMIT or client signature at every replica that receives it --
        one modular exponentiation instead of n.  The memo is a bounded
        FIFO, so a long run retains a fixed number of verdicts per key.
        """
        key = (message, signature)
        memo = self._verified
        cached = memo.get(key)
        if cached is not None:
            return cached
        sig_int = int.from_bytes(signature, "big")
        if not 0 < sig_int < self.n:
            result = False
        else:
            result = pow(sig_int, self.e, self.n) == _fdh(message, self.n)
        memo[key] = result
        if len(memo) > _VERIFY_MEMO_ENTRIES:
            memo.popitem(last=False)
        return result


@dataclass(frozen=True, slots=True)
class PrivateKey:
    """The signing half, with the factors kept for CRT signing.

    ``dp = d mod (p-1)``, ``dq = d mod (q-1)`` and ``q_inv = q^-1 mod
    p``: :meth:`sign` takes two half-size exponentiations and recombines
    them (Garner), which yields exactly ``pow(h, d, n)``.
    """

    n: int
    d: int
    public: PublicKey
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int

    def sign(self, message: bytes) -> bytes:
        digest_int = _fdh(message, self.n)
        m_p = pow(digest_int, self.dp, self.p)
        m_q = pow(digest_int, self.dq, self.q)
        sig_int = m_q + (self.q_inv * (m_p - m_q) % self.p) * self.q
        return sig_int.to_bytes((self.n.bit_length() + 7) // 8, "big")


def _fdh(message: bytes, modulus: int) -> int:
    """Full-domain hash: expand SHA-256 to just below the modulus width."""
    target_bytes = (modulus.bit_length() - 1) // 8
    material = b""
    counter = 0
    while len(material) < target_bytes:
        material += sha256(message + counter.to_bytes(4, "big"))
        counter += 1
    return int.from_bytes(material[:target_bytes], "big")


def generate_keypair(rng: random.Random, bits: int = 512) -> PrivateKey:
    """Generate an RSA keypair deterministically from ``rng``."""
    if bits < 128:
        raise ValueError("modulus too small to be meaningful")
    e = 65537
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        public = PublicKey(n=n, e=e)
        return PrivateKey(
            n=n,
            d=d,
            public=public,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            q_inv=pow(q, -1, p),
        )
