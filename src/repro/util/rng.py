"""Deterministic randomness for reproducible experiments.

All stochastic components of the reproduction -- topology generation, GUID
assignment, failure injection, workload generators -- draw from seeded
``random.Random`` streams handed out by a single :class:`SeedSequence`.
Re-running any experiment with the same master seed reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Derives independent named random streams from one master seed.

    Each stream is keyed by a label, so adding a new consumer does not
    perturb the randomness seen by existing ones (unlike sharing a single
    ``Random`` instance, where call order matters).
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed

    def derive(self, label: str) -> random.Random:
        """A fresh ``Random`` whose seed depends on the master seed and label."""
        material = f"{self.master_seed}:{label}".encode()
        seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return random.Random(seed)
