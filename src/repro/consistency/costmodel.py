"""Analytic bandwidth model of the consistency protocol (Section 4.4.5).

"Assuming that a Byzantine agreement protocol like that in [10] is used,
the total cost of an update in bytes sent across the network, b, is given
by the equation:

    b = c1*n^2 + (u + c2)*n + c3

where u is the size of the update, n is the number of replicas in the
primary tier, and c1, c2, and c3 are the sizes of small protocol
messages.  While this equation appears to be dominated by the n^2 term,
the constant c1 is quite small, on the order of 100 bytes."

Figure 6 plots b normalized by the minimum (u*n) for (m,n) in
{(2,7), (3,10), (4,13)}.  The paper also estimates six message phases and
~100 ms per wide-area message, for < 1 s of commit latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.util import ConfigError


@dataclass(frozen=True, slots=True)
class CostConstants:
    """Sizes of the small protocol messages, in bytes.

    Defaults follow the paper's "on the order of 100 bytes" for c1;
    c2 covers the per-replica request framing and c3 the client's
    final notification.
    """

    c1: float = 100.0
    c2: float = 100.0
    c3: float = 100.0


def replicas_for_faults(m: int) -> int:
    """n = 3m + 1: the Byzantine bound (footnote 8)."""
    if m < 1:
        raise ConfigError(f"must tolerate at least one fault: m={m}")
    return 3 * m + 1


def update_cost_bytes(
    update_size: float, n: int, constants: CostConstants = CostConstants()
) -> float:
    """Total bytes across the network for one update: the paper's equation."""
    if update_size <= 0:
        raise ValueError(f"update size must be positive: {update_size}")
    if n < 2:
        raise ValueError(f"primary tier needs at least 2 replicas: {n}")
    return constants.c1 * n * n + (update_size + constants.c2) * n + constants.c3


def minimum_cost_bytes(update_size: float, n: int) -> float:
    """The floor: just delivering the update to all n replicas (u*n)."""
    return update_size * n


def normalized_cost(
    update_size: float, n: int, constants: CostConstants = CostConstants()
) -> float:
    """Figure 6's y-axis: protocol bytes over the minimum u*n."""
    return update_cost_bytes(update_size, n, constants) / minimum_cost_bytes(
        update_size, n
    )


@dataclass(frozen=True, slots=True)
class CostModelFit:
    """Least-squares fit of measured traffic to the paper's equation.

    ``points`` are the (n, u, b) samples the fit consumed;
    ``rel_errors`` is each sample's relative residual under the fitted
    coefficients.  ``quadratic_ok`` is the deviation flag for the n^2
    term: False when the fitted c1 is negative (the measured traffic is
    not quadratic in n at all) or any sample misses by more than
    ``tolerance``.
    """

    c1: float
    c2: float
    c3: float
    points: tuple[tuple[int, float, float], ...]
    rel_errors: tuple[float, ...]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(abs(e) for e in self.rel_errors)

    @property
    def quadratic_ok(self) -> bool:
        return self.c1 > 0 and self.max_rel_error <= self.tolerance

    def predict(self, n: int, update_size: float) -> float:
        return self.c1 * n * n + (update_size + self.c2) * n + self.c3

    def quadratic_share(self, n: int, update_size: float) -> float:
        """Fraction of predicted bytes owed to the n^2 term -- how far
        the deployment sits from the regime where c1 dominates."""
        return (self.c1 * n * n) / self.predict(n, update_size)

    def to_dict(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "points": [list(p) for p in self.points],
            "rel_errors": list(self.rel_errors),
            "max_rel_error": self.max_rel_error,
            "tolerance": self.tolerance,
            "quadratic_ok": self.quadratic_ok,
        }


def fit_cost_model(
    points: Iterable[Sequence[float]], tolerance: float = 0.25
) -> CostModelFit:
    """Fit b = c1*n^2 + (u + c2)*n + c3 to measured (n, u, b) samples.

    The update term u*n is known exactly, so it moves to the left-hand
    side and the remaining protocol overhead b - u*n regresses on the
    basis [n^2, n, 1].  Requires samples at three or more distinct ring
    sizes (three unknowns); more samples over-determine the system and
    the residuals become the deviation signal.
    """
    import numpy as np

    samples = [(int(n), float(u), float(b)) for n, u, b in points]
    if len({n for n, _, _ in samples}) < 3:
        raise ValueError(
            "fitting three coefficients needs samples at >= 3 distinct ring sizes"
        )
    basis = np.array([[n * n, n, 1.0] for n, _, _ in samples])
    overhead = np.array([b - u * n for n, u, b in samples])
    coef, *_ = np.linalg.lstsq(basis, overhead, rcond=None)
    c1, c2, c3 = (float(c) for c in coef)
    rel_errors = tuple(
        (c1 * n * n + (u + c2) * n + c3 - b) / b for n, u, b in samples
    )
    return CostModelFit(
        c1=c1,
        c2=c2,
        c3=c3,
        points=tuple(samples),
        rel_errors=rel_errors,
        tolerance=tolerance,
    )


#: The paper's six protocol phases (Section 4.4.5): client->primary,
#: pre-prepare, prepare, commit, reply/sign, dissemination push.
PROTOCOL_PHASES = 6


def latency_estimate_ms(per_message_ms: float = 100.0) -> float:
    """The paper's back-of-envelope: six phases at ~100 ms each."""
    return PROTOCOL_PHASES * per_message_ms
