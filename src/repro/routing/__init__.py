"""Data location and routing (Section 4.3).

Two tiers: a fast probabilistic layer built on attenuated Bloom filters
(:mod:`~repro.routing.bloom`, :mod:`~repro.routing.probabilistic`), and a
reliable global layer built on a Plaxton-style mesh
(:mod:`~repro.routing.plaxton`) with salted replicated roots
(:mod:`~repro.routing.salt`).  :class:`LocationService` composes the
tiers; :mod:`repro.recovery` keeps the mesh up under churn.
"""

from repro.routing.bloom import (
    AttenuatedBloomFilter,
    AttenuatedMatch,
    BloomFilter,
    guid_bit_positions,
    guid_mask,
)
from repro.routing.multicast import (
    AdmissionDenied,
    DeliveryReport,
    MulticastError,
    MulticastService,
)
from repro.routing.plaxton import (
    LocateResult,
    PlaxtonMesh,
    PlaxtonNode,
    RouteTrace,
    RoutingError,
)
from repro.routing.probabilistic import ProbabilisticLocator, QueryResult
from repro.routing.salt import (
    DEFAULT_SALTS,
    SaltedLocateResult,
    SaltedRouter,
    SaltFailure,
)
from repro.routing.service import LocationResult, LocationService, Tier

__all__ = [
    "AdmissionDenied",
    "AttenuatedBloomFilter",
    "AttenuatedMatch",
    "BloomFilter",
    "DEFAULT_SALTS",
    "DeliveryReport",
    "MulticastError",
    "MulticastService",
    "LocateResult",
    "LocationResult",
    "LocationService",
    "PlaxtonMesh",
    "PlaxtonNode",
    "ProbabilisticLocator",
    "QueryResult",
    "RouteTrace",
    "RoutingError",
    "SaltFailure",
    "SaltedLocateResult",
    "SaltedRouter",
    "Tier",
    "guid_bit_positions",
    "guid_mask",
]
