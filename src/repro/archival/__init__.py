"""Deep archival storage (Section 4.5).

Erasure codes (:mod:`~repro.archival.reed_solomon`,
:mod:`~repro.archival.tornado` over :mod:`~repro.archival.gf256`),
self-verifying fragments with hierarchical hashing
(:mod:`~repro.archival.fragments`), dispersal across administrative
domains (:mod:`~repro.archival.placement`), retrieval with over-request
(:mod:`~repro.archival.reconstruction`), continuous repair sweeps
(:mod:`~repro.archival.repair`), and the hypergeometric availability
analytics (:mod:`~repro.archival.reliability`).
"""

from repro.archival.fragments import (
    ArchivalFragment,
    ArchivalObject,
    encode_archival,
    reconstruct_archival,
    verify_fragment,
)
from repro.archival.placement import (
    AdministrativeDomain,
    FragmentPlacer,
    PlacementError,
    PlacementPlan,
)
from repro.archival.reconstruction import FetchResult, FragmentFetcher, FragmentStore
from repro.archival.reed_solomon import CodedFragment, CodingError, ReedSolomonCode
from repro.archival.reliability import (
    MonteCarloResult,
    document_availability,
    erasure_availability,
    monte_carlo_availability,
    nines,
    replication_availability,
    storage_overhead,
)
from repro.archival.repair import ArchiveIndex, RepairReport, RepairSweeper
from repro.archival.tornado import TornadoCode

__all__ = [
    "AdministrativeDomain",
    "ArchivalFragment",
    "ArchivalObject",
    "ArchiveIndex",
    "CodedFragment",
    "CodingError",
    "FetchResult",
    "FragmentFetcher",
    "FragmentPlacer",
    "FragmentStore",
    "MonteCarloResult",
    "PlacementError",
    "PlacementPlan",
    "ReedSolomonCode",
    "RepairReport",
    "RepairSweeper",
    "TornadoCode",
    "document_availability",
    "encode_archival",
    "erasure_availability",
    "monte_carlo_availability",
    "nines",
    "reconstruct_archival",
    "replication_availability",
    "storage_overhead",
    "verify_fragment",
]
