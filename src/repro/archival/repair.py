"""Continuous archival repair (Section 4.5).

"OceanStore contains processes that slowly sweep through all existing
archival data, repairing or increasing the level of replication to
further increase durability."

The sweep inspects each archival object's surviving fragment population;
when live fragments drop below a safety threshold, it reconstructs the
object from what remains and re-encodes to full strength, redistributing
fresh fragments to healthy servers.  The location structure already
"recognize[s] which servers are down and ... identif[ies] data that must
be reconstructed when a server is permanently removed" (Section 4.3.3);
here we take the list of live stores as that knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archival.fragments import (
    ArchivalObject,
    ErasureCode,
    encode_archival,
    reconstruct_archival,
)
from repro.archival.reconstruction import FragmentStore
from repro.archival.reed_solomon import CodingError
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce


@dataclass(frozen=True, slots=True)
class RepairReport:
    """What one sweep did for one archival object."""

    archival_guid_bytes: bytes
    live_fragments: int
    repaired: bool
    lost: bool
    new_fragments_placed: int


@dataclass
class ArchiveIndex:
    """Registry of archival objects under repair management."""

    objects: dict[bytes, tuple[ArchivalObject, ErasureCode]] = field(
        default_factory=dict
    )

    def register(self, archival: ArchivalObject, code: ErasureCode) -> None:
        self.objects[archival.fragments[0].guid_bytes] = (archival, code)


class RepairSweeper:
    """The slow background sweep over all archival data."""

    def __init__(
        self,
        network: Network,
        stores: dict[NodeId, FragmentStore],
        index: ArchiveIndex,
        min_live_fraction: float = 0.75,
        telemetry=None,
    ) -> None:
        if not 0 < min_live_fraction <= 1:
            raise ValueError(
                f"min_live_fraction must be in (0, 1], got {min_live_fraction}"
            )
        self.network = network
        self.stores = stores
        self.index = index
        self.min_live_fraction = min_live_fraction
        self.telemetry = coalesce(telemetry)

    def _live_fragments(self, guid_bytes: bytes) -> list:
        fragments = []
        for node, store in sorted(self.stores.items()):
            if self.network.is_down(node):
                continue
            fragments.extend(store.get(guid_bytes))
        # Distinct indices only; duplicates add nothing to durability.
        seen: set[int] = set()
        unique = []
        for fragment in fragments:
            if fragment.index not in seen and fragment.verify():
                seen.add(fragment.index)
                unique.append(fragment)
        return unique

    def sweep(self) -> list[RepairReport]:
        """One pass over every archival object."""
        reports = []
        for guid_bytes, (archival, code) in sorted(self.index.objects.items()):
            reports.append(self._sweep_one(guid_bytes, archival, code))
        return reports

    def _sweep_one(
        self, guid_bytes: bytes, archival: ArchivalObject, code: ErasureCode
    ) -> RepairReport:
        tel = self.telemetry
        live = self._live_fragments(guid_bytes)
        threshold = int(archival.n * self.min_live_fraction)
        if len(live) >= threshold:
            if tel.enabled:
                tel.count("archival_sweeps_total", outcome="healthy")
            return RepairReport(
                archival_guid_bytes=guid_bytes,
                live_fragments=len(live),
                repaired=False,
                lost=False,
                new_fragments_placed=0,
            )
        # Below threshold: reconstruct and re-disseminate at full strength.
        try:
            merkle_root = archival.fragments[0].merkle_root
            data = reconstruct_archival(live, code, merkle_root, telemetry=tel)
        except (CodingError, IndexError):
            if tel.enabled:
                tel.count("archival_sweeps_total", outcome="lost")
                tel.record(
                    "archival", "lost", guid=guid_bytes, live=len(live)
                )
            return RepairReport(
                archival_guid_bytes=guid_bytes,
                live_fragments=len(live),
                repaired=False,
                lost=True,
                new_fragments_placed=0,
            )
        with tel.span("archival.repair", live=len(live)):
            fresh = encode_archival(data, code, telemetry=tel)
        healthy = [
            node
            for node in sorted(self.stores)
            if not self.network.is_down(node)
        ]
        placed = 0
        for i, fragment in enumerate(fresh.fragments):
            target = healthy[i % len(healthy)]
            self.stores[target].put(fragment)
            placed += 1
        # The re-encode reproduces the identical fragment set (same data,
        # same code), so the archival GUID is unchanged.
        self.index.register(fresh, code)
        if tel.enabled:
            tel.count("archival_sweeps_total", outcome="repaired")
            tel.count("archival_fragments_replaced_total", placed)
            tel.record(
                "archival",
                "repair",
                guid=guid_bytes,
                live=len(live),
                placed=placed,
            )
        return RepairReport(
            archival_guid_bytes=guid_bytes,
            live_fragments=len(live),
            repaired=True,
            lost=False,
            new_fragments_placed=placed,
        )
