"""Persistent objects: active and archival forms (Section 2).

"OceanStore objects exist in both active and archival forms.  An active
form of an object is the latest version of its data together with a
handle for update.  An archival form represents a permanent, read-only
version of the object."

:class:`PersistentObject` is the unit a floating replica stores: the
GUID, the version log (whose head is the active form), and bookkeeping
for archival snapshots.  Actual erasure-coded archival fragments live in
:mod:`repro.archival`; this module records which versions have been
archived and under which archival GUID (the Merkle root of the fragment
tree, Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.update import DataObjectState, Update, UpdateOutcome
from repro.data.version_log import VersionLog
from repro.util.ids import GUID


@dataclass(frozen=True, slots=True)
class ArchivalReference:
    """Pointer from a version to its deep-archival form."""

    version: int
    archival_guid: GUID
    fragment_count: int


@dataclass
class PersistentObject:
    """One OceanStore object as held by a replica."""

    guid: GUID
    log: VersionLog = field(default_factory=VersionLog)
    archived: dict[int, ArchivalReference] = field(default_factory=dict)

    @property
    def active(self) -> DataObjectState:
        """The active form: latest version plus the update handle."""
        return self.log.head

    @property
    def version(self) -> int:
        return self.log.current_version

    def apply_update(self, update: Update) -> UpdateOutcome:
        if update.object_guid != self.guid:
            raise ValueError(
                f"update for {update.object_guid} applied to object {self.guid}"
            )
        return self.log.apply(update)

    def record_archival(self, reference: ArchivalReference) -> None:
        self.archived[reference.version] = reference

