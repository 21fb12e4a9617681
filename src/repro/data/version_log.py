"""Versioning: every update creates a new version (Section 2).

"In principle, every update to an OceanStore object creates a new
version.  Consistency based on versioning, while more expensive to
implement than update-in-place consistency, provides for cleaner recovery
in the face of system failures.  It also obviates the need for backup and
supports 'permanent' pointers to information."

:class:`VersionLog` keeps the chain of committed versions of one object:
each entry holds, by reference, the state an update produced and that
update's id.  States are values (:func:`~repro.data.update.apply_update`
never mutates its input), so the head is simply the newest one.  Every log
starts from :data:`EMPTY_STATE`, so logs that apply the same update
objects in the same order share every state (DESIGN §21).  Old
versions can be retired under a :class:`~repro.naming.versions.VersionPolicy`
("interfaces for retiring old versions, as in the Elephant File System").
The log also records aborted updates: "The update itself is logged
regardless of whether it commits or aborts" (Section 4.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.update import DataObjectState, Update, UpdateOutcome, apply_update
from repro.naming.versions import VersionPolicy


class VersionNotFound(KeyError):
    """Requested version is unknown or has been retired."""


@dataclass(frozen=True, slots=True)
class VersionRecord:
    """One committed version: its state plus provenance."""

    version: int
    state: DataObjectState
    update_id: bytes


@dataclass(frozen=True, slots=True)
class LoggedUpdate:
    """Audit-log entry for every processed update, committed or not."""

    update_id: bytes
    committed: bool
    resulting_version: int | None


#: Version 0 of every object.  Every log starts from this one state, so
#: replicas that apply the same updates in the same order hold the very
#: same state objects (DESIGN §21); mutating it would corrupt them all.
EMPTY_STATE = DataObjectState()


@dataclass
class VersionLog:
    """The version chain and audit log of a single object."""

    head: DataObjectState = field(default_factory=lambda: EMPTY_STATE)
    _versions: dict[int, VersionRecord] = field(default_factory=dict)
    _log: list[LoggedUpdate] = field(default_factory=list)

    def apply(self, update: Update) -> UpdateOutcome:
        """Apply an update to the head; record it on commit; always log."""
        outcome, self.head = apply_update(self.head, update)
        if outcome.committed:
            assert outcome.new_version is not None
            self._versions[outcome.new_version] = VersionRecord(
                version=outcome.new_version,
                state=self.head,
                update_id=update.update_id,
            )
        self._log.append(
            LoggedUpdate(
                update_id=update.update_id,
                committed=outcome.committed,
                resulting_version=outcome.new_version,
            )
        )
        return outcome

    @property
    def current_version(self) -> int:
        return self.head.version

    def version(self, number: int) -> VersionRecord:
        """A committed (read-only archival-form) version."""
        try:
            return self._versions[number]
        except KeyError:
            raise VersionNotFound(f"version {number} unknown or retired") from None

    def versions(self) -> list[int]:
        return sorted(self._versions)

    def history(self) -> list[LoggedUpdate]:
        """The full modification history, including aborts (Section 4.5:
        'interfaces will exist to examine modification history')."""
        return list(self._log)

    def snapshot(self) -> "VersionLog":
        """An independent log for state transfer (ring-membership handoff).

        The audit log stores no update bodies, so a receiving replica
        cannot rebuild the chain by replay -- the snapshot carries the
        head, every retained version record, and the log itself.  The
        states and records are values, so both logs share them; only the
        containers are new.
        """
        clone = VersionLog(head=self.head)
        clone._versions = dict(self._versions)
        clone._log = list(self._log)
        return clone

    def retire(self, policy: VersionPolicy) -> list[int]:
        """Drop versions not retained by ``policy``; returns retired list."""
        keep = set(policy.retained(self.versions()))
        retired = [v for v in self.versions() if v not in keep]
        for v in retired:
            del self._versions[v]
        return retired
