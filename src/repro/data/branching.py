"""Branching version streams (Section 4.4.1).

"Slight extensions to the model can support Lotus Notes-style conflict
resolution, where unresolvable conflicts result in a branch in the
object's version stream" [25].

:class:`BranchingVersionLog` wraps the linear
:class:`~repro.data.version_log.VersionLog` with named branches: an
update whose guards fail against the main stream can be *diverted* into
a branch forked from the version it was built against, preserving the
user's work instead of discarding it.  Branches can later be merged back
by replaying their updates (guards re-evaluated against main) or by an
application-provided reconciliation update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.update import DataObjectState, Update, UpdateOutcome
from repro.data.version_log import VersionLog


class BranchError(RuntimeError):
    pass


MAIN = "main"


@dataclass
class Branch:
    """One divergent version stream, forked from a main version."""

    name: str
    forked_from_version: int
    log: VersionLog
    updates: list[Update] = field(default_factory=list)


class BranchingVersionLog:
    """A version log whose conflicts fork branches instead of vanishing.

    Normal updates go through :meth:`apply`; when the outcome is an
    abort and the caller wants Lotus-Notes semantics, it calls
    :meth:`divert` with the version the update was built against.  The
    update is then applied to a branch state forked from that version
    (where its guards still hold).
    """

    def __init__(self) -> None:
        self.main = VersionLog()
        self._branches: dict[str, Branch] = {}
        self._branch_counter = 0

    # -- main stream --------------------------------------------------------

    def apply(self, update: Update) -> UpdateOutcome:
        return self.main.apply(update)

    @property
    def head(self) -> DataObjectState:
        return self.main.head

    # -- branching ----------------------------------------------------------

    def branch_names(self) -> list[str]:
        return sorted(self._branches)

    def branch(self, name: str) -> Branch:
        try:
            return self._branches[name]
        except KeyError:
            raise BranchError(f"no branch named {name!r}") from None

    def divert(self, update: Update, built_against_version: int) -> tuple[str, UpdateOutcome]:
        """Fork (or extend) a branch at the version the update expected.

        Returns (branch name, outcome of applying the update there).  If
        a branch already forked from that version exists, the update
        extends it; otherwise a new branch forks from the archival form
        of that version.
        """
        existing = next(
            (
                b
                for b in self._branches.values()
                if b.forked_from_version == built_against_version
            ),
            None,
        )
        if existing is None:
            base = self.main.version(built_against_version)
            fork_log = VersionLog(head=base.state)
            self._branch_counter += 1
            existing = Branch(
                name=f"branch-{self._branch_counter}",
                forked_from_version=built_against_version,
                log=fork_log,
            )
            self._branches[existing.name] = existing
        outcome = existing.log.apply(update)
        if outcome.committed:
            existing.updates.append(update)
        return existing.name, outcome

    # -- merging ------------------------------------------------------------------

    def merge_by_replay(self, name: str) -> list[UpdateOutcome]:
        """Replay a branch's updates against main, in order.

        Guards are re-evaluated against the *current* main state: updates
        whose conflicts have evaporated commit; others abort (and remain
        visible in the branch for manual reconciliation).  The branch is
        removed if every update merged.
        """
        branch = self.branch(name)
        outcomes = [self.main.apply(update) for update in branch.updates]
        if all(o.committed for o in outcomes):
            del self._branches[name]
        return outcomes

    def resolve(self, name: str, reconciliation: Update) -> UpdateOutcome:
        """Merge a branch with an application-provided reconciliation
        update (the Bayou-style escape hatch), then drop the branch."""
        outcome = self.main.apply(reconciliation)
        if outcome.committed:
            self._branches.pop(name, None)
        return outcome

    def drop(self, name: str) -> None:
        if name not in self._branches:
            raise BranchError(f"no branch named {name!r}")
        del self._branches[name]
