"""The backend protocol the client API drives (Section 4.6).

The base API "provides full access to OceanStore functionality in terms
of sessions, session guarantees, updates, and callbacks".  The API layer
is I/O-agnostic: it targets this protocol, implemented by the full
simulated deployment (:class:`repro.core.system.OceanStoreSystem`).  The
conformance suite's single in-process replica with the same semantics
lives with the tests (``tests/reference_backend.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.api.callbacks import CallbackRegistry
from repro.data.update import DataObjectState, Update
from repro.util.ids import GUID


class UnknownObject(KeyError):
    """The backend has no replica of the requested object."""


@dataclass(frozen=True, slots=True)
class SubmitResult:
    """What the backend reports for one submitted update."""

    committed: bool
    new_version: int | None


class Backend(Protocol):
    """What the client API requires of a deployment."""

    def create_object(self, object_guid: GUID) -> None:
        """Make the object exist (with an empty version-0 state)."""

    def read_state(
        self,
        object_guid: GUID,
        allow_tentative: bool,
        min_version: int,
        client_node: int | None = None,
    ) -> DataObjectState:
        """The freshest state available subject to the constraints.

        ``client_node`` locates the read in the network so the backend
        can serve from the closest replica (promiscuous caching).
        """

    def submit_update(self, client_node: int, update: Update) -> None:
        """Inject an update into the system (asynchronous commit)."""

    def read_version(self, object_guid: GUID, version: int) -> DataObjectState:
        """A permanent, read-only archival form (Section 2): the exact
        state as of ``version``.  Raises :class:`UnknownObject` when the
        version was retired and not archived."""

    def callbacks(self) -> CallbackRegistry:
        """The registry through which commit/abort events surface."""

    def settle(self) -> None:
        """Advance the deployment until in-flight work completes."""
