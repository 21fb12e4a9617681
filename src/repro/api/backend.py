"""The backend protocol the client API drives (Section 4.6).

The base API "provides full access to OceanStore functionality in terms
of sessions, session guarantees, updates, and callbacks".  The API layer
is I/O-agnostic: it targets this protocol, implemented by the full
simulated deployment (:class:`repro.core.system.OceanStoreSystem`) and,
for tests and quick scripting, by :class:`LocalBackend` -- a single
in-process replica with the same semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.api.callbacks import ApiEvent, CallbackRegistry, Notification
from repro.data.objects import PersistentObject
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


class LocalBackend:
    """A single trusted in-process replica: the degenerate deployment.

    Updates commit synchronously; useful for facade and session tests
    where the distributed machinery is noise.
    """

    def __init__(self) -> None:
        self._objects: dict[GUID, PersistentObject] = {}
        self._callbacks = CallbackRegistry()

    def create_object(self, object_guid: GUID) -> None:
        if object_guid not in self._objects:
            self._objects[object_guid] = PersistentObject(guid=object_guid)

    def _object(self, object_guid: GUID) -> PersistentObject:
        try:
            return self._objects[object_guid]
        except KeyError:
            raise UnknownObject(f"no such object: {object_guid}") from None

    def read_state(
        self,
        object_guid: GUID,
        allow_tentative: bool,
        min_version: int,
        client_node: int | None = None,
    ) -> DataObjectState:
        state = self._object(object_guid).active
        if state.version < min_version:
            raise UnknownObject(
                f"object {object_guid} below requested version {min_version}"
            )
        # States are values: a later commit replaces the head rather than
        # mutating it, so the guards a caller builds against this stay put.
        return state

    def submit_update(self, client_node: int, update: Update) -> None:
        obj = self._object(update.object_guid)
        outcome = obj.apply_update(update)
        event = ApiEvent.UPDATE_COMMITTED if outcome.committed else ApiEvent.UPDATE_ABORTED
        self._callbacks.notify(
            Notification(
                event=event,
                object_guid=update.object_guid,
                update_id=update.update_id,
                version=outcome.new_version,
            )
        )
        if outcome.committed:
            self._callbacks.notify(
                Notification(
                    event=ApiEvent.NEW_VERSION,
                    object_guid=update.object_guid,
                    version=outcome.new_version,
                )
            )

    def read_version(self, object_guid: GUID, version: int) -> DataObjectState:
        from repro.data.version_log import VersionNotFound

        obj = self._object(object_guid)
        try:
            return obj.log.version(version).state
        except VersionNotFound:
            raise UnknownObject(
                f"version {version} of {object_guid} unavailable"
            ) from None

    def callbacks(self) -> CallbackRegistry:
        return self._callbacks

    def settle(self) -> None:
        """Synchronous backend: nothing in flight."""

    # -- conveniences for tests -------------------------------------------------

    def object(self, object_guid: GUID) -> PersistentObject:
        return self._object(object_guid)
