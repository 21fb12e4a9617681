"""The degenerate deployment: one trusted in-process replica.

The reference the backend conformance suite
(``tests/test_backend_conformance.py``) holds the simulated deployment
to, and the backend of facade and session tests where the distributed
machinery is noise.  It implements :class:`repro.api.backend.Backend`
with the same semantics; updates commit synchronously.
"""

from __future__ import annotations

from repro.api.backend import UnknownObject
from repro.api.callbacks import ApiEvent, CallbackRegistry, Notification
from repro.data.objects import PersistentObject
from repro.data.update import DataObjectState, Update
from repro.data.version_log import VersionNotFound
from repro.util.ids import GUID


class LocalBackend:
    """A single trusted in-process replica."""

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
