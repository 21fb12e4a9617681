"""The native OceanStore client API (Section 4.6).

:class:`OceanStoreHandle` binds a principal (with its keyring) to a
backend.  It owns object creation (self-certifying GUIDs + read keys),
plaintext reads/writes through the ciphertext codec, session management,
and callbacks.  Facades (:mod:`repro.api.facades`) layer familiar
interfaces on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.backend import Backend, SubmitResult
from repro.api.callbacks import ApiEvent, Notification
from repro.api.session import GuaranteeViolation, Session, SessionGuarantee
from repro.crypto.keys import KeyRing, ObjectKey, Principal
from repro.data.ciphertext_ops import ClientCodec, UpdateBuilder
from repro.data.update import DataObjectState
from repro.naming.guid import object_guid
from repro.recovery.retry import RetryPolicy
from repro.util.ids import GUID


@dataclass(frozen=True, slots=True)
class ObjectHandle:
    """An opened object: GUID plus the codec for its current read key."""

    guid: GUID
    codec: ClientCodec


class OceanStoreHandle:
    """A client's connection to the OceanStore."""

    def __init__(
        self,
        backend: Backend,
        principal: Principal,
        keyring: KeyRing,
        home_node: int = 0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.backend = backend
        self.principal = principal
        self.keyring = keyring
        self.home_node = home_node
        #: default retry budget for reads; ``None`` keeps the ordinary
        #: (non-degrading) read path
        self.retry = retry
        self._clock = 0.0
        self._builder_nonce = 0

    # -- time ---------------------------------------------------------------------

    def _timestamp(self) -> float:
        """Client-side optimistic timestamps (monotonic per handle)."""
        self._clock += 1.0
        return self._clock

    # -- objects ---------------------------------------------------------------

    def create_object(self, name: str) -> ObjectHandle:
        """Mint a self-certifying object with a fresh read key."""
        guid = object_guid(self.principal.public_key, name)
        if not self.keyring.has_key(guid):
            self.keyring.create_object_key(guid)
        self.backend.create_object(guid)
        return self.open_object(guid)

    def open_object(self, guid: GUID) -> ObjectHandle:
        """Open an object we hold the read key for."""
        key = self.keyring.key_for(guid)
        return ObjectHandle(guid=guid, codec=ClientCodec(key))

    def open_named(self, name: str) -> ObjectHandle:
        return self.open_object(object_guid(self.principal.public_key, name))

    def grant_read(self, guid: GUID, other_keyring: KeyRing) -> ObjectKey:
        """Reader restriction is key distribution (Section 4.2)."""
        key = self.keyring.key_for(guid)
        other_keyring.grant(key)
        return key

    def revoke_readers(self, handle: ObjectHandle) -> ObjectHandle:
        """Revoke read permission by re-keying and re-encrypting.

        Section 4.2: "To revoke read permission, the owner must request
        that replicas be deleted or re-encrypted with the new key."  The
        owner mints the next key generation, re-encrypts the current
        content under it, and distributes the new key only to remaining
        readers.  A recently-revoked reader can still read *old* cached
        data -- the paper is explicit that this exposure is unavoidable
        ("there is no way to force a reader to forget what has been
        read") -- but every later version is opaque to them.

        Returns a fresh handle bound to the new key generation.
        """
        plaintext = self.read(handle)
        new_key = self.keyring.revoke_and_rekey(handle.guid)
        new_handle = ObjectHandle(guid=handle.guid, codec=ClientCodec(new_key))
        state = self._read_state(handle.guid, None)
        builder = UpdateBuilder(
            new_handle.codec, state, entropy=self._builder_entropy()
        ).guard_version()
        for slot in range(len(state.data.slots)):
            builder.delete(slot)
        builder.append(plaintext)
        result = self.submit(new_handle, builder)
        if not result.committed:
            raise RuntimeError("re-encryption update aborted; retry revocation")
        return new_handle

    # -- sessions ----------------------------------------------------------------

    def open_session(
        self, guarantees: SessionGuarantee = SessionGuarantee.NONE
    ) -> Session:
        return Session(guarantees)

    # -- reads ----------------------------------------------------------------------

    def read(
        self,
        handle: ObjectHandle,
        session: Session | None = None,
        retry: RetryPolicy | None = None,
    ) -> bytes:
        """Read and decrypt the whole object under the session's rules.

        With a :class:`RetryPolicy` (per call, or installed on the
        handle), the read runs down the backend's degradation ladder
        instead of the ordinary path: locate, salted retries with
        backoff, tentative secondary data (when the session permits),
        and archival reconstruction as the last resort.
        """
        state = self._read_state(handle.guid, session, retry)
        return handle.codec.read_document(state.data)

    def read_state(
        self,
        handle: ObjectHandle,
        session: Session | None = None,
        retry: RetryPolicy | None = None,
    ) -> DataObjectState:
        """The raw (ciphertext) state, for update building."""
        return self._read_state(handle.guid, session, retry)

    def read_version(self, handle: ObjectHandle, version: int) -> bytes:
        """Read a permanent, read-only version (a 'permanent pointer to
        information', Section 2)."""
        state = self.backend.read_version(handle.guid, version)
        return handle.codec.read_document(state.data)

    def _read_state(
        self,
        guid: GUID,
        session: Session | None,
        retry: RetryPolicy | None = None,
    ) -> DataObjectState:
        allow_tentative = True
        min_version = 0
        if session is not None:
            allow_tentative = not session.requires_committed_data
            min_version = session.min_acceptable_version(guid)
        retry = retry if retry is not None else self.retry
        read_degraded = getattr(self.backend, "read_degraded", None)
        if retry is not None and read_degraded is not None:
            state = read_degraded(
                guid,
                allow_tentative=allow_tentative,
                min_version=min_version,
                client_node=self.home_node,
                retry=retry,
            )
        else:
            state = self.backend.read_state(
                guid,
                allow_tentative=allow_tentative,
                min_version=min_version,
                client_node=self.home_node,
            )
        if session is not None:
            session.check_read(guid, state)
        return state

    # -- writes ----------------------------------------------------------------------

    def _builder_entropy(self) -> bytes:
        """Per-client, per-builder uniqueness for block identities, so
        concurrent clients sharing an object key never collide."""
        self._builder_nonce += 1
        return self.principal.guid.to_bytes() + self._builder_nonce.to_bytes(8, "big")

    def update_builder(
        self, handle: ObjectHandle, session: Session | None = None
    ) -> UpdateBuilder:
        """An update builder primed with the current object state."""
        state = self._read_state(handle.guid, session)
        builder = UpdateBuilder(handle.codec, state, entropy=self._builder_entropy())
        if session is not None:
            floor = session.write_depends_on_version(handle.guid)
            if floor and state.version < floor:
                raise GuaranteeViolation(
                    f"cannot write against version {state.version}; session "
                    f"writes depend on version {floor}"
                )
        return builder

    def submit(
        self,
        handle: ObjectHandle,
        builder: UpdateBuilder,
        session: Session | None = None,
        wait: bool = True,
    ) -> SubmitResult:
        """Sign, submit, and (by default) wait for the commit decision."""
        update = builder.build(self.principal, handle.guid, self._timestamp())
        result_holder: list[SubmitResult] = []

        def on_commit(n: Notification) -> None:
            if n.update_id == update.update_id:
                result_holder.append(SubmitResult(True, n.version))

        def on_abort(n: Notification) -> None:
            if n.update_id == update.update_id:
                result_holder.append(SubmitResult(False, None))

        registry = self.backend.callbacks()
        registry.register(ApiEvent.UPDATE_COMMITTED, on_commit, handle.guid)
        registry.register(ApiEvent.UPDATE_ABORTED, on_abort, handle.guid)
        try:
            self.backend.submit_update(self.home_node, update)
            if wait:
                self.backend.settle()
        finally:
            registry.unregister(ApiEvent.UPDATE_COMMITTED, on_commit, handle.guid)
            registry.unregister(ApiEvent.UPDATE_ABORTED, on_abort, handle.guid)
        if not result_holder:
            return SubmitResult(committed=False, new_version=None)
        result = result_holder[-1]
        if result.committed and session is not None and result.new_version is not None:
            session.record_write(handle.guid, result.new_version)
        return result

    def write(
        self,
        handle: ObjectHandle,
        data: bytes,
        session: Session | None = None,
    ) -> SubmitResult:
        """Whole-document overwrite: delete existing slots, append anew.

        The deletes run in ascending slot order, so the builder ships
        them as one :class:`~repro.data.update.DeleteBlock` run and the
        update's size does not grow with the object's history.  Guarded
        on the version read, so concurrent overwrites conflict rather
        than interleave.
        """
        state = self._read_state(handle.guid, session)
        builder = UpdateBuilder(
            handle.codec, state, entropy=self._builder_entropy()
        ).guard_version()
        for slot in range(len(state.data.slots)):
            builder.delete(slot)
        builder.append(data)
        return self.submit(handle, builder, session)

    def append(
        self,
        handle: ObjectHandle,
        data: bytes,
        session: Session | None = None,
    ) -> SubmitResult:
        builder = self.update_builder(handle, session).append(data)
        return self.submit(handle, builder, session)

    # -- callbacks -------------------------------------------------------------------

    def on_event(self, event: ApiEvent, handler, guid: GUID | None = None) -> None:
        self.backend.callbacks().register(event, handler, guid)
